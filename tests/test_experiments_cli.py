import copy
import csv
import itertools
import json
import math

import numpy as np
import pytest

from palsgd import algorithms, experiments
from palsgd.algorithms import DivergenceReport, Schedule, make_variant, run_training
from palsgd.cli import main
from palsgd.cluster import ClusterSpec
from palsgd.config import ConfigError, RunConfig, parse_config
from palsgd.experiments import (SWEEP_CSV_HEADER, fit_loglog_slope, gradcheck,
                                k1_scalar_oracle, run_experiment, sweep,
                                verify_theory, weighted_average_suboptimality)
from palsgd.workloads import QuadraticWorkload


def parse(obj):
    return parse_config(json.dumps(obj))


def quad_cfg(**overrides):
    base = {
        "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 4.0},
        "algo": {"variant": "palsgd", "inner": {"variant": "sgd", "clip_norm": None},
                 "outer": {"variant": "nesterov", "lr": 0.7}},
        "schedule": {"alpha": 0.02, "eta": 0.5, "p": 0.1,
                     "sync_interval": 8, "total_steps": 64},
        "workers": 2,
        "seed": 5,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key].update(value)
        else:
            base[key] = value
    return base


class TestRunExperiment:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = parse(quad_cfg())
        summary, result = run_experiment(cfg, out_dir=str(tmp_path))
        for name in ("config.json", "metrics.jsonl", "summary.json", "events.jsonl"):
            assert (tmp_path / name).exists(), name
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == json.loads(json.dumps(summary))
        assert summary["sync_count"] == 8

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = parse(quad_cfg())
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for name in ("metrics.jsonl", "summary.json", "events.jsonl", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_ddp_vs_palsgd_sync_counts(self):
        palsgd_summary, _ = run_experiment(parse(quad_cfg(
            schedule={"total_steps": 160, "sync_interval": 16})))
        ddp_summary, _ = run_experiment(parse({
            "workload": {"kind": "quadratic", "dim": 4},
            "algo": {"variant": "ddp"},
            "schedule": {"total_steps": 160}, "workers": 2, "seed": 5}))
        assert palsgd_summary["sync_count"] == 10
        assert ddp_summary["sync_count"] == 160

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        plain = RunConfig.build_workload

        def counted(self):
            built.append(self.workload["kind"])
            return plain(self)

        monkeypatch.setattr(RunConfig, "build_workload", counted)
        return built

    def test_run_reuses_the_validated_workload(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        cfg = parse({"workload": {"kind": "logistic", "n_samples": 40},
                     "algo": {"variant": "ddp"}, "schedule": {"total_steps": 4}, "workers": 2})
        assert built == ["logistic"]  # parse_config builds it once to validate it
        _, result = run_experiment(cfg)
        run_experiment(cfg)
        assert built == ["logistic"] and not result.diverged

    def test_edited_workload_section_is_rebuilt(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        cfg = parse(quad_cfg())
        first = cfg.workload_object()
        cfg.workload["noise_sigma"] = 0.25
        _, result = run_experiment(cfg)
        assert len(built) == 2
        assert cfg.workload_object() is not first
        assert (first.noise_sigma, cfg.workload_object().noise_sigma) == (1.0, 0.25)
        # a deep copy edited in place, as a sweep cell or a theory cell is, too
        cell = copy.deepcopy(cfg)
        cell.workload["x_star"] = [0.5] * 4
        assert cell.workload_object().x_star.tolist() == [0.5] * 4
        assert cfg.workload_object().x_star.tolist() == [0.0] * 4
        assert len(built) == 3


    def test_mlp_eval_set_shares_the_training_classes(self):
        summary, _ = run_experiment(parse({
            "workload": {"kind": "mlp", "widths": [8, 16, 3], "samples_per_class": 30,
                         "test_samples_per_class": 20},
            "schedule": {"p": 0.1, "sync_interval": 16, "total_steps": 160},
            "workers": 2, "seed": 1, "eval_every": 40}))
        assert summary["final_eval_acc"] >= 0.9

    def test_mlp_without_a_test_set_adds_no_eval_records(self):
        raw = {"workload": {"kind": "mlp", "widths": [8, 16, 3], "samples_per_class": 10,
                            "test_samples_per_class": 0},
               "schedule": {"p": 0.1, "sync_interval": 8, "total_steps": 24}, "workers": 2}
        _, result = run_experiment(parse(raw))
        columns = result.diagnostics.columns
        assert columns["step"].tolist() == [7, 15, 23]
        assert not columns["evaluated"].any()
        assert np.isnan(columns["eval_loss"]).all() and np.isnan(columns["eval_acc"]).all()
        # eval_every could not act on this run
        with pytest.raises(ConfigError) as exc:
            parse({**raw, "eval_every": 5})
        assert exc.value.field == "eval_every"


class TestSweep:
    def test_rows_match_per_run_summaries(self, tmp_path):
        cfg = parse(quad_cfg())
        rows = sweep(cfg, {"schedule.sync_interval": [4, 8, 16]}, out_dir=str(tmp_path))
        assert len(rows) == 3
        for i, row in enumerate(rows):
            cell = json.loads((tmp_path / str(i) / "summary.json").read_text())
            assert row["final_loss"] == cell["final_loss"]
            assert row["sim_time_s"] == cell["total_sim_time_s"]
            assert row["sync_count"] == cell["sync_count"]
        with open(tmp_path / "sweep.csv") as fh:
            table = list(csv.DictReader(fh))
        assert list(table[0].keys()) == SWEEP_CSV_HEADER
        assert [int(r["sync_count"]) for r in table] == [16, 8, 4]

    def test_cells_default_to_the_base_out_dir(self, tmp_path):
        # as the CLI's sweep does: each cell writes under <out_dir>/<i>, not over the base's run
        rows = sweep(parse(quad_cfg(out_dir=str(tmp_path))), {"schedule.p": [0.1, 0.2]})
        for i, row in enumerate(rows):
            cell = json.loads((tmp_path / str(i) / "summary.json").read_text())
            assert row["final_loss"] == cell["final_loss"]
        assert not (tmp_path / "summary.json").exists()
        with open(tmp_path / "sweep.csv") as fh:
            assert [r["value"] for r in csv.DictReader(fh)] == ["0.1", "0.2"]

    def test_unknown_parameter_rejected(self):
        cfg = parse(quad_cfg())
        with pytest.raises(ConfigError, match="not present"):
            sweep(cfg, {"schedule.gamma": [1, 2]})

    def test_failing_cell_recorded_and_sweep_continues(self, tmp_path):
        cfg = parse(quad_cfg())
        rows = sweep(cfg, {"schedule.p": [0.1, 1.5, 0.2]}, out_dir=str(tmp_path))
        assert len(rows) == 3
        bad = rows[1]
        assert bad["status"] == "error"
        assert bad["diverged"] == "" and bad["final_loss"] == ""
        assert (tmp_path / "1" / "error.txt").exists()
        assert [rows[0]["status"], rows[2]["status"]] == ["ok", "ok"]
        assert rows[0]["diverged"] is False and rows[2]["diverged"] is False
        with open(tmp_path / "sweep.csv") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "error", "ok"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverged_cell_is_not_an_error(self):
        cfg = parse(quad_cfg())
        rows = sweep(cfg, {"schedule.alpha": [0.02, 1e9]})
        assert [r["status"] for r in rows] == ["ok", "diverged"]
        assert rows[1]["diverged"] is True and rows[1]["sync_count"] != ""

    def test_variant_cells_rederive_what_the_variant_owns(self):
        # one 3x straggler; ddp waits for it at every step, and palsgd's
        # mixing steps take no gradient
        cfg = parse(quad_cfg(schedule={"sync_interval": 4, "total_steps": 40}, workers=4,
                             cluster={"worker_multipliers": [1, 1, 1, 3]}))
        rows = sweep(cfg, {"algo.variant": ["ddp", "local_sgd", "diloco", "palsgd"]})
        assert [r["status"] for r in rows] == ["ok"] * 4
        times = {r["value"]: r["sim_time_s"] for r in rows}
        assert times["palsgd"] < times["ddp"]

    def test_variant_cells_of_unknown_and_theory_tags(self):
        # unknown tags are left to the parser; palsgd_theory drops what it pins and derives
        rows = sweep(parse(quad_cfg()), {"algo.variant": [["ddp"], "sgd", "palsgd_theory"]})
        assert [r["status"] for r in rows] == ["error", "error", "ok"]

    @pytest.mark.parametrize("param, values", [
        ("algo.variant", ["ddp", "local_sgd", "diloco", "palsgd", "palsgd_theory"]),
        ("algo.inner.variant", ["sgd", "sgd_momentum", "adamw"]),
        ("algo.outer.variant", ["sgd", "nesterov"]),
        ("workload.kind", ["quadratic", "logistic", "mlp"])])
    def test_selector_cells_drop_the_keys_their_run_does_not_read(self, tmp_path, param, values):
        rows = sweep(parse(quad_cfg()), {param: values}, out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok"] * len(values)
        for i, value in enumerate(values):
            cell = json.loads((tmp_path / str(i) / "config.json").read_text())
            assert parse(cell).normalized() == cell
        if param == "algo.variant":  # ddp drops what palsgd reads and it does not
            ddp = json.loads((tmp_path / "0" / "config.json").read_text())
            assert "outer" not in ddp["algo"]
            assert not {"eta", "p", "sync_interval"} & set(ddp["schedule"])
        if param == "workload.kind":  # the mlp drops the quadratic's keys and keeps its dim
            mlp = json.loads((tmp_path / "2" / "config.json").read_text())["workload"]
            assert not {"mu", "L", "hessian_diag", "x_star"} & set(mlp) and mlp["dim"] == 4

    # from the d = 4 quadratic base and from the default mlp base, each cell
    # changes the model's shape
    @pytest.mark.parametrize("workload, param, values", [
        ({}, "workload.dim", [4, 8]),
        ({}, "workload.L", [2.0, 8.0]),
        ({}, "workload.mu", [0.5, 2.0]),
        ({}, "workload.hessian_diag", [[1.0, 2.0, 3.0], [1.0] * 6]),
        ({"kind": "mlp"}, "workload.dim", [16, 8]),
        ({"kind": "mlp"}, "workload.classes", [10, 4]),
        ({"kind": "mlp"}, "workload.widths", [[16, 8, 10], [5, 3]])],
        ids=["quad-dim", "quad-L", "quad-mu", "quad-hessian_diag", "mlp-dim", "mlp-classes",
             "mlp-widths"])
    def test_cells_that_change_the_workload_shape(self, tmp_path, workload, param, values):
        base = quad_cfg()
        if workload:
            base["workload"] = workload
        rows = sweep(parse(base), {param: values}, out_dir=str(tmp_path))
        assert [r["status"] for r in rows] == ["ok"] * len(values)
        for i, value in enumerate(values):
            cell = json.loads((tmp_path / str(i) / "config.json").read_text())
            assert parse(cell).normalized() == cell
            assert cell["workload"][param.split(".")[1]] == value

    def test_ddp_base_swept_to_palsgd_mixes_at_the_default_p(self, tmp_path):
        base = parse({"workload": {"kind": "quadratic", "dim": 4}, "algo": {"variant": "ddp"},
                      "schedule": {"total_steps": 32}, "workers": 2})
        rows = sweep(base, {"algo.variant": ["palsgd"]}, out_dir=str(tmp_path))
        assert rows[0]["status"] == "ok"
        assert json.loads((tmp_path / "0" / "config.json").read_text())["schedule"]["p"] == 0.05

    @pytest.mark.parametrize("param, value, field", [
        ("schedule.eta", 0.25, "schedule.eta"), ("algo.outer.lr", 0.5, "algo.outer"),
        ("eval_every", 4, "eval_every")])
    def test_cell_whose_run_does_not_read_the_swept_key_is_an_error(self, tmp_path, param, value,
                                                                    field):
        base = parse({"workload": {"kind": "quadratic", "dim": 4}, "algo": {"variant": "ddp"},
                      "schedule": {"total_steps": 32}, "workers": 2})
        rows = sweep(base, {param: [value]}, out_dir=str(tmp_path))
        assert rows[0]["status"] == "error"
        reason = (tmp_path / "0" / "error.txt").read_text()
        assert reason.startswith(f"config field '{field}'") and "read" in reason

    def test_time_decreases_with_larger_sync_interval(self, tmp_path):
        cfg = parse(quad_cfg(schedule={"total_steps": 128}))
        rows = sweep(cfg, {"schedule.sync_interval": [4, 8, 16, 32]})
        times = [row["sim_time_s"] for row in rows]
        assert all(a > b for a, b in zip(times, times[1:]))


class TestVerifyTheory:
    def base(self, x0_offset=0.05):
        return parse({
            "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 2.0,
                         "noise_sigma": 1.0, "x0_offset": x0_offset},
            "algo": {"variant": "palsgd_theory"},
            "schedule": {"p": 0.5, "sync_interval": 4, "total_steps": 600},
            "workers": 2, "seed": 100})

    def test_report_structure_and_oracle(self, tmp_path):
        report = verify_theory(self.base(), out_dir=str(tmp_path),
                               k_values=(1, 2, 4), n_seeds=4, h_values=(2, 4),
                               h_probe_steps=128)
        assert set(report["k_mean_suboptimality"]) == {"1", "2", "4"}
        assert report["k1_oracle"]["pass"], report["k1_oracle"]
        assert (tmp_path / "theory_report.json").exists()
        # the initial offset's bias term dominates at this fixture, so the
        # predicted K-slope is near 0 and the measured one is seed noise
        assert report["inconclusive"] == ["k_slope"], report["k_predicted_slope"]
        assert report["k_slope_pass"] is None
        assert report["k1_oracle"]["oracle_se"] == 0.0
        other = self.base()
        other.seed = 7
        elsewhere = verify_theory(other, k_values=(1, 2), n_seeds=3, h_values=(2,),
                                  h_probe_steps=32)
        assert elsewhere["k1_oracle"]["oracle_mean"] == report["k1_oracle"]["oracle_mean"]

    @pytest.mark.parametrize("k_values", [(1, 2), (2, 4)])
    def test_one_oracle_call_gives_the_bias_and_the_k1_mean(self, monkeypatch, k_values):
        noise_levels = []

        def counted(a, z0, noise_sigma, schedule):
            noise_levels.append(noise_sigma)
            return k1_scalar_oracle(a, z0, noise_sigma, schedule)

        monkeypatch.setattr(experiments, "k1_scalar_oracle", counted)
        cfg = self.base()
        report = verify_theory(cfg, k_values=k_values, n_seeds=3, h_values=(2,),
                               h_probe_steps=16)
        workload = cfg.workload_object()
        at_min = copy.copy(cfg)
        at_min.workers = min(k_values)
        args = (workload.hessian_diag, workload.x0 - workload.x_star)
        schedule = at_min.build_schedule(workload)
        assert len(noise_levels) == 1
        assert report["k_bias"] == k1_scalar_oracle(*args, 0.0, schedule)
        if 1 in k_values:
            assert (report["k1_oracle"]["oracle_mean"]
                    == k1_scalar_oracle(*args, workload.noise_sigma, schedule))
        else:
            assert "k1_oracle" not in report

    def test_more_workers_less_error_when_noise_dominates(self):
        # a small offset leaves the 1/K noise term dominant, at one alpha for every K
        report = verify_theory(self.base(x0_offset=1e-4), k_values=(1, 2, 4), n_seeds=4,
                               h_values=(2,), h_probe_steps=32)
        assert report["inconclusive"] == [], report["k_predicted_slope"]
        assert len(set(report["k_alpha"].values())) == 1
        assert report["k_slope"] < 0  # more workers, less error

    def test_report_equals_the_per_seed_reference(self, tmp_path, monkeypatch):
        # the batched cells against one run per seed, as the suite ran them
        # before the replica axis, with the suboptimality taken as np.dot
        def per_seed(cfg, workers, seeds):
            run = copy.deepcopy(cfg)
            run.workers = workers
            out = []
            for seed in seeds:
                workload = run.build_workload()
                schedule = run.build_schedule(workload)
                result = run_training(workload, make_variant("palsgd_theory"), schedule,
                                      run.build_cluster(), seed,
                                      record_every=max(1, schedule.total_steps // 10))
                assert not result.diverged
                d = result.weighted_average - workload.x_star
                out.append(0.5 * float(np.dot(d * workload.hessian_diag, d)))
            return out

        kw = dict(k_values=(1, 2, 4), n_seeds=4, h_values=(2, 4), h_probe_steps=128)
        verify_theory(self.base(), out_dir=str(tmp_path / "batched"), **kw)
        monkeypatch.setattr(experiments, "weighted_average_suboptimality", per_seed)
        verify_theory(self.base(), out_dir=str(tmp_path / "per_seed"), **kw)
        batched = (tmp_path / "batched" / "theory_report.json").read_bytes()
        assert batched == (tmp_path / "per_seed" / "theory_report.json").read_bytes()

    def test_diverged_replica_names_its_seed(self, monkeypatch):
        def second_replica_diverges(*args, **kwargs):
            result = run_training(*args, **kwargs)
            result.divergence = DivergenceReport(step=3, worker=0, last_record=0, replica=1)
            return result

        monkeypatch.setattr(experiments, "run_training", second_replica_diverges)
        with pytest.raises(RuntimeError, match=r"workers=1, seed=101\)"):
            verify_theory(self.base(), k_values=(1, 2), n_seeds=3, h_values=(2,),
                          h_probe_steps=32)

    def test_refuses_insufficient_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            verify_theory(self.base(), n_seeds=2)

    @pytest.mark.parametrize("k_values", [(1,), (2, 2), (0, 1), (1, 1, 2), (1, 2, 4, 2)])
    def test_refuses_unfittable_worker_counts(self, k_values):
        with pytest.raises(ConfigError, match="k_values"):
            verify_theory(self.base(), k_values=k_values, n_seeds=3)

    @pytest.mark.parametrize("h_values", [(2, 2), (2, 4, 2)])
    def test_refuses_repeated_sync_intervals(self, h_values):
        with pytest.raises(ConfigError, match="h_values.*twice"):
            verify_theory(self.base(), k_values=(1, 2), n_seeds=3, h_values=h_values)

    @pytest.mark.parametrize("kwargs", [{"h_values": (0, 2)}, {"h_values": (2, -1)},
                                        {"h_probe_steps": 0}])
    def test_refuses_sync_probes_below_one(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            verify_theory(self.base(), k_values=(1, 2), n_seeds=3, **kwargs)

    def test_requires_theory_variant(self):
        # a palsgd config has no theory step sizes and no weighted average
        with pytest.raises(ConfigError, match="palsgd_theory"):
            verify_theory(parse(quad_cfg()), k_values=(1, 2), n_seeds=3)

    def test_requires_quadratic(self):
        cfg = parse({"workload": {"kind": "mlp"}, "algo": {"variant": "diloco"}})
        with pytest.raises(ConfigError, match="quadratic"):
            verify_theory(cfg)

    def test_slope_fit(self):
        assert fit_loglog_slope([1, 2, 4], [1.0, 0.5, 0.25]) == pytest.approx(-1.0)


def path_suboptimality(a, z0, schedule, mixes):
    """One run of the single-worker theory-mode recursion with its coin flips
    given: the worker mixes at step t when mixes[t] is true. Warmup steps are
    DDP steps, each one a sync, and ignore their flag."""
    h, total = schedule.sync_interval, schedule.total_steps
    warmup = min(schedule.effective_warmup, total)
    beta = schedule.alpha_eta / schedule.p
    z = z0.copy()
    global_z = z.copy()
    xhat = np.zeros_like(z)
    w, total_w = 1.0, 0.0
    for t in range(total):
        total_w += w
        xhat += (w / total_w) * (global_z - xhat)
        w *= schedule.iterate_weight_growth
        if t < warmup:
            z = z - schedule.alpha_at(t) * a * z
        elif mixes[t]:
            z = z - beta * (z - global_z)
        else:
            z = z - schedule.alpha_at(t) / (1.0 - schedule.p) * a * z
        if t < warmup or (t + 1) % h == 0 or t == total - 1:
            global_z = z.copy()
    return 0.5 * float(np.sum(a * xhat * xhat))


class TestK1Oracle:
    def k1_cell(self, warmup_steps=0):
        # the TestVerifyTheory fixture at K = 1
        cfg = parse({
            "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 2.0,
                         "noise_sigma": 1.0, "x0_offset": 0.05},
            "algo": {"variant": "palsgd_theory"},
            "schedule": {"p": 0.5, "sync_interval": 4, "total_steps": 600,
                         "warmup_steps": warmup_steps},
            "workers": 1, "seed": 100})
        workload = cfg.workload_object()
        exact = k1_scalar_oracle(workload.hessian_diag, workload.x0 - workload.x_star,
                                 workload.noise_sigma, cfg.build_schedule(workload))
        return cfg, exact

    def trainer_mean_and_se(self, cfg, n_seeds=100):
        vals = np.asarray(weighted_average_suboptimality(
            cfg, 1, [cfg.seed + s for s in range(n_seeds)]))
        return vals.mean(), vals.std(ddof=1) / np.sqrt(n_seeds)

    @pytest.mark.parametrize("warmup_steps", [0, 3])
    def test_noiseless_value_is_the_mean_over_every_coin_sequence(self, warmup_steps):
        # T = 8 at H = 3 closes on a partial window; warmup 3 is one DDP window
        a = np.array([0.5, 1.0, 2.0])
        z0 = np.array([1.0, -0.7, 0.3])
        schedule = Schedule(alpha=0.2, p=0.3, sync_interval=3, total_steps=8,
                            warmup_steps=warmup_steps, alpha_eta=0.1,
                            iterate_weight_growth=1.25)
        free = range(schedule.effective_warmup, schedule.total_steps)
        brute = 0.0
        for flags in itertools.product((False, True), repeat=len(free)):
            mixes = dict(zip(free, flags))
            prob = math.prod(schedule.p if f else 1.0 - schedule.p for f in flags)
            brute += prob * path_suboptimality(a, z0, schedule, mixes)
        assert k1_scalar_oracle(a, z0, 0.0, schedule) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 4, 64])
    @pytest.mark.parametrize("warmup_steps", [0, 16])
    @pytest.mark.parametrize("lr_schedule", ["constant", "warmup_cosine"])
    def test_noise_levels_stack_bit_for_bit(self, dim, warmup_steps, lr_schedule):
        # one recursion with a leading noise axis against one call per level
        rng = np.random.default_rng(dim)
        a = rng.uniform(0.5, 2.0, size=dim)
        z0 = rng.normal(size=dim)
        schedule = Schedule(alpha=0.01, p=0.5, sync_interval=4, total_steps=90,
                            warmup_steps=warmup_steps, lr_schedule=lr_schedule,
                            lr_warmup_steps=10, alpha_eta=0.0625,
                            iterate_weight_growth=1.01)
        sigma = 0.7
        alone = [k1_scalar_oracle(a, z0, s, schedule) for s in (0.0, sigma, 2 * sigma)]
        assert all(type(value) is float for value in alone)
        stacked = k1_scalar_oracle(a, z0, [0.0, sigma, 2 * sigma], schedule)
        assert [v.hex() for v in stacked] == [v.hex() for v in alone]
        assert len(set(alone)) == 3

    @pytest.mark.parametrize("warmup_steps", [0, 64])
    def test_trainer_mean_matches_the_exact_value(self, warmup_steps):
        cfg, exact = self.k1_cell(warmup_steps)
        mean, se = self.trainer_mean_and_se(cfg)
        assert abs(mean - exact) <= 4.0 * se, (mean, se, exact)

    def test_a_larger_inner_step_moves_the_trainer_mean_away(self, monkeypatch):
        cfg, exact = self.k1_cell()
        inner_step = algorithms.inner_step

        def scaled(state, x, g, lr, mask):
            return inner_step(state, x, g, 1.5 * lr, mask)

        monkeypatch.setattr(algorithms, "inner_step", scaled)
        mean, se = self.trainer_mean_and_se(cfg)
        assert abs(mean - exact) > 6.0 * se, (mean, se, exact)

    @pytest.mark.parametrize("total, growth", [(700, 2.0), (40, 1e6)])
    def test_weights_past_1e200_are_rescaled_in_the_trainer_and_the_oracle(self, total, growth):
        # every step is a deterministic warmup step of a noiseless worker, so
        # the oracle's value is the run's exactly; without the rescale the
        # weights pass 1e200 and the two drift apart by percents
        assert total * math.log10(growth) > 200
        diag, x0 = np.array([1.0, 2.0]), np.array([0.3, -0.2])
        workload = QuadraticWorkload(diag, np.zeros(2), 0.0, x0=x0)
        schedule = Schedule(alpha=1e-3, eta=0.5, p=0.25, sync_interval=4, total_steps=total,
                            warmup_steps=total, alpha_eta=5e-4, iterate_weight_growth=growth)
        result = run_training(workload, make_variant("palsgd_theory"), schedule,
                              ClusterSpec(workers=1), seed=0)
        got = workload.suboptimality(result.weighted_average)
        assert got == pytest.approx(k1_scalar_oracle(diag, x0, 0.0, schedule), rel=1e-12)


class TestGradcheck:
    def test_default_workloads_pass(self):
        report = gradcheck(probes=5)
        assert report["pass"], report
        assert report["logistic"]["max_relative_error"] < 1e-4
        assert report["mlp"]["max_relative_error"] < 1e-4


class TestCli:
    def write_cfg(self, tmp_path, overrides=None):
        cfg = quad_cfg(**(overrides or {}))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_exit_zero_and_prints_summary(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        code = main(["run", path, "--out-dir", str(tmp_path / "out")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["diverged"] is False
        assert (tmp_path / "out" / "metrics.jsonl").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_run_exit_three_on_divergence(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, {"schedule": {"alpha": 1e9}})
        code = main(["run", path])
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        assert out["diverged"] is True and "diverged_at_step" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schedule": {"p": 2.0}}))
        assert main(["run", str(path)]) == 2
        assert "schedule.p" in capsys.readouterr().err

    # each key can not act on its run: the ten of the first audit, then
    # eta without mixing, reset_at_sync with no state to reset, and an
    # adamw moment under sgd_momentum
    @pytest.mark.parametrize("key, cfg", [
        ("algo.inner.momentum", {"algo": {"inner": {"variant": "adamw", "momentum": 0.5}}}),
        ("algo.inner.beta1", {"algo": {"inner": {"variant": "sgd", "beta1": 0.5}}}),
        ("algo.outer.momentum", {"algo": {"outer": {"variant": "sgd", "momentum": 0.5}}}),
        ("schedule.eta", {"algo": {"variant": "ddp"}, "schedule": {"eta": 0.25}}),
        ("schedule.sync_interval", {"algo": {"variant": "ddp"}, "schedule": {"sync_interval": 7}}),
        ("schedule.warmup_steps", {"algo": {"variant": "ddp"}, "schedule": {"warmup_steps": 4}}),
        ("schedule.lr_warmup_steps", {"schedule": {"lr_schedule": "constant",
                                                   "lr_warmup_steps": 5}}),
        ("cluster.mixing_cost_fraction", {"algo": {"variant": "ddp"},
                                          "cluster": {"mixing_cost_fraction": 0.5}}),
        ("eval_every", {"workload": {"kind": "quadratic"}, "eval_every": 4}),
        ("eval_every", {"workload": {"kind": "mlp", "widths": [4, 8, 3], "samples_per_class": 10,
                                     "test_samples_per_class": 0}, "eval_every": 4}),
        ("schedule.eta", {"algo": {"variant": "local_sgd"}, "schedule": {"eta": 0.25}}),
        ("schedule.eta", {"algo": {"variant": "diloco"}, "schedule": {"eta": 0.25}}),
        ("algo.inner.reset_at_sync", {"algo": {"inner": {"variant": "sgd", "reset_at_sync": True}}}),
        ("algo.inner.reset_at_sync", {"algo": {"variant": "ddp",
                                               "inner": {"variant": "sgd_momentum",
                                                         "reset_at_sync": True}}}),
        ("algo.inner.beta1", {"algo": {"inner": {"variant": "sgd_momentum", "beta1": 0.5}}}),
        ("workload.mu", {"workload": {"hessian_diag": [1.0, 2.0], "mu": 1.0}}),
        ("workload.dim", {"workload": {"hessian_diag": [1.0, 2.0], "dim": 2}}),
        ("workload.classes", {"workload": {"kind": "mlp", "widths": [4, 8, 3], "classes": 3,
                                           "samples_per_class": 10}}),
        ("workload.noise_sigma", {"workload": {"kind": "logistic", "noise_sigma": 1.0}}),
        ("workload.n_samples", {"workload": {"kind": "mlp", "widths": [4, 8, 3],
                                             "samples_per_class": 10, "n_samples": 20}}),
    ])
    def test_key_its_run_does_not_read_exits_two(self, tmp_path, capsys, key, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cfg, "schedule": {"total_steps": 8, **cfg.get("schedule", {})}}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{key}'" in err and "read" in err

    def test_empty_hessian_diag_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workload": {"kind": "quadratic", "hessian_diag": []}}))
        assert main(["run", str(path)]) == 2
        assert "config field 'workload.hessian_diag': expected a non-empty list" in capsys.readouterr().err

    @pytest.mark.parametrize("workload, samples", [
        ({"kind": "logistic", "n_samples": 4}, 4),
        ({"kind": "mlp", "widths": [3, 4, 2], "samples_per_class": 1}, 2)])
    def test_more_workers_than_samples_exit_two(self, workload, samples, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workload": workload, "algo": {"variant": "ddp"},
                                    "schedule": {"total_steps": 4}, "workers": 8}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'workers'" in err and f"8 workers but only {samples} training samples" in err

    def test_seed_override_changes_output(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        main(["run", path, "--seed", "1"])
        first = json.loads(capsys.readouterr().out)
        main(["run", path, "--seed", "2"])
        second = json.loads(capsys.readouterr().out)
        assert first["final_loss"] != second["final_loss"]

    def test_sweep_command(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"schedule.sync_interval": [4, 8]}))
        code = main(["sweep", path, "--grid", str(grid),
                     "--out-dir", str(tmp_path / "sweep")])
        assert code == 0
        assert (tmp_path / "sweep" / "sweep.csv").exists()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and all("status=ok " in line for line in lines)

    @pytest.mark.parametrize("grid", ['{"schedule.p": []}', '["schedule.p"]', '{"schedule.p": 0.1}',
                                      '{"schedule.p": [0.1', None,
                                      '{"schedule.sync_interval": [4, 8, 4]}'],
                             ids=["empty-list", "json-list", "scalar", "invalid-json", "missing",
                                  "repeated-value"])
    def test_malformed_grid_exits_two(self, tmp_path, capsys, grid):
        path = self.write_cfg(tmp_path)
        grid_path = tmp_path / "grid.json"
        if grid is not None:
            grid_path.write_text(grid)
        assert main(["sweep", path, "--grid", str(grid_path)]) == 2
        assert "config field 'grid'" in capsys.readouterr().err

    def test_gradcheck_command(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["gradcheck", path]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_gradcheck_passes_on_a_float32_mlp(self, tmp_path, capsys):
        # checked through its float64 twin; the float32 gradient stays close to the twin's
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workload": {"kind": "mlp", "widths": [6, 9, 5],
                                                 "samples_per_class": 12, "dtype": "float32"}}))
        assert main(["gradcheck", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)["mlp"]
        assert report["max_relative_error"] < 1e-4
        assert 0.0 < report["float64_gap"] <= experiments.FLOAT32_GAP

    def test_gradcheck_passes_on_a_float64_relu_mlp(self, tmp_path, capsys):
        # a fixed 1e-6 floor exited 4 here: an entry of 1.9e-9 differed from its
        # central difference by 2.7e-10, the rounding error of eps * |f(x)| / step
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workload": {"kind": "mlp", "activation": "relu"}}))
        assert main(["gradcheck", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)["mlp"]
        assert report["pass"] and report["max_relative_error"] < experiments.GRADCHECK_RTOL

    @pytest.mark.parametrize("command, flag", [
        ("gradcheck", "--seed"), ("gradcheck", "--out-dir"), ("gradcheck", "--metrics-every"),
        ("verify-theory", "--metrics-every")])
    def test_flag_the_command_ignores_exits_two(self, tmp_path, capsys, command, flag):
        path = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, path, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_metrics_every_below_one_exits_two(self, tmp_path, capsys, command, every):
        path = self.write_cfg(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"schedule.sync_interval": [4]}))
        extra = ["--grid", str(grid)] if command == "sweep" else []
        out = tmp_path / "out"
        assert main([command, path, "--metrics-every", every, "--out-dir", str(out)] + extra) == 2
        assert "metrics_every" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, overrides", [
        ("cluster.jitter", {"cluster": {"jitter": math.nan}}),  # ran with the jitter off
        ("schedule.alpha", {"schedule": {"alpha": 10 ** 400}})])  # an OverflowError traceback
    def test_a_non_finite_or_overflowing_number_exits_two(self, tmp_path, capsys, key, overrides):
        assert main(["run", self.write_cfg(tmp_path, overrides)]) == 2
        assert f"config field '{key}': must be a finite number" in capsys.readouterr().err

    def test_a_top_level_key_is_named_alike_in_the_file_and_by_its_flag(self, tmp_path, capsys):
        assert main(["run", self.write_cfg(tmp_path, {"metrics_every": 0})]) == 2
        in_file = capsys.readouterr().err
        assert main(["run", self.write_cfg(tmp_path), "--metrics-every", "0"]) == 2
        by_flag = capsys.readouterr().err
        assert by_flag == in_file == "error: config field 'metrics_every': must be >= 1, got 0\n"

    def test_verify_theory_command(self, tmp_path, capsys):
        cfg = {
            "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 2.0,
                         "x0_offset": 0.05},
            "algo": {"variant": "palsgd_theory"},
            "schedule": {"p": 0.5, "sync_interval": 4, "total_steps": 400},
            "workers": 2, "seed": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify-theory", str(path), "--seeds", "3", "--k-values", "1,2"])
        assert code in (0, 4)
        report = json.loads(capsys.readouterr().out)
        assert "k_slope" in report

    def test_verify_theory_single_worker_count_exits_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["verify-theory", path, "--k-values", "1"]) == 2
        assert "k_values" in capsys.readouterr().err

    def test_verify_theory_repeated_worker_count_exits_two(self, tmp_path, capsys):
        # a repeated K would run its cell twice and weigh it twice in the slope fit
        path = self.write_cfg(tmp_path)
        assert main(["verify-theory", path, "--k-values", "1,1,2"]) == 2
        err = capsys.readouterr().err
        assert "k_values" in err and "twice" in err

    @pytest.mark.parametrize("k_values", ["a,b", "1,2.5", "1,,2"])
    def test_verify_theory_non_integer_worker_counts_exit_two(self, tmp_path, capsys, k_values):
        path = self.write_cfg(tmp_path)
        assert main(["verify-theory", path, "--k-values", k_values]) == 2
        assert "k_values" in capsys.readouterr().err


def test_flagless_verify_theory_reports_what_verify_theory_defaults_to(tmp_path, capsys):
    cfg = {"workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 2.0, "x0_offset": 0.05},
           "algo": {"variant": "palsgd_theory"},
           "schedule": {"p": 0.5, "sync_interval": 4, "total_steps": 64},
           "workers": 2, "seed": 3}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify-theory", str(path)]) in (0, 4)
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(json.dumps(verify_theory(parse(cfg))))
    assert report["k_values"] == [1, 2, 4, 8] and report["n_seeds"] == 10
