import copy
import csv
import json

import numpy as np
import pytest

from palsgd import experiments
from palsgd.algorithms import DivergenceReport, make_variant, run_training
from palsgd.cli import main
from palsgd.config import ConfigError, RunConfig, parse_config
from palsgd.experiments import (SWEEP_CSV_HEADER, fit_loglog_slope, gradcheck,
                                k1_scalar_oracle, run_experiment, sweep,
                                verify_theory)


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
        _, result = run_experiment(parse({
            "workload": {"kind": "mlp", "widths": [8, 16, 3], "samples_per_class": 10,
                         "test_samples_per_class": 0},
            "schedule": {"p": 0.1, "sync_interval": 8, "total_steps": 24},
            "workers": 2, "eval_every": 5}))
        recs = result.diagnostics.records
        assert [r.step for r in recs] == [7, 15, 23]
        assert all(r.eval_loss is None and r.eval_acc is None for r in recs)


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
            result.divergence = DivergenceReport(step=3, worker=0, last_record=None, replica=1)
            return result

        monkeypatch.setattr(experiments, "run_training", second_replica_diverges)
        with pytest.raises(RuntimeError, match=r"workers=1, seed=101\)"):
            verify_theory(self.base(), k_values=(1, 2), n_seeds=3, h_values=(2,),
                          h_probe_steps=32)

    def test_refuses_insufficient_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            verify_theory(self.base(), n_seeds=2)

    @pytest.mark.parametrize("k_values", [(1,), (2, 2), (0, 1)])
    def test_refuses_unfittable_worker_counts(self, k_values):
        with pytest.raises(ConfigError, match="k_values"):
            verify_theory(self.base(), k_values=k_values, n_seeds=3)

    def test_requires_theory_variant(self):
        # a palsgd config has no theory step sizes and no weighted average
        with pytest.raises(ConfigError, match="palsgd_theory"):
            verify_theory(parse(quad_cfg()), k_values=(1, 2), n_seeds=3)

    def test_requires_quadratic(self):
        cfg = parse({"workload": {"kind": "mlp"}, "schedule": {"p": 0.0},
                     "algo": {"variant": "diloco"}})
        with pytest.raises(ConfigError, match="quadratic"):
            verify_theory(cfg)

    def test_slope_fit(self):
        assert fit_loglog_slope([1, 2, 4], [1.0, 0.5, 0.25]) == pytest.approx(-1.0)


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

    @pytest.mark.parametrize("k_values", ["a,b", "1,2.5", "1,,2"])
    def test_verify_theory_non_integer_worker_counts_exit_two(self, tmp_path, capsys, k_values):
        path = self.write_cfg(tmp_path)
        assert main(["verify-theory", path, "--k-values", k_values]) == 2
        assert "k_values" in capsys.readouterr().err
