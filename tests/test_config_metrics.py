import json

import numpy as np
import pytest

from palsgd.algorithms import VARIANTS, Diagnostics, Schedule
from palsgd.cluster import AllReduceModel, ClusterSpec, export_events_jsonl
from palsgd.config import KEYS, ConfigError, parse_config
from palsgd.fields import specs
from palsgd.optimizers import InnerOptConfig, OuterOptConfig
from palsgd.metrics import RECORD_SCHEMA, summarize, write_metrics_jsonl
from record_columns import FLOAT_FIELDS, INT_FIELDS, reference_metrics_text, replica_columns


def parse(obj):
    return parse_config(json.dumps(obj))


def lookup(tree: dict, dotted: str):
    """The value at a dotted path of a config tree, or None."""
    for key in dotted.split("."):
        tree = tree.get(key) if isinstance(tree, dict) else None
    return tree


def read_metrics_jsonl(path) -> list[dict]:
    """The parsed lines of a metrics.jsonl, each of the current schema."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert all(obj["schema"] == RECORD_SCHEMA for obj in lines)
    return lines


class TestParsing:
    def test_minimal_quadratic_fills_defaults(self):
        cfg = parse({"workload": {"kind": "quadratic"}})
        norm = cfg.normalized()
        assert norm["schedule"]["p"] == 0.05  # palsgd default mixing probability
        assert norm["algo"]["variant"] == "palsgd"
        assert norm["workload"]["dim"] == 16
        assert norm["workers"] == 8
        assert norm["cluster"]["allreduce"] == {"latency_s": 1e-3, "bandwidth_bytes_per_s": 1e9}

    @pytest.mark.parametrize("variant, workload, unread", [
        *((v, {}, ()) for v in ("ddp", "local_sgd", "diloco", "palsgd", "palsgd_theory")),
        ("palsgd", {"kind": "logistic"}, ("mu", "L", "noise_sigma", "x_star", "widths")),
        ("palsgd", {"kind": "mlp"}, ("mu", "L", "x0_offset", "n_samples", "l2_reg")),
        ("palsgd", {"kind": "mlp", "widths": [4, 8, 3]}, ("dim", "classes")),
        ("palsgd", {"kind": "quadratic", "hessian_diag": [1.0, 2.0]}, ("dim", "mu", "L"))],
        ids=["ddp", "local_sgd", "diloco", "palsgd", "palsgd_theory", "logistic", "mlp",
             "mlp-widths", "quadratic-hessian_diag"])
    def test_normalized_dump_reparses_to_itself(self, variant, workload, unread):
        norm = parse({"algo": {"variant": variant}, "workload": workload}).normalized()
        assert parse(norm).normalized() == norm
        # and holds only keys the run reads
        assert not [path for path in VARIANTS[variant].unread if lookup(norm, path) is not None]
        assert not set(unread) & set(norm["workload"])
        for name, cls in (("inner", InnerOptConfig), ("outer", OuterOptConfig)):
            section = norm["algo"].get(name, {})
            for key, spec in specs(cls).items():
                if section and spec.read_when:
                    assert (key in section) == (section["variant"] in spec.read_when), key
        assert "lr_warmup_steps" not in norm["schedule"]  # under a constant lr schedule
        # the quadratic and the logistic have no evaluation set
        assert ("eval_every" in norm) == (norm["workload"]["kind"] == "mlp")

    def test_variant_rules_name_real_keys(self):
        # a typo in the table would leave the key it meant accepted; each
        # path is a key that palsgd reads, and given to its variant it is
        # rejected by name
        full = parse({"schedule": {"lr_schedule": "warmup_cosine", "lr_warmup_steps": 4}}).normalized()
        for variant, rules in VARIANTS.items():
            for path in rules.unread:
                assert path in KEYS and lookup(full, path) is not None, path
                tree: dict = {"algo": {"variant": variant}}
                *sections, key = path.split(".")
                node = tree
                for section in sections:
                    node = node.setdefault(section, {})
                node[key] = lookup(full, path)
                with pytest.raises(ConfigError, match=f"variant '{variant}'") as exc:
                    parse(tree)
                assert exc.value.field == path

    @pytest.mark.parametrize("version", [99, "x", True, 1.0, None])
    def test_schema_version_other_than_the_current_rejected(self, version):
        with pytest.raises(ConfigError) as exc:
            parse({"schema_version": version})
        assert exc.value.field == "schema_version"
        assert parse({"schema_version": 1}).normalized()["schema_version"] == 1

    def test_partial_optimizer_sections_keep_the_preset(self):
        cfg = parse({"algo": {"variant": "palsgd", "inner": {"weight_decay": 0.1},
                              "outer": {"lr": 0.3}}})
        variant = cfg.build_variant()
        assert variant.inner == InnerOptConfig(variant="adamw", clip_norm=1.0, weight_decay=0.1)
        assert variant.outer == OuterOptConfig(variant="nesterov", lr=0.3, momentum=0.9)
        # the echo shows the optimizers that run
        assert cfg.normalized()["algo"]["inner"]["clip_norm"] == 1.0
        assert cfg.normalized()["algo"]["outer"]["variant"] == "nesterov"

    @pytest.mark.parametrize("variant", ["ddp", "local_sgd"])
    def test_fixed_outer_section_rejected(self, variant):
        with pytest.raises(ConfigError, match=r"algo\.outer.*fixes"):
            parse({"algo": {"variant": variant, "outer": {"variant": "nesterov", "lr": 0.3}}})
        assert "outer" not in parse({"algo": {"variant": variant}}).normalized()["algo"]

    def test_p_out_of_range_names_field_and_rule(self):
        with pytest.raises(ConfigError, match=r"schedule\.p.*\[0, 1\)"):
            parse({"schedule": {"p": 1.2}})

    def test_theory_p_bound_cited(self):
        with pytest.raises(ConfigError, match=r"schedule\.p.*0\.5"):
            parse({"algo": {"variant": "palsgd_theory"}, "schedule": {"p": 0.6}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*typo_key"):
            parse({"typo_key": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="workload.*unknown keys"):
            parse({"workload": {"kind": "quadratic", "noise": 1.0}})
        with pytest.raises(ConfigError, match="schedule.*unknown keys"):
            parse({"schedule": {"alpha_t": 0.1}})
        with pytest.raises(ConfigError, match="cluster.allreduce.*unknown keys.*algorithm"):
            parse({"cluster": {"allreduce": {"algorithm": "ring"}}})

    def test_non_mixing_variant_rejects_positive_p(self):
        with pytest.raises(ConfigError, match=r"schedule\.p.*'diloco' fixes it or never reads it"):
            parse({"algo": {"variant": "diloco"}, "schedule": {"p": 0.1}})

    def test_theory_mode_requires_quadratic(self):
        with pytest.raises(ConfigError, match="quadratic"):
            parse({"algo": {"variant": "palsgd_theory"},
                   "workload": {"kind": "mlp"}, "schedule": {"p": 0.25}})

    def test_theory_mode_rejects_manual_alpha(self):
        with pytest.raises(ConfigError, match="theory"):
            parse({"algo": {"variant": "palsgd_theory"},
                   "schedule": {"p": 0.25, "alpha": 0.1}})

    def test_theory_mode_rejects_optimizer_overrides(self):
        with pytest.raises(ConfigError, match="palsgd_theory"):
            parse({"algo": {"variant": "palsgd_theory", "inner": {"variant": "adamw"}},
                   "schedule": {"p": 0.25}})

    def test_spectrum_from_mu_and_l(self):
        cfg = parse({"workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 4.0}})
        w = cfg.build_workload()
        assert w.mu == 1.0 and w.smoothness == 4.0

    def test_explicit_hessian_diag(self):
        cfg = parse({"workload": {"kind": "quadratic", "hessian_diag": [1.0, 2.0, 3.0]}})
        assert cfg.build_workload().dim == 3

    @pytest.mark.parametrize("section", [
        {}, {"dim": 5, "mu": 0.3, "L": 7.1},
        {"dim": 3, "mu": 2.0, "L": 2.0, "x_star": -0.0, "x0_offset": -0.0},
        {"dim": 3, "x_star": [-0.0, 1.5, -2.25], "x0_offset": 0.1},
        {"hessian_diag": [0.5, 3.0, 1e-3], "x_star": 0.7, "x0_offset": [-1.0, 0.0, -0.0]}])
    def test_quadratic_build_matches_the_expanded_section(self, section):
        # the expansion the parser stored in the section before the build derived it
        w = parse({"workload": {"kind": "quadratic", **section}}).normalized()["workload"]
        diag = w["hessian_diag"] or np.linspace(w["mu"], w["L"], w["dim"]).tolist()
        vectors = {key: w[key] if isinstance(w[key], list) else [w[key]] * len(diag)
                   for key in ("x_star", "x0_offset")}
        x_star = np.asarray(vectors["x_star"], dtype=np.float64)
        expected = {"hessian_diag": np.asarray(diag, dtype=np.float64), "x_star": x_star,
                    "x0": x_star + np.asarray(vectors["x0_offset"], dtype=np.float64)}
        built = parse({"workload": {"kind": "quadratic", **section}}).build_workload()
        for name, reference in expected.items():
            array = getattr(built, name)
            assert array.dtype == np.float64 and array.tobytes() == reference.tobytes(), name
            assert array.flags.writeable, name

    def test_mlp_build_derives_the_default_widths(self):
        cfg = parse({"workload": {"kind": "mlp", "dim": 5, "classes": 3, "samples_per_class": 4}})
        assert cfg.normalized()["workload"]["widths"] is None
        built = cfg.build_workload()
        assert built.widths == [5, 32, 3]
        assert built.train.features.shape[1] == 5 and built.train.n_classes == 3

    def test_worker_multipliers_length_checked(self):
        with pytest.raises(ConfigError, match="worker_multipliers"):
            parse({"workers": 4, "cluster": {"worker_multipliers": [1.0, 2.0]}})

    def test_metrics_cadence_default(self):
        # a record after each all-reduce, whatever the run's length;
        # metrics_every adds the steps that are its multiples
        from palsgd.experiments import run_experiment
        schedule = {"total_steps": 100, "sync_interval": 8}
        syncs = [*range(7, 100, 8), 99]
        cfg = parse({"schedule": schedule})
        assert cfg.metrics_every is None
        _, result = run_experiment(cfg)
        assert result.diagnostics.columns["step"].tolist() == syncs
        _, result = run_experiment(parse({"schedule": schedule, "metrics_every": 30}))
        assert result.diagnostics.columns["step"].tolist() == sorted({*syncs, 0, 30, 60, 90})

    def test_invalid_json_reported(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_mlp_width_constraints(self):
        with pytest.raises(ConfigError, match="widths") as exc:
            parse({"workload": {"kind": "mlp", "widths": [4, 8, 3], "dim": 5}})
        assert exc.value.field == "workload.dim"
        assert "derived from workload.widths" in exc.value.reason
        # the last width is the class count, with its bound
        with pytest.raises(ConfigError, match=">= 2") as exc:
            parse({"workload": {"kind": "mlp", "widths": [4, 8, 1]}})
        assert exc.value.field == "workload.widths"

    @pytest.mark.parametrize("raw, field, reason", [
        ({"workload": {"kind": "quadratic", "mu": 2.0, "L": 1.0}}, "workload.L", "must be >= mu"),
        ({"workload": {"kind": "quadratic", "dim": 3, "x_star": [0.0, 1.0]}},
         "workload.x_star", "length 2 != dim 3"),
        ({"workload": {"kind": "quadratic", "dim": 3, "x0_offset": [1.0] * 4}},
         "workload.x0_offset", "length 4 != dim 3"),
        ({"workload": {"kind": "logistic", "n_samples": 41}}, "workload.n_samples", "must be even"),
        ({"workload": {"kind": "mlp", "widths": [4]}}, "workload.widths", "at least two"),
        ({"schedule": {"lr_schedule": "warmup_cosine", "lr_warmup_steps": 0}},
         "schedule.lr_warmup_steps", "lr_warmup_steps >= 1"),
        ({"algo": {"variant": "palsgd_theory"}, "workload": {"kind": "quadratic", "x0_offset": 0.0}},
         "workload.x0_offset", "d0 > 0"),
        ({"schedule": [0.1]}, "schedule", "must be a JSON object"),
        ([{"workers": 2}], "<document>", "top level must be a JSON object")],
        ids=["L-below-mu", "x_star-length", "x0_offset-length", "odd-n_samples", "one-width",
             "cosine-without-warmup", "theory-at-x_star", "schedule-list", "document-list"])
    def test_bespoke_rule_names_its_field(self, raw, field, reason):
        with pytest.raises(ConfigError) as exc:
            parse(raw)
        assert exc.value.field == field and reason in exc.value.reason


class TestFieldSpecs:
    @pytest.mark.parametrize("section, build, key, bad", [
        ("algo.inner", InnerOptConfig, "beta2", 1.0),
        ("algo.outer", OuterOptConfig, "lr", 0.0),
        ("schedule", lambda **kw: Schedule(alpha=0.1, **kw), "sync_interval", 0),
        ("cluster", lambda **kw: ClusterSpec(workers=1, **kw), "jitter", 1.0),
        ("cluster.allreduce", AllReduceModel, "latency_s", -1.0),
    ])
    def test_one_bound_for_dataclass_and_json(self, section, build, key, bad):
        with pytest.raises(ConfigError) as direct:
            build(**{key: bad})
        assert direct.value.field == key
        tree: dict = {}
        node = tree
        for part in section.split("."):
            node = node.setdefault(part, {})
        node[key] = bad
        with pytest.raises(ConfigError) as parsed:
            parse(tree)
        assert parsed.value.field == f"{section}.{key}"
        assert parsed.value.reason == direct.value.reason

    def test_types_checked_and_ints_become_floats(self):
        norm = parse({"schedule": {"alpha": 1}, "cluster": {"jitter": 0}}).normalized()
        assert type(norm["schedule"]["alpha"]) is float and type(norm["cluster"]["jitter"]) is float
        with pytest.raises(ConfigError, match=r"algo\.inner\.momentum.*expected number"):
            parse({"algo": {"inner": {"momentum": "0.9"}}})
        with pytest.raises(ConfigError, match=r"workers.*expected integer"):
            parse({"workers": True})
        with pytest.raises(ConfigError, match=r"schedule\.lr_schedule.*one of"):
            parse({"schedule": {"lr_schedule": "linear"}})


class TestMetricsRoundTrip:
    def test_jsonl_file_round_trip(self, tmp_path):
        from palsgd.experiments import run_experiment
        _, result = run_experiment(parse({"schedule": {"total_steps": 20, "sync_interval": 8},
                                          "metrics_every": 3}))
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(result.diagnostics, str(path))
        lines, columns = read_metrics_jsonl(str(path)), result.diagnostics.columns
        assert len(lines) == 9 and not columns["evaluated"].any()
        for name in INT_FIELDS + FLOAT_FIELDS:
            assert [obj[name] for obj in lines] == columns[name].tolist(), name

    def test_special_floats_write_the_reference_bytes(self, tmp_path):
        # nan, -inf and -0.0 in every float column, on evaluated and
        # unevaluated records, which no run's golden artifact holds together
        nan, inf = float("nan"), float("inf")
        special = np.array([nan, -inf, -0.0, 1.5, inf])
        columns = {"step": np.arange(5, dtype=np.int64), "sim_time_s": special[::-1].copy(),
                   "train_metric": special, "consensus_sq": np.roll(special, 1),
                   "spread_sq": np.roll(special, 2), "comm_count": np.arange(5, dtype=np.int64),
                   "comm_seconds": np.roll(special, 3), "eval_loss": np.roll(special, 4),
                   "eval_acc": special.copy(),
                   "evaluated": np.array([True, False, True, False, True])}
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(Diagnostics(columns, np.zeros((0, 1), np.int64), [0], [5]), str(path))
        text = path.read_text()
        assert text == reference_metrics_text(columns)
        lines = text.splitlines()
        assert '"train_metric": NaN' in lines[0] and '"train_metric": -Infinity' in lines[1]
        assert '"train_metric": -0.0' in lines[2] and '"eval_acc": NaN' in lines[0]
        assert ["eval_loss" in line for line in lines] == columns["evaluated"].tolist()

    MLP = {"workload": {"kind": "mlp", "widths": [4, 6, 3], "samples_per_class": 10},
           "schedule": {"total_steps": 30, "sync_interval": 8}, "workers": 3,
           "eval_every": 7, "metrics_every": 5}

    def test_columns_write_the_bytes_of_the_view(self, tmp_path):
        from palsgd.experiments import run_experiment
        _, result = run_experiment(parse(self.MLP), out_dir=str(tmp_path))
        text = (tmp_path / "metrics.jsonl").read_text()
        assert text == reference_metrics_text(result.diagnostics.columns)
        # evaluated rows at (t + 1) % 7 == 0 and the last step, the others without eval keys
        evals = [6, 13, 20, 27, 29]
        lines = [json.loads(line) for line in text.splitlines()]
        assert [obj["step"] for obj in lines] == sorted({*evals, *range(0, 30, 5), 7, 15, 23})
        assert [obj["step"] for obj in lines if "eval_loss" in obj] == evals
        assert [obj["step"] for obj in lines if "eval_acc" in obj] == evals
        evaluated = result.diagnostics.columns["evaluated"].tolist()
        assert evaluated == [obj["step"] in evals for obj in lines]
        # each line holds the schema and the record's fields, the eval ones
        # only where it was evaluated
        fields = {"schema", "step", "sim_time_s", "train_metric", "consensus_sq", "spread_sq",
                  "comm_count", "comm_seconds"}
        assert [set(obj) for obj in lines] == [
            fields | {"eval_loss", "eval_acc"} if obj["step"] in evals else fields
            for obj in lines]

    def test_batched_replicas_view_the_runs_alone(self, tmp_path):
        from palsgd.algorithms import run_training
        cfg = parse(self.MLP)
        workload = cfg.workload_object()
        seeds = [1, 2, 3]

        def run(seed):
            return run_training(workload, cfg.build_variant(), cfg.build_schedule(workload),
                                cfg.build_cluster(), seed, record_every=5, eval_every=7)

        diag = run(seeds).diagnostics
        for r, seed in enumerate(seeds):
            path = tmp_path / f"{seed}.jsonl"
            write_metrics_jsonl(run(seed).diagnostics, str(path))
            assert reference_metrics_text(replica_columns(diag, r)) == path.read_text()
        # a batch's (S, R) columns are no one run's metrics.jsonl
        with pytest.raises(ValueError, match="one seed's records; got a batch of 3"):
            write_metrics_jsonl(diag, str(tmp_path / "batch.jsonl"))
        assert not (tmp_path / "batch.jsonl").exists()
        counts = diag.window_mixing_counts
        assert counts.shape == (3, 4, 3) and counts.dtype == np.int64
        assert counts.sum(axis=1).ravel().tolist() == diag.mixing_steps_per_worker
        assert 0 < sum(diag.mixing_steps_per_worker) < 3 * 3 * 30

    def test_batched_events_are_no_one_runs_events_jsonl(self, tmp_path):
        from palsgd.algorithms import run_training
        cfg = parse(self.MLP)
        workload = cfg.workload_object()
        result = run_training(workload, cfg.build_variant(), cfg.build_schedule(workload),
                              cfg.build_cluster(), [1, 2, 3])
        assert len(result.events) == 3 and result.events[0]
        with pytest.raises(ValueError, match="one seed's events; got a batch of 3"):
            export_events_jsonl(result.events, str(tmp_path / "events.jsonl"))
        assert not (tmp_path / "events.jsonl").exists()

    def test_steps_strictly_increasing_in_run_output(self, tmp_path):
        cfg = parse({"workload": {"kind": "quadratic"},
                     "schedule": {"total_steps": 50, "sync_interval": 8}})
        from palsgd.experiments import run_experiment
        _, result = run_experiment(cfg, out_dir=str(tmp_path / "run"))
        steps = [obj["step"] for obj in read_metrics_jsonl(str(tmp_path / "run" / "metrics.jsonl"))]
        assert steps == sorted(set(steps))


class TestSummary:
    def test_sync_count_equals_event_log_length(self):
        cfg = parse({"workload": {"kind": "quadratic"},
                     "schedule": {"total_steps": 64, "sync_interval": 8}})
        from palsgd.experiments import run_experiment
        summary, result = run_experiment(cfg)
        assert summary["sync_count"] == len(result.events)
        assert summary["diverged"] is False
        assert summary["final_loss"] == result.diagnostics.columns["train_metric"][-1]
        assert summary["best_loss"] <= summary["final_loss"]

    @pytest.mark.parametrize("variant, warmup", [("ddp", 0), ("local_sgd", 0), ("palsgd", 0),
                                                 ("palsgd", 12)])
    def test_summary_equals_the_last_record(self, variant, warmup):
        # the run ends in an all-reduce, so its last record reads the final clock
        schedule = {"total_steps": 60}
        if variant != "ddp":  # ddp reads neither: it all-reduces every step
            schedule.update(sync_interval=8, warmup_steps=warmup)
        cfg = parse({"workload": {"kind": "quadratic"}, "algo": {"variant": variant},
                     "schedule": schedule, "cluster": {"jitter": 0.2}, "workers": 3})
        from palsgd.experiments import run_experiment
        summary, result = run_experiment(cfg)
        last = {name: column[-1] for name, column in result.diagnostics.columns.items()}
        assert last["step"] == 59
        assert summary["total_sim_time_s"] == last["sim_time_s"]
        assert summary["total_comm_seconds"] == last["comm_seconds"]
        assert summary["sync_count"] == last["comm_count"]
