import json

import numpy as np
import pytest

from palsgd.algorithms import Schedule, StepRecord
from palsgd.cluster import AllReduceModel, ClusterSpec
from palsgd.config import ConfigError, parse_config
from palsgd.optimizers import InnerOptConfig, OuterOptConfig
from palsgd.metrics import (RECORD_SCHEMA, dumps_record, record_to_obj,
                            summarize, write_metrics_jsonl)


def parse(obj):
    return parse_config(json.dumps(obj))


def obj_to_record(obj: dict) -> StepRecord:
    """The StepRecord a metrics line was written from."""
    assert obj["schema"] == RECORD_SCHEMA
    return StepRecord(**{key: value for key, value in obj.items() if key != "schema"})


def read_metrics_jsonl(path) -> list[StepRecord]:
    with open(path) as fh:
        return [obj_to_record(json.loads(line)) for line in fh]


class TestParsing:
    def test_minimal_quadratic_fills_defaults(self):
        cfg = parse({"workload": {"kind": "quadratic"}})
        norm = cfg.normalized()
        assert norm["schedule"]["p"] == 0.05  # palsgd default mixing probability
        assert norm["algo"]["variant"] == "palsgd"
        assert norm["workload"]["dim"] == 16
        assert norm["workers"] == 8
        assert norm["cluster"]["allreduce"] == {"latency_s": 1e-3, "bandwidth_bytes_per_s": 1e9}

    @pytest.mark.parametrize("variant", ["ddp", "local_sgd", "diloco", "palsgd", "palsgd_theory"])
    def test_normalized_dump_reparses_to_itself(self, variant):
        norm = parse({"algo": {"variant": variant}}).normalized()
        assert parse(norm).normalized() == norm

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
        with pytest.raises(ConfigError, match="no mixing steps"):
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
        assert [r.step for r in result.diagnostics.records] == syncs
        _, result = run_experiment(parse({"schedule": schedule, "metrics_every": 30}))
        assert [r.step for r in result.diagnostics.records] == sorted({*syncs, 0, 30, 60, 90})

    def test_invalid_json_reported(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_mlp_width_constraints(self):
        with pytest.raises(ConfigError, match="widths"):
            parse({"workload": {"kind": "mlp", "widths": [4, 8, 3], "dim": 5}})


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
    def rec(self, **kw):
        base = dict(step=3, sim_time_s=1.5, train_metric=0.25, consensus_sq=0.0,
                    spread_sq=0.125, comm_count=2, comm_seconds=0.5)
        base.update(kw)
        return StepRecord(**base)

    def test_parse_emit_identity(self):
        for rec in (self.rec(), self.rec(eval_loss=0.9, eval_acc=0.75)):
            assert obj_to_record(record_to_obj(rec)) == rec
            assert obj_to_record(json.loads(dumps_record(rec))) == rec

    def test_jsonl_file_round_trip(self, tmp_path):
        records = [self.rec(step=i, train_metric=float(i)) for i in range(5)]
        path = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(records, str(path))
        assert read_metrics_jsonl(str(path)) == records

    def test_steps_strictly_increasing_in_run_output(self, tmp_path):
        cfg = parse({"workload": {"kind": "quadratic"},
                     "schedule": {"total_steps": 50, "sync_interval": 8}})
        from palsgd.experiments import run_experiment
        _, result = run_experiment(cfg, out_dir=str(tmp_path / "run"))
        records = read_metrics_jsonl(str(tmp_path / "run" / "metrics.jsonl"))
        steps = [r.step for r in records]
        assert steps == sorted(set(steps))


class TestSummary:
    def test_sync_count_equals_event_log_length(self):
        cfg = parse({"workload": {"kind": "quadratic"},
                     "schedule": {"total_steps": 64, "sync_interval": 8}})
        from palsgd.experiments import run_experiment
        summary, result = run_experiment(cfg)
        assert summary["sync_count"] == len(result.events)
        assert summary["diverged"] is False
        assert summary["final_loss"] == result.diagnostics.records[-1].train_metric
        assert summary["best_loss"] <= summary["final_loss"]

    @pytest.mark.parametrize("variant, warmup", [("ddp", 0), ("local_sgd", 0), ("palsgd", 0),
                                                 ("palsgd", 12)])
    def test_summary_equals_the_last_record(self, variant, warmup):
        # the run ends in an all-reduce, so its last record reads the final clock
        cfg = parse({"workload": {"kind": "quadratic"}, "algo": {"variant": variant},
                     "schedule": {"total_steps": 60, "sync_interval": 8, "warmup_steps": warmup},
                     "cluster": {"jitter": 0.2}, "workers": 3})
        from palsgd.experiments import run_experiment
        summary, result = run_experiment(cfg)
        last = result.diagnostics.records[-1]
        assert last.step == 59
        assert summary["total_sim_time_s"] == last.sim_time_s
        assert summary["total_comm_seconds"] == last.comm_seconds
        assert summary["sync_count"] == last.comm_count
