"""Run configuration: strict JSON parsing, validation, and object assembly.

Where a key's default and bound live:

* The keys of ``algo.inner``, ``algo.outer``, ``schedule``, ``cluster`` and
  ``cluster.allreduce``, plus ``algo.variant``, the top-level ``workers`` and
  ``workload.draw_policy``, are declared once, as field metadata on the
  runtime dataclasses (``InnerOptConfig``, ``OuterOptConfig``, ``Schedule``,
  ``ClusterSpec``, ``AllReduceModel``, ``AlgoVariant``, ``Shards``; see
  ``fields.py``). Where a config default differs from the library one (four
  ``schedule`` keys and ``workers``), the tables below replace the default
  and keep the bound.
* The other ``workload`` keys (one table per kind) and the top-level
  ``seed``, ``metrics_every``, ``eval_every`` and ``out_dir`` are declared
  in the tables below.

Metrics cadence: a run writes a record after every step that ends in an
all-reduce, that is every DDP step (warmup included) and every sync round,
the final step among them. ``eval_every`` adds its evaluation steps when the
workload has an evaluation set, and ``metrics_every`` (default none) adds
every step that is a multiple of it.

Variant rules: the ``VARIANTS`` table in ``algorithms.py`` declares, once
per variant, its preset optimizers, the ``algo`` sections it pins to them and
the ``schedule`` keys it derives (both rejected when given), and whether it
mixes (``schedule.p`` defaults to 0.05 if so and must be 0 if not). A key
that an unpinned section leaves out keeps the preset's value, so
``{"weight_decay": 0.1}`` under palsgd still runs adamw with clip_norm 1.0.

Unknown keys are rejected at every nesting level (ablation grids make silent
typos expensive) and every constraint violation names the offending field.
``RunConfig.normalized()`` echoes the config back with all defaults filled,
including the optimizers that actually run, which is what gets written next
to a run's metrics.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .algorithms import VARIANTS, AlgoVariant, Schedule, make_variant, theory_schedule
from .cluster import AllReduceModel, ClusterSpec
from .fields import ConfigError, Spec, specs
from .optimizers import InnerOptConfig, OuterOptConfig
from .workloads import (ACTIVATIONS, DTYPES, LogisticWorkload, MlpWorkload,
                        QuadraticWorkload, Shards, generate_synthetic_classification)

SCHEMA_VERSION = 1

_CLUSTER = specs(ClusterSpec, workers=8)
TOP_KEYS = {"workers": _CLUSTER.pop("workers"),  # set at the top level, not in "cluster"
            "seed": Spec(int, 2022),
            "metrics_every": Spec(int, None, low=1),
            "eval_every": Spec(int, None, low=1),
            "out_dir": Spec(str, None)}
_ALLREDUCE = specs(AllReduceModel)
_VARIANT = specs(AlgoVariant, tag="palsgd")["tag"]
_OPTIMIZERS = {"inner": specs(InnerOptConfig), "outer": specs(OuterOptConfig)}
_SCHEDULE = specs(Schedule, alpha=0.01, eta=0.5, sync_interval=16, total_steps=1600)

_DATASET = {"data_seed": Spec(int, 7),
            "spread": Spec(float, 1.0, low=0, low_open=True),
            "center_scale": Spec(float, 3.0, low=0),
            "draw_policy": specs(Shards)["draw_policy"]}
_WORKLOADS = {
    "quadratic": {"dim": Spec(int, 16, low=1),
                  "hessian_diag": Spec(float, None, low=0, low_open=True, sequence=True),
                  "mu": Spec(float, 1.0, low=0, low_open=True),
                  "L": Spec(float, 4.0, low=0, low_open=True),
                  "noise_sigma": Spec(float, 1.0, low=0)},
    "logistic": {"dim": Spec(int, 8, low=1),
                 "n_samples": Spec(int, 200, low=2),
                 "l2_reg": Spec(float, 0.01, low=0),
                 "batch_size": Spec(int, 1, low=1),
                 **_DATASET},
    "mlp": {"widths": Spec(int, None, low=1, sequence=True),
            "activation": Spec(str, "tanh", choices=ACTIVATIONS),
            "classes": Spec(int, 10, low=2),
            "dim": Spec(int, 16, low=1),
            "samples_per_class": Spec(int, 100, low=1),
            "test_samples_per_class": Spec(int, 25, low=0),
            "batch_size": Spec(int, 8, low=1),
            "dtype": Spec(str, "float64", choices=DTYPES),
            "init_scale": Spec(float, None, low=0, low_open=True),
            **_DATASET},
}
_KIND = Spec(str, "quadratic", choices=tuple(_WORKLOADS))
# quadratic keys that take a number (broadcast to every coordinate) or a list
_BROADCAST = {"x_star": Spec(float, 0.0), "x0_offset": Spec(float, 1.0)}


def _object(name: str, raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(name, f"must be a JSON object, got {raw!r}")
    return raw


def _section(name: str, raw, table: dict[str, Spec], defaults: dict | None = None,
             other_keys: tuple = ()) -> dict:
    """Every key of `table`, checked, from `raw` or else `defaults` or the Spec default."""
    allowed = set(table) | set(other_keys)
    unknown = set(_object(name, raw)) - allowed
    if unknown:
        raise ConfigError(name, f"unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")
    defaults = defaults or {}
    return {key: spec.check(f"{name}.{key}", raw.get(key, defaults.get(key, spec.default)))
            for key, spec in table.items()}


@contextmanager
def _within(section: str):
    """Prefix the field a ConfigError names with the config section it belongs to."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc.field}", exc.reason) from None


@dataclass
class RunConfig:
    workload: dict
    algo: dict
    schedule: dict
    cluster: dict
    workers: int
    seed: int
    metrics_every: int | None
    eval_every: int | None
    out_dir: str | None
    # (the workload section, the workload built from it)
    _built: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def normalized(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                **{f.name: getattr(self, f.name) for f in fields(self) if f.init}}

    def workload_object(self):
        """The workload built from the ``workload`` section, built again only
        once that section has changed since the last build."""
        if self._built is None or self._built[0] != self.workload:
            self._built = (copy.deepcopy(self.workload), self.build_workload())
        return self._built[1]

    def build_workload(self):
        w = self.workload
        if w["kind"] == "quadratic":
            diag = np.asarray(w["hessian_diag"], dtype=np.float64)
            x_star = np.asarray(w["x_star"], dtype=np.float64)
            x0 = x_star + np.asarray(w["x0_offset"], dtype=np.float64)
            return QuadraticWorkload(diag, x_star, w["noise_sigma"], x0=x0)
        clusters = dict(spread=w["spread"], center_scale=w["center_scale"])
        if w["kind"] == "logistic":
            data = generate_synthetic_classification(2, w["dim"], w["n_samples"] // 2,
                                                     w["data_seed"], **clusters)
            return LogisticWorkload(data, l2_reg=w["l2_reg"], batch_size=w["batch_size"],
                                    draw_policy=w["draw_policy"])
        data = generate_synthetic_classification(
            w["classes"], w["dim"], w["samples_per_class"], w["data_seed"], **clusters)
        test = generate_synthetic_classification(
            w["classes"], w["dim"], w["test_samples_per_class"], w["data_seed"], **clusters,
            split=1) if w["test_samples_per_class"] else None
        return MlpWorkload(w["widths"], w["activation"], data, test=test,
                           batch_size=w["batch_size"], dtype=w["dtype"],
                           init_scale=w["init_scale"], draw_policy=w["draw_policy"])

    def build_variant(self) -> AlgoVariant:
        a = self.algo
        inner = InnerOptConfig(**a["inner"]) if "inner" in a else None
        outer = OuterOptConfig(**a["outer"]) if "outer" in a else None
        return make_variant(a["variant"], inner=inner, outer=outer)

    def build_schedule(self, workload) -> Schedule:
        s = self.schedule
        if self.algo["variant"] != "palsgd_theory":
            return Schedule(**s)
        d0 = float(np.sum((workload.x0 - workload.x_star) ** 2))
        if d0 <= 0:
            raise ConfigError("workload.x0_offset",
                              "theory mode needs a nonzero initial offset (d0 > 0)")
        with _within("schedule"):
            return theory_schedule(
                mu=workload.mu, smoothness=workload.smoothness, p=s["p"],
                sync_interval=s["sync_interval"], total_steps=s["total_steps"],
                workers=self.workers, sigma=workload.noise_sigma, d0=d0,
                warmup_steps=s["warmup_steps"])

    def build_cluster(self) -> ClusterSpec:
        c = dict(self.cluster)
        allreduce = AllReduceModel(**c.pop("allreduce"))
        mult = c.pop("worker_multipliers")
        with _within("cluster"):
            return ClusterSpec(workers=self.workers, allreduce=allreduce,
                               worker_multipliers=None if mult is None else tuple(mult), **c)


def _parse_workload(raw) -> dict:
    kind = _KIND.check("workload.kind", _object("workload", raw).get("kind", _KIND.default))
    widths = raw.get("widths")
    derived = {}  # an mlp's dim and classes default to its outer widths
    if kind == "mlp" and isinstance(widths, list) and widths:
        derived = {"dim": widths[0], "classes": widths[-1]}
    other_keys = ("kind", *_BROADCAST) if kind == "quadratic" else ("kind",)
    out = {"kind": kind, **_section("workload", raw, _WORKLOADS[kind], derived, other_keys)}
    if kind == "quadratic":
        mu, big_l = out.pop("mu"), out.pop("L")
        if out["hessian_diag"] is None:
            if big_l < mu:
                raise ConfigError("workload.L", f"must be >= mu ({mu}), got {big_l}")
            out["hessian_diag"] = np.linspace(mu, big_l, out["dim"]).tolist()
        elif "mu" in raw or "L" in raw:
            raise ConfigError("workload.hessian_diag", "give either hessian_diag or (mu, L), not both")
        elif "dim" in raw and len(out["hessian_diag"]) != out["dim"]:
            raise ConfigError("workload.hessian_diag",
                              f"length {len(out['hessian_diag'])} != dim {out['dim']}")
        dim = out["dim"] = len(out["hessian_diag"])
        for key, spec in _BROADCAST.items():
            name, value = f"workload.{key}", raw.get(key, spec.default)
            if isinstance(value, list):
                vec = [spec.check(name, v) for v in value]
            else:
                vec = [spec.check(name, value)] * dim
            if len(vec) != dim:
                raise ConfigError(name, f"length {len(vec)} != dim {dim}")
            out[key] = vec
    elif kind == "logistic":
        if out["n_samples"] % 2:
            raise ConfigError("workload.n_samples",
                              f"must be even (two balanced classes), got {out['n_samples']}")
    else:
        if out["widths"] is None:
            out["widths"] = [out["dim"], 32, out["classes"]]
        if len(out["widths"]) < 2:
            raise ConfigError("workload.widths", "must be a list of at least two layer widths")
        if out["widths"][0] != out["dim"]:
            raise ConfigError("workload.widths", f"first width {out['widths'][0]} != dim {out['dim']}")
        if out["widths"][-1] != out["classes"]:
            raise ConfigError("workload.widths",
                              f"last width {out['widths'][-1]} != classes {out['classes']}")
    return out


def _parse_algo(raw) -> dict:
    out = _section("algo", raw, {"variant": _VARIANT}, other_keys=tuple(_OPTIMIZERS))
    variant = out["variant"]
    rules = VARIANTS[variant]
    for section, table in _OPTIMIZERS.items():
        if section not in rules.pinned:
            out[section] = _section(f"algo.{section}", raw.get(section, {}), table,
                                    asdict(getattr(rules, section)))
        elif section in raw:
            raise ConfigError(f"algo.{section}",
                              f"variant {variant!r} fixes its {section} optimizer; drop the section")
    return out


def _parse_schedule(raw, variant: str) -> dict:
    rules = VARIANTS[variant]
    given = [key for key in rules.derived if key in _object("schedule", raw)]
    if given:
        raise ConfigError(f"schedule.{given[0]}", f"variant {variant!r} derives it; drop it")
    table = {k: v for k, v in _SCHEDULE.items() if k not in rules.derived}
    out = _section("schedule", raw, table, {"p": 0.05 if rules.mixes else 0.0})
    if not rules.mixes and out["p"] != 0.0:
        raise ConfigError("schedule.p", f"variant '{variant}' takes no mixing steps; p must be 0")
    if out.get("lr_schedule") == "warmup_cosine" and out["lr_warmup_steps"] < 1:
        raise ConfigError("schedule.lr_warmup_steps", "warmup_cosine needs lr_warmup_steps >= 1")
    return out


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be a JSON object")
    raw.pop("schema_version", None)  # accept re-parsing a normalized dump
    top = _section("<top>", raw, TOP_KEYS, other_keys=("workload", "algo", "schedule", "cluster"))
    algo = _parse_algo(raw.get("algo", {}))
    workload = _parse_workload(raw.get("workload", {}))
    schedule = _parse_schedule(raw.get("schedule", {}), algo["variant"])
    cluster_raw = raw.get("cluster", {})
    cluster = _section("cluster", cluster_raw, _CLUSTER, other_keys=("allreduce",))
    cluster["allreduce"] = _section("cluster.allreduce", cluster_raw.get("allreduce", {}), _ALLREDUCE)
    if algo["variant"] == "palsgd_theory" and workload["kind"] != "quadratic":
        raise ConfigError("algo.variant", "palsgd_theory needs the quadratic workload (known mu, L, sigma)")

    cfg = RunConfig(workload=workload, algo=algo, schedule=schedule, cluster=cluster, **top)
    # fail fast on anything the dataclass constructors would reject later
    cfg.build_variant()
    cfg.build_schedule(cfg.workload_object())
    cfg.build_cluster()
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
