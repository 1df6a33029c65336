"""Run configuration: strict JSON parsing, validation, and object assembly.

Where a key's default and bound live:

* A key that a runtime object takes is declared once, as field metadata on
  its dataclass (see ``fields.py``): ``InnerOptConfig``, ``OuterOptConfig``,
  ``Schedule``, ``ClusterSpec`` (the top-level ``workers`` too),
  ``AllReduceModel``, ``AlgoVariant`` (``algo.variant`` is its ``tag``), and
  for ``workload`` ``QuadraticWorkload``, ``LogisticWorkload``,
  ``MlpWorkload``, their base ``ShardedWorkload`` (``draw_policy``, by the
  Spec of ``Shards``) and ``GaussianClusters`` (the dataset keys, which the
  generator checks). Where a config default differs from the library one
  (five ``schedule`` keys, ``workers``, ``noise_sigma``, ``l2_reg``,
  ``activation`` and the logistic's ``dim``), the tables below replace it.
* A key that no runtime object takes has one row below and one reader,
  ``RunConfig.build_workload`` or ``parse_config``: the quadratic's ``dim``,
  ``mu`` and ``L`` (they derive ``hessian_diag``; ``L >= mu`` is a rule of
  that derivation), the logistic's ``n_samples`` (even: two classes), the
  mlp's ``test_samples_per_class``, the list-valued keys (their JSON and
  array forms differ), ``seed``, ``metrics_every``, ``eval_every``,
  ``out_dir``, ``workload.kind`` and ``schema_version``.

Metrics cadence: a run writes a record after every step that ends in an
all-reduce, that is every DDP step (warmup included) and every sync round,
the final step among them. ``eval_every`` adds its evaluation steps when the
workload has an evaluation set, and ``metrics_every`` (default none) adds
every step that is a multiple of it.

Variant rules: a given key that its run does not read is rejected, naming
the key and the reason. The ``VARIANTS`` table in ``algorithms.py`` lists
each variant's preset optimizers and the dotted keys it never reads: the
``algo`` sections it pins, the ``schedule`` keys it derives, and the keys
its loop never touches (``schedule.p`` unless it mixes). A field's
``read_when`` names the values of its section's choice field under which it
acts (AdamW's moments under ``variant: adamw``), and ``eval_every`` acts on
a workload with an evaluation set. A key that an unpinned section leaves
out keeps the preset's value, so ``{"weight_decay": 0.1}`` under palsgd
still runs adamw with clip_norm 1.0. ``workload.kind`` is a choice field:
another kind's keys are not read, nor are the keys a given list fixes
(``hessian_diag`` fixes dim, mu and L; ``widths`` fixes dim and classes).
Keys that act or not by a number stay accepted: p = 0 under palsgd, or
``cluster.allreduce`` on one worker.

Unknown keys are rejected at every nesting level (ablation grids make silent
typos expensive) and every constraint violation names the offending field.
``RunConfig.normalized()`` echoes the keys the run reads, defaults filled and
the optimizers that actually run included, which is what gets written next
to a run's metrics.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .algorithms import VARIANTS, AlgoVariant, Schedule, make_variant, theory_schedule
from .cluster import AllReduceModel, ClusterSpec
from .fields import ConfigError, Spec, specs
from .optimizers import InnerOptConfig, OuterOptConfig
from .workloads import (GaussianClusters, LogisticWorkload, MlpWorkload, QuadraticWorkload,
                        generate_synthetic_classification)

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
_SCHEDULE = specs(Schedule, alpha=0.01, eta=0.5, p=0.05, sync_interval=16, total_steps=1600)

_MLP = specs(MlpWorkload, activation="tanh")
_WORKLOADS = {
    "quadratic": {"dim": Spec(int, 16, low=1),
                  "hessian_diag": Spec(float, None, low=0, low_open=True, sequence=True),
                  "mu": Spec(float, 1.0, low=0, low_open=True),
                  "L": Spec(float, 4.0, low=0, low_open=True),
                  **specs(QuadraticWorkload, noise_sigma=1.0)},
    "logistic": {"n_samples": Spec(int, 200, low=2),
                 **specs(LogisticWorkload, l2_reg=0.01),
                 # two classes, of n_samples / 2 points each
                 **{key: spec for key, spec in specs(GaussianClusters, dim=8).items()
                    if key not in ("classes", "samples_per_class")}},
    "mlp": {"widths": Spec(int, None, low=1, sequence=True),
            "activation": _MLP.pop("activation"),
            "test_samples_per_class": Spec(int, 25, low=0),
            **_MLP,  # draw_policy, batch_size, dtype, init_scale
            **specs(GaussianClusters)},
}
_KIND = Spec(str, "quadratic", choices=tuple(_WORKLOADS))
# quadratic keys that take a number (one value for every coordinate) or a list
_BROADCAST = {"x_star": Spec(float, 0.0), "x0_offset": Spec(float, 1.0)}
# the kinds that read each workload key, and the keys that each given list fixes
_READ_BY = {key: [kind for kind, table in _WORKLOADS.items() if key in table]
            for table in _WORKLOADS.values() for key in table} | dict.fromkeys(_BROADCAST, ["quadratic"])
_FIXED_BY = {"hessian_diag": ("dim", "mu", "L"), "widths": ("dim", "classes")}
# every dotted key the parser knows, sections included
KEYS = frozenset({*TOP_KEYS, "algo.variant", "algo.inner", "algo.outer", "cluster.allreduce",
                  *(f"algo.{s}.{k}" for s, table in _OPTIMIZERS.items() for k in table),
                  *(f"schedule.{k}" for k in _SCHEDULE), *(f"cluster.{k}" for k in _CLUSTER),
                  *(f"cluster.allreduce.{k}" for k in _ALLREDUCE), "workload.kind",
                  *(f"workload.{k}" for k in _READ_BY)})


def _object(name: str, raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(name, f"must be a JSON object, got {raw!r}")
    return raw


def _section(name: str, raw, table: dict[str, Spec], unread: dict[str, str],
             defaults: dict | None = None, other_keys: tuple = ()) -> dict:
    """Every key of `table` that the run reads, checked, from `raw` or else
    `defaults` or the Spec default. A key is not read if `unread` maps its
    dotted name to the reason, or if the section's choice field holds none of
    its `read_when` values, which enters it in `unread`. The top level's
    `name` is empty: its keys are named bare."""
    allowed = set(table) | set(other_keys)
    unknown = set(_object(name, raw)) - allowed
    if unknown:
        raise ConfigError(name or "<document>",
                          f"unknown keys {sorted(unknown)}; allowed keys are {sorted(allowed)}")
    prefix = f"{name}." if name else ""
    defaults = defaults or {}
    out = {key: spec.check(prefix + key, raw.get(key, defaults.get(key, spec.default)))
           for key, spec in table.items()}
    for key, spec in table.items():
        if spec.read_when:
            choice = next(k for k, s in table.items() if set(spec.read_when) <= set(s.choices or ()))
            if out[choice] not in spec.read_when:
                unread.setdefault(prefix + key, f"read only when {prefix}{choice} is one of "
                                                 f"{list(spec.read_when)}, not {out[choice]!r}")
    return {key: value for key, value in out.items() if prefix + key not in unread}


def _holds(tree, dotted: str) -> bool:
    key, _, rest = dotted.partition(".")
    return isinstance(tree, dict) and key in tree and (not rest or _holds(tree[key], rest))


@contextmanager
def _within(section: str):
    """Prefix the field a ConfigError names with the config section it belongs to."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc.field}", exc.reason) from None


@dataclass
class RunConfig:
    """A parsed run config: the raw sections and the top-level run options."""
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
                **{f.name: getattr(self, f.name) for f in fields(self)
                   if f.init and (f.name != "eval_every" or self.workload_object().has_eval)}}

    def workload_object(self):
        """The workload built from the ``workload`` section, built again only
        once that section has changed since the last build."""
        if self._built is None or self._built[0] != self.workload:
            self._built = (copy.deepcopy(self.workload), self.build_workload())
        return self._built[1]

    def build_workload(self):
        """The section's workload, deriving the quadratic's hessian_diag from
        (mu, L, dim) and the mlp's widths as [dim, 32, classes] unless given."""
        w = self.workload
        if w["kind"] == "quadratic":
            diag = w["hessian_diag"] or np.linspace(w["mu"], w["L"], w["dim"])
            x_star = np.full(len(diag), w["x_star"], dtype=np.float64)
            x0 = x_star + np.full(len(diag), w["x0_offset"], dtype=np.float64)
            return QuadraticWorkload(diag, x_star, w["noise_sigma"], x0=x0)
        clusters = dict(spread=w["spread"], center_scale=w["center_scale"])
        if w["kind"] == "logistic":
            data = generate_synthetic_classification(2, w["dim"], w["n_samples"] // 2,
                                                     w["data_seed"], **clusters)
            return LogisticWorkload(data, **{key: w[key] for key in specs(LogisticWorkload)})
        widths = w["widths"] or [w["dim"], 32, w["classes"]]
        data = generate_synthetic_classification(
            widths[-1], widths[0], w["samples_per_class"], w["data_seed"], **clusters)
        test = generate_synthetic_classification(
            widths[-1], widths[0], w["test_samples_per_class"], w["data_seed"], **clusters,
            split=1) if w["test_samples_per_class"] else None
        return MlpWorkload(widths, train=data, test=test, **{key: w[key] for key in specs(MlpWorkload)})

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


def _parse_workload(raw, unread: dict[str, str]) -> dict:
    """The workload section as given, defaults filled, for ``build_workload``
    to derive the rest; enters in `unread` the keys another kind reads and
    the keys a given list fixes (``_FIXED_BY``)."""
    kind = _KIND.check("workload.kind", _object("workload", raw).get("kind", _KIND.default))
    for key, kinds in _READ_BY.items():
        if kind not in kinds:
            unread[f"workload.{key}"] = f"read only when workload.kind is one of {kinds}, not {kind!r}"
    for given, keys in _FIXED_BY.items():
        if given in _WORKLOADS[kind] and raw.get(given) is not None:
            unread.update({f"workload.{k}": f"derived from workload.{given}, so never read" for k in keys})
    out = {"kind": kind, **_section("workload", raw, _WORKLOADS[kind], unread,
                                    other_keys=("kind", *_READ_BY))}
    if kind == "quadratic":
        if out["hessian_diag"] is None and out["L"] < out["mu"]:
            raise ConfigError("workload.L", f"must be >= mu ({out['mu']}), got {out['L']}")
        dim = out["dim"] if out["hessian_diag"] is None else len(out["hessian_diag"])
        for key, spec in _BROADCAST.items():
            name, value = f"workload.{key}", raw.get(key, spec.default)
            out[key] = replace(spec, sequence=isinstance(value, list)).check(name, value)
            if isinstance(value, list) and len(value) != dim:
                raise ConfigError(name, f"length {len(value)} != dim {dim}")
    elif kind == "logistic":
        if out["n_samples"] % 2:
            raise ConfigError("workload.n_samples",
                              f"must be even (two balanced classes), got {out['n_samples']}")
    elif out["widths"] is not None:
        if len(out["widths"]) < 2:
            raise ConfigError("workload.widths", "must be a list of at least two layer widths")
        _WORKLOADS["mlp"]["classes"].check("workload.widths", out["widths"][-1])
    return out


def _parse_algo(raw, unread: dict[str, str]) -> dict:
    """The algo section; enters the variant's unread keys in `unread`."""
    out = _section("algo", raw, {"variant": _VARIANT}, unread, other_keys=tuple(_OPTIMIZERS))
    variant = out["variant"]
    rules = VARIANTS[variant]
    unread.update(dict.fromkeys(rules.unread, f"variant {variant!r} fixes it or never reads it"))
    for section, table in _OPTIMIZERS.items():
        if f"algo.{section}" not in unread:
            out[section] = _section(f"algo.{section}", raw.get(section, {}), table, unread,
                                    asdict(getattr(rules, section)))
    return out


def _parse_schedule(raw, unread: dict[str, str]) -> dict:
    out = _section("schedule", raw, _SCHEDULE, unread)
    if out.get("lr_schedule") == "warmup_cosine" and out["lr_warmup_steps"] < 1:
        raise ConfigError("schedule.lr_warmup_steps", "warmup_cosine needs lr_warmup_steps >= 1")
    return out


def parse_config(text: str, given: dict | None = None) -> RunConfig:
    """The run config of a JSON document. A key its run does not read is
    rejected if `given` (by default the whole document) holds it, and left
    out if not: a sweep cell gives only the key it sets."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be a JSON object")
    version = raw.pop("schema_version", SCHEMA_VERSION)  # as a normalized dump writes it
    Spec(int, SCHEMA_VERSION, choices=(SCHEMA_VERSION,)).check("schema_version", version)
    unread: dict[str, str] = {}  # dotted key -> why its run does not read it
    top = _section("", raw, TOP_KEYS, {}, other_keys=("workload", "algo", "schedule", "cluster"))
    algo = _parse_algo(raw.get("algo", {}), unread)
    workload = _parse_workload(raw.get("workload", {}), unread)
    schedule = _parse_schedule(raw.get("schedule", {}), unread)
    cluster_raw = raw.get("cluster", {})
    cluster = _section("cluster", cluster_raw, _CLUSTER, unread, other_keys=("allreduce",))
    allreduce_raw = cluster_raw.get("allreduce", {})
    cluster["allreduce"] = _section("cluster.allreduce", allreduce_raw, _ALLREDUCE, unread)
    if algo["variant"] == "palsgd_theory" and workload["kind"] != "quadratic":
        raise ConfigError("algo.variant", "palsgd_theory needs the quadratic workload (known mu, L, sigma)")

    cfg = RunConfig(workload=workload, algo=algo, schedule=schedule, cluster=cluster, **top)
    # fail fast on anything the dataclass constructors would reject later
    cfg.build_variant()
    workload_obj = cfg.workload_object()
    if not workload_obj.has_eval:
        unread["eval_every"] = "read only on a workload with an evaluation set"
    for key, why in unread.items():
        if _holds(raw if given is None else given, key):
            raise ConfigError(key, why)
    cfg.build_schedule(workload_obj)
    cfg.build_cluster()
    train = getattr(workload_obj, "train", None)
    if train is not None and cfg.workers > len(train):
        raise ConfigError("workers", f"{cfg.workers} workers but only {len(train)} training "
                                     "samples; each worker's shard needs one")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())
