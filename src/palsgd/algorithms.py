"""Unified trainer for DDP, Local SGD, DiLoCo, and PALSGD.

All variants share one bulk-synchronous step loop over K workers whose state
is stacked: parameters are the rows of a (K, d) array, inner-optimizer
moments are (K, d) arrays and step counts a (K,) vector. Each iteration a
worker either takes a gradient step through its inner optimizer or, for
PALSGD with probability p, a communication-free pseudo-synchronization step
that mixes its parameters toward the last-synced global model:

    x_k <- x_k - (alpha_t * eta_t / p) * (x_k - x_global)

so one step is one Bernoulli-masked row update of the (K, d) array. No
per-worker anchor (a worker's copy of the last-synced model) is stored: it
would be set at every sync round and every DDP step, exactly when the global
model is, to the same value, so the two are always equal.

Every H steps (and once at the end of a partial window) a sync round
aggregates the outer gradient delta = x_global - mean_k(x_k), applies the
outer optimizer, and resets every worker's parameters to the new global
model. DDP instead all-reduces gradients every step. Local SGD and DiLoCo are
the p = 0 special cases with, respectively, plain-averaging and
adamw/nesterov optimizer pairings, which the equivalence tests rely on.

Random draws are stacked too. There is one stream per purpose (Bernoulli
coins, data, clock jitter), and each step makes one draw from it for all K
workers, a (K, ...) block whose row k is worker k's. The data stream draws
its block at every step, even when every row mixes, so block n belongs to
step n, and a worker's sample at step t does not depend on p or on K; rows
that mix discard theirs. Every row is still rounded as that worker's own 1-D
update.

A leading replica axis runs S seeds of one configuration as one batch: the
state is (S*K, d), replica-major, and the global models (S, d). Each replica
keeps its own streams, keyed by its seed, its shards and its row of the
replica-major SimClock; every reduction runs along one replica's K rows in a
lone run's order, and all else is elementwise, so each replica is
bit-identical to a run of its seed alone. Everything inside the loop keeps
the replica axis; only `run_training`'s result drops it, for an int seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cluster import ClusterSpec, CommEvent, SimClock
from .fields import ConfigError, check_fields, option
from .optimizers import (InnerOptConfig, InnerOptState, OuterOptConfig,
                         OuterOptState, inner_step, outer_step)
from .vecmath import (PURPOSE_BERNOULLI, PURPOSE_DATA, PURPOSE_INIT,
                      ParamVector, RngStream, mean_of, row_norms_sq)


@dataclass(frozen=True)
class Schedule:
    """Step-size / mixing-rate schedule plus the loop structure constants."""

    alpha: float = option(float, low=0, low_open=True)
    eta: float = option(float, 0.0, low=0)
    p: float = option(float, 0.0, low=0, high=1)
    sync_interval: int = option(int, 1, low=1)
    warmup_steps: int = option(int, 0, low=0)
    total_steps: int = option(int, 1, low=1)
    lr_schedule: str = option(str, "constant", choices=("constant", "warmup_cosine"))
    lr_warmup_steps: int = option(int, 0, low=0)
    # Exact alpha*eta product. The mixing update only ever consumes the
    # product, so theory mode pins it to p/(2H) directly rather than
    # re-multiplying two rounded floats.
    alpha_eta: float | None = None
    # w_{t+1}/w_t for the weighted average iterate; 1/(1 - mu*alpha) in
    # theory mode, None disables tracking.
    iterate_weight_growth: float | None = None

    def __post_init__(self):
        check_fields(self)

    @property
    def effective_warmup(self) -> int:
        """Warmup length rounded up to a sync boundary."""
        if self.warmup_steps == 0:
            return 0
        h = self.sync_interval
        return ((self.warmup_steps + h - 1) // h) * h

    def alpha_at(self, t: int) -> float:
        if self.lr_schedule == "constant":
            return self.alpha
        w = self.lr_warmup_steps
        if t < w:
            return self.alpha * (t + 1) / w
        span = max(1, self.total_steps - w)
        return self.alpha * 0.5 * (1.0 + math.cos(math.pi * (t - w) / span))

    def mix_coefficient(self, t: int) -> float:
        """alpha_t * eta_t / p, the pseudo-sync contraction coefficient."""
        if self.p <= 0:
            raise ValueError("mixing step requested with p = 0")
        if self.alpha_eta is not None and self.lr_schedule == "constant":
            return self.alpha_eta / self.p
        return self.alpha_at(t) * self.eta / self.p


def theory_schedule(mu: float, smoothness: float, p: float, sync_interval: int,
                    total_steps: int, workers: int, sigma: float, d0: float,
                    warmup_steps: int = 0) -> Schedule:
    """Constant schedule realizing the convergence-theory step sizes.

    alpha = min(p / (48 L H), ln(mu^2 d0 T^2 K / sigma^2) / (mu T)) and
    eta = p / (2 H alpha), so alpha*eta = p/(2H); the average-iterate weights
    grow by 1/(1 - mu*alpha) per step. sigma = 0 (or a log argument <= 1)
    falls back to the p/(48 L H) cap since the log branch is undefined there.
    """
    if mu <= 0 or smoothness <= 0 or smoothness < mu:
        raise ValueError("need 0 < mu <= smoothness")
    if not 0.0 < p <= 0.5:
        raise ConfigError("p", f"theory schedule requires p in (0, 0.5], got {p}")
    if sync_interval < 1 or total_steps < 1 or workers < 1:
        raise ValueError("sync_interval, total_steps and workers must be >= 1")
    if sigma < 0 or d0 <= 0:
        raise ValueError("need sigma >= 0 and d0 > 0")

    cap = p / (48.0 * smoothness * sync_interval)
    alpha = cap
    if sigma > 0:
        arg = mu * mu * d0 * total_steps * total_steps * workers / (sigma * sigma)
        if arg > 1.0:
            alpha = min(cap, math.log(arg) / (mu * total_steps))
    product = p / (2.0 * sync_interval)
    return Schedule(
        alpha=alpha,
        eta=product / alpha,
        p=p,
        sync_interval=sync_interval,
        warmup_steps=warmup_steps,
        total_steps=total_steps,
        alpha_eta=product,
        iterate_weight_growth=1.0 / (1.0 - mu * alpha),
    )


@dataclass(frozen=True)
class VariantRules:
    """One variant's preset optimizers, the sections of them it pins, the
    schedule keys it derives itself, and whether it mixes (else p is 0)."""

    inner: InnerOptConfig
    outer: OuterOptConfig
    pinned: tuple[str, ...] = ()
    derived: tuple[str, ...] = ()
    mixes: bool = False


_SGD, _AVERAGING = InnerOptConfig(), OuterOptConfig(variant="sgd", lr=1.0)
_ADAMW = InnerOptConfig(variant="adamw", clip_norm=1.0)
_NESTEROV = OuterOptConfig(variant="nesterov", lr=0.7)
# ddp never runs an outer step and local_sgd syncs by plain averaging;
# palsgd_theory runs the optimizers and schedule its convergence theory assumes
VARIANTS = {
    "ddp": VariantRules(_SGD, _AVERAGING, pinned=("outer",)),
    "local_sgd": VariantRules(_SGD, _AVERAGING, pinned=("outer",)),
    "diloco": VariantRules(_ADAMW, _NESTEROV),
    "palsgd": VariantRules(_ADAMW, _NESTEROV, mixes=True),
    "palsgd_theory": VariantRules(_SGD, _AVERAGING, pinned=("inner", "outer"), mixes=True,
                                  derived=("alpha", "eta", "lr_schedule", "lr_warmup_steps")),
}


@dataclass(frozen=True)
class AlgoVariant:
    tag: str = option(str, choices=tuple(VARIANTS))
    inner: InnerOptConfig
    outer: OuterOptConfig

    def __post_init__(self):
        check_fields(self)
        rules = VARIANTS[self.tag]
        for section in rules.pinned:
            if getattr(self, section) != getattr(rules, section):
                raise ConfigError(section, f"variant {self.tag!r} fixes its {section} optimizer")

    @property
    def uses_mixing(self) -> bool:
        return VARIANTS[self.tag].mixes


def make_variant(tag: str, inner: InnerOptConfig | None = None,
                 outer: OuterOptConfig | None = None) -> AlgoVariant:
    """The variant `tag`, with its VARIANTS presets for the optimizers not given."""
    rules = VARIANTS.get(tag) if isinstance(tag, str) else None
    if rules is not None:  # an unknown tag is rejected by AlgoVariant
        inner, outer = inner or rules.inner, outer or rules.outer
    return AlgoVariant(tag=tag, inner=inner, outer=outer)


@dataclass
class Workers:
    """S replicas of K workers, stacked replica-major: row s*K + k of `x` and
    of the optimizer state is worker k of replica s, which draws from its own
    streams, keyed (seed_s, 0, purpose), and its own shards."""

    x: np.ndarray                   # (S*K, d) parameters
    inner: InnerOptState
    shards: list                    # per replica, the workload's shards(K, seed_s)
    data_streams: list[RngStream]
    bern_streams: list[RngStream]

    @classmethod
    def start(cls, x0: np.ndarray, inner: InnerOptConfig, shards: list,
              seeds: list[int]) -> "Workers":
        """K = len(shards[s]) workers per replica at its row of x0 (S, d), fresh state."""
        x = np.repeat(x0, len(shards[0]), axis=0)
        return cls(x=x, inner=InnerOptState.fresh(inner, *x.shape), shards=list(shards),
                   data_streams=[RngStream(s, 0, PURPOSE_DATA) for s in seeds],
                   bern_streams=[RngStream(s, 0, PURPOSE_BERNOULLI) for s in seeds])

    @property
    def stacked(self) -> np.ndarray:
        """The (S, K, d) view of `x`."""
        return self.x.reshape(len(self.shards), -1, self.x.shape[1])

    def draw(self, workload, rows: np.ndarray):
        """Samples for the rows set in the (S*K,) mask `rows`, each replica
        drawing from its own stream and shards as it would alone."""
        parts = [workload.draw_sample(stream, shards, mask.nonzero()[0])
                 for stream, shards, mask in zip(self.data_streams, self.shards,
                                                 rows.reshape(len(self.shards), -1))]
        return np.concatenate(parts)


@dataclass
class StepRecord:
    step: int
    sim_time_s: float
    train_metric: float
    consensus_sq: float
    spread_sq: float
    comm_count: int
    comm_seconds: float
    eval_loss: float | None = None
    eval_acc: float | None = None


@dataclass
class Diagnostics:
    # with a replica axis, records and window_mixing_counts hold one list per replica
    records: list[StepRecord] = field(default_factory=list)
    # one tuple of per-worker mixing-step counts per sync window
    window_mixing_counts: list[tuple[int, ...]] = field(default_factory=list)
    # flat over the S*K workers, replica-major
    mixing_steps_per_worker: list[int] = field(default_factory=list)
    gradient_steps_per_worker: list[int] = field(default_factory=list)


@dataclass
class DivergenceReport:
    step: int
    worker: int | None
    last_record: StepRecord | None
    replica: int = 0


@dataclass
class TrainResult:
    global_model: ParamVector
    diagnostics: Diagnostics
    weighted_average: ParamVector | None
    # the SimClock's events, times and comm totals, replica axis dropped for an int seed
    events: list[CommEvent]
    worker_time: np.ndarray
    comm_seconds: float
    divergence: DivergenceReport | None = None

    @property
    def diverged(self) -> bool:
        return self.divergence is not None


def consensus_probe(x: np.ndarray, global_x: np.ndarray,
                    xbar: np.ndarray) -> tuple[list[float], list[float]]:
    """Per replica of the (S, K, d) stack x, with (S, d) global_x and xbar:
    (consensus distance vs the global copy, spread around the worker mean
    xbar), each a sum of per-row squared norms in worker order over K."""
    s, k, d = x.shape
    out = []
    for ref in (global_x, xbar):
        norms = row_norms_sq((x - ref[:, None]).reshape(s * k, d)).reshape(s, k)
        out.append([sum(rows) / k for rows in norms.tolist()])
    return out[0], out[1]


def palsgd_local_step(workers: Workers, global_x: np.ndarray, schedule: Schedule, t: int,
                      workload, clock: SimClock) -> np.ndarray:
    """One local iteration of every worker, against the (S, d) global models;
    returns the (S*K,) mask of rows that mixed."""
    x = workers.x
    k = x.shape[0] // len(global_x)
    p = schedule.p
    if p > 0.0:
        mixing = np.concatenate([s.uniform_vector(k) for s in workers.bern_streams]) <= p
    else:
        mixing = np.zeros(x.shape[0], dtype=bool)
    mixed = mixing.nonzero()[0]
    if mixed.size:
        coeff = schedule.mix_coefficient(t)
        anchor = global_x.take(mixed // k, 0)  # each mixed row's replica's global model
        x[mixed] = x[mixed] - coeff * (x[mixed] - anchor)
    stepping = ~mixing
    samples = workers.draw(workload, stepping)
    stepped = stepping.nonzero()[0]
    if stepped.size:
        g = workload.stochastic_gradient(x[stepped], samples)
        inner_step(workers.inner, x, g, schedule.alpha_at(t) / (1.0 - p), stepped)
    clock.advance_step(stepping)
    return mixing


def sync_round(workers: Workers, global_x: np.ndarray, outer_state: OuterOptState,
               clock: SimClock, t: int, reset_inner: bool = False):
    """Per replica, all-reduce the outer gradient, update the (S, d) global
    models and reset the replica's workers to its new one.

    Returns the new global models, the outer state and the drift of the
    window that closes here: `consensus_probe` of the rows before the reset,
    against the old global models and the all-reduced mean.
    """
    x = workers.stacked
    m = mean_of(x)
    # rows that blew up this step give inf - inf here; the trainer reports
    # the divergence right after the step and records nothing from it
    with np.errstate(invalid="ignore"):
        drift = consensus_probe(x, global_x, m)
    delta = global_x - m
    candidate, outer_state = outer_step(outer_state, global_x, delta)
    # Plain averaging must yield the mean bit-exactly (global - (global - m)
    # reintroduces rounding), so the lr-1 momentum-free case short-circuits.
    new_global = m if outer_state.config.is_plain_averaging else candidate
    x[:] = new_global[:, None, :]
    if reset_inner:
        workers.inner = InnerOptState.fresh(workers.inner.config, *workers.x.shape)
    for replica in range(len(new_global)):
        clock.record_allreduce(t, new_global.shape[1], replica)
    return new_global, outer_state, drift


def ddp_step(workers: Workers, schedule: Schedule, t: int,
             workload, clock: SimClock) -> np.ndarray:
    """Gradient all-reduce every step: identical updates on every worker of a
    replica. Returns the (S, d) new global models, row s that of replica s."""
    x = workers.x
    everyone = np.ones(x.shape[0], dtype=bool)
    grads = workload.stochastic_gradient(x, workers.draw(workload, everyone))
    clock.advance_step(everyone)
    gbar = mean_of(grads.reshape(workers.stacked.shape))
    k = x.shape[0] // len(gbar)
    inner_step(workers.inner, x, gbar.repeat(k, 0), schedule.alpha_at(t))
    for replica in range(len(gbar)):
        clock.record_allreduce(t, x.shape[1], replica)
    return x[::k].copy()


class _WeightedAverage:
    """Online Sum(w_t x_t)/Sum(w_t) of (d,) or (S, d) models, geometric weights, overflow-safe."""

    def __init__(self, shape, growth: float):
        self.growth = growth
        self.value = np.zeros(shape)
        self._w = 1.0
        self._total = 0.0

    def add(self, x: np.ndarray) -> None:
        self._total += self._w
        self.value += (self._w / self._total) * (x - self.value)
        self._w *= self.growth
        if self._w > 1e200:
            self._w *= 1e-200
            self._total *= 1e-200


def run_training(workload, variant: AlgoVariant, schedule: Schedule,
                 cluster: ClusterSpec, seed: int | Sequence[int],
                 record_every: int | None = None,
                 eval_every: int | None = None) -> TrainResult:
    """Run one training simulation per seed; deterministic given (config, seed).

    `seed` is an int or a sequence of S seeds, run as one stacked batch in
    which each replica is bit-identical to a run of its seed alone. A
    sequence gives (S, d) models, one list of records, of window counts and
    of events per replica, (S, K) worker times and S comm totals, as the
    replica-major SimClock keeps them; an int is S = 1, and this function is
    the one place that drops the axis for it. Per-worker step counts are
    flat over the S*K workers, replica-major. The batch stops at the first
    step with a non-finite row and reports the first replica with one, at
    the step, worker and last finite record of that replica's run alone.

    A StepRecord is taken after every step that ends in an all-reduce: every
    DDP step (warmup included) and every sync round, the final step among
    them. It is also taken at each step t with t % record_every == 0 when
    `record_every` is given, and at each eval step, (t + 1) % eval_every == 0,
    when the workload has an evaluation set. After an all-reduce,
    `train_metric` and the evaluation read the new global model, which every
    worker then holds; at a sync round `consensus_sq` and `spread_sq` are the
    drift of the window that closed, probed before the reset, and at a DDP
    step they are 0.0. At any other step the record reads the worker mean and
    probes the rows as they are.
    """
    if not variant.uses_mixing and schedule.p != 0.0:
        raise ValueError(f"variant {variant.tag!r} takes no mixing steps; schedule.p must be 0")
    batched = np.ndim(seed) > 0
    seeds = list(seed) if batched else [seed]
    n_workers = cluster.workers
    total = schedule.total_steps
    h = schedule.sync_interval
    warmup = total if variant.tag == "ddp" else min(schedule.effective_warmup, total)

    x0 = np.stack([workload.init_params(RngStream(s, 0, PURPOSE_INIT)) for s in seeds])
    workers = Workers.start(x0, variant.inner, [workload.shards(n_workers, s) for s in seeds],
                            seeds)
    global_x = x0.copy()
    outer_state = OuterOptState.fresh(variant.outer, x0.shape)
    clock = SimClock(cluster, seeds)
    records: list[list[StepRecord]] = [[] for _ in seeds]
    windows: list[list[tuple[int, ...]]] = [[] for _ in seeds]
    # every worker takes one mixing or one gradient step per iteration, and a
    # window's mixing counts are the growth of mixing_steps since the last sync
    mixing_steps = np.zeros(workers.x.shape[0], dtype=np.int64)
    mixed_at_sync = mixing_steps.copy()
    averager = (_WeightedAverage(x0.shape, schedule.iterate_weight_growth)
                if schedule.iterate_weight_growth is not None else None)

    objective = getattr(workload, "suboptimality", workload.full_objective)
    evaluates = workload.has_eval and eval_every is not None

    def record(t: int, drift, evaluate: bool) -> None:
        # after an all-reduce every worker holds the new global model, and
        # `drift` is the step's; otherwise read the worker mean and probe
        if drift is None:
            x = workers.stacked
            at = mean_of(x)
            drift = consensus_probe(x, global_x, at)
        else:
            at = global_x
        xi, spread = drift
        sim_times = clock.times.max(axis=1).tolist()
        for r, rows in enumerate(records):
            rec = StepRecord(t, sim_times[r], objective(at[r]), xi[r], spread[r],
                             len(clock.events[r]), clock.comm_seconds[r])
            if evaluate:
                ev = workload.evaluate(at[r])
                rec.eval_loss = ev.get("eval_loss")
                rec.eval_acc = ev.get("eval_acc")
            rows.append(rec)

    divergence = None
    for t in range(total):
        if averager is not None:
            averager.add(global_x)

        drift = None  # set by an all-reduce
        if t < warmup:
            global_x = ddp_step(workers, schedule, t, workload, clock)
            drift = ([0.0] * len(seeds),) * 2  # every worker is on the global model
        else:
            mixing_steps += palsgd_local_step(workers, global_x, schedule, t, workload, clock)
            if (t + 1) % h == 0 or t == total - 1:
                global_x, outer_state, drift = sync_round(
                    workers, global_x, outer_state, clock, t,
                    reset_inner=variant.inner.reset_at_sync)
                window = (mixing_steps - mixed_at_sync).reshape(len(seeds), -1).tolist()
                for rows, counts in zip(windows, window):
                    rows.append(tuple(counts))
                mixed_at_sync = mixing_steps.copy()

        if not np.isfinite(workers.x).all():
            # the first bad row is the first bad worker of the first replica
            # that has one; keep only finite records in the dump, and point
            # the report at that replica's last one taken before the blow-up
            finite = np.isfinite(workers.x).all(axis=1)
            replica, worker = divmod(int(np.argmin(finite)), n_workers)
            last_finite = next((r for r in reversed(records[replica])
                                if math.isfinite(r.train_metric)), None)
            divergence = DivergenceReport(t, worker, last_finite, replica)
            break

        # the final step always all-reduces: a partial last window syncs too
        evaluate = evaluates and ((t + 1) % eval_every == 0 or t == total - 1)
        if (drift is not None or evaluate
                or (record_every is not None and t % record_every == 0)):
            record(t, drift, evaluate)

    def view(per_replica):
        return per_replica if batched else per_replica[0]

    diag = Diagnostics(view(records), view(windows), mixing_steps.tolist(),
                       (t + 1 - mixing_steps).tolist())
    return TrainResult(global_model=view(global_x), diagnostics=diag,
                       weighted_average=view(averager.value) if averager else None,
                       events=view(clock.events), worker_time=view(clock.times),
                       comm_seconds=view(clock.comm_seconds), divergence=divergence)
