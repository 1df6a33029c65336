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

Each worker keeps its own random streams and data shard, and data is drawn
only for the rows that take a gradient step, so every stream sees the same
draws as a worker-by-worker loop would, and every row is rounded as that
worker's own 1-D update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def theory_weights(mu: float, alpha: float, total_steps: int) -> np.ndarray:
    """w_t = (1 - mu*alpha)^-(t+1), normalized to sum to 1."""
    growth = 1.0 / (1.0 - mu * alpha)
    logs = np.arange(1, total_steps + 1) * math.log(growth)
    w = np.exp(logs - logs.max())
    return w / w.sum()


@dataclass(frozen=True)
class AlgoVariant:
    tag: str = option(str, choices=("ddp", "local_sgd", "diloco", "palsgd", "palsgd_theory"))
    inner: InnerOptConfig
    outer: OuterOptConfig

    def __post_init__(self):
        check_fields(self)
        if self.tag == "palsgd_theory":
            if self.inner.variant != "sgd":
                raise ValueError("palsgd_theory requires the sgd inner optimizer")
            if not self.outer.is_plain_averaging:
                raise ValueError("palsgd_theory requires outer sgd with step size 1")
        if self.tag == "local_sgd" and not self.outer.is_plain_averaging:
            raise ValueError("local_sgd syncs by plain parameter averaging (outer sgd, lr 1)")

    @property
    def uses_mixing(self) -> bool:
        return self.tag in ("palsgd", "palsgd_theory")


def make_variant(tag: str, inner: InnerOptConfig | None = None,
                 outer: OuterOptConfig | None = None) -> AlgoVariant:
    """Variant presets: decoupled adamw/nesterov for diloco and palsgd, sgd
    with plain averaging for the others. palsgd_theory ignores overrides."""
    if tag in ("diloco", "palsgd"):
        inner = inner or InnerOptConfig(variant="adamw", clip_norm=1.0)
        outer = outer or OuterOptConfig(variant="nesterov", lr=0.7)
    elif tag == "palsgd_theory":
        inner, outer = InnerOptConfig(), OuterOptConfig(variant="sgd", lr=1.0)
    else:  # ddp, local_sgd
        inner, outer = inner or InnerOptConfig(), outer or OuterOptConfig(variant="sgd", lr=1.0)
    return AlgoVariant(tag=tag, inner=inner, outer=outer)


@dataclass
class Workers:
    """The K workers, stacked: row k of `x` and of the optimizer state is worker k."""

    x: np.ndarray                   # (K, d) parameters
    inner: InnerOptState
    shards: list                    # per worker, as the workload's shards() gives them
    data_streams: list[RngStream]
    bern_streams: list[RngStream]

    @classmethod
    def start(cls, x0: ParamVector, inner: InnerOptConfig, shards: list, seed: int) -> "Workers":
        """K = len(shards) workers, every one at x0 with a fresh optimizer state."""
        k = len(shards)
        return cls(x=np.tile(x0, (k, 1)), inner=InnerOptState.fresh(inner, k, x0.shape[0]),
                   shards=list(shards),
                   data_streams=[RngStream(seed, w, PURPOSE_DATA) for w in range(k)],
                   bern_streams=[RngStream(seed, w, PURPOSE_BERNOULLI) for w in range(k)])


@dataclass
class StepRecord:
    step: int
    sim_time_s: float
    train_metric: float
    consensus_sq: float
    mean_model_sq: float
    comm_count: int
    comm_seconds: float
    eval_loss: float | None = None
    eval_acc: float | None = None


@dataclass
class Diagnostics:
    records: list[StepRecord] = field(default_factory=list)
    # one tuple of per-worker mixing-step counts per sync window
    window_mixing_counts: list[tuple[int, ...]] = field(default_factory=list)
    mixing_steps_per_worker: list[int] = field(default_factory=list)
    gradient_steps_per_worker: list[int] = field(default_factory=list)
    sync_steps: list[int] = field(default_factory=list)

    @property
    def sync_count(self) -> int:
        return len(self.sync_steps)


@dataclass
class DivergenceReport:
    step: int
    worker: int | None
    last_record: StepRecord | None


@dataclass
class TrainResult:
    global_model: ParamVector
    diagnostics: Diagnostics
    weighted_average: ParamVector | None
    clock: SimClock
    diverged: bool = False
    divergence: DivergenceReport | None = None


def consensus_probe(x: np.ndarray, global_x: ParamVector) -> tuple[float, float]:
    """(consensus distance vs the global copy, spread around the worker mean)."""
    k = x.shape[0]
    xi = sum(row_norms_sq(x - global_x).tolist()) / k
    spread = sum(row_norms_sq(x - mean_of(x)).tolist()) / k
    return xi, spread


def palsgd_local_step(workers: Workers, global_x: ParamVector, schedule: Schedule, t: int,
                      workload, clock: SimClock) -> np.ndarray:
    """One local iteration of every worker; returns the (K,) mask of rows that mixed."""
    x = workers.x
    p = schedule.p
    if p > 0.0:
        mixing = np.array([s.uniform() <= p for s in workers.bern_streams])
    else:
        mixing = np.zeros(x.shape[0], dtype=bool)
    mixed = np.flatnonzero(mixing)
    if mixed.size:
        coeff = schedule.mix_coefficient(t)
        x[mixed] = x[mixed] - coeff * (x[mixed] - global_x)
    stepped = np.flatnonzero(~mixing)
    if stepped.size:
        samples = [workload.draw_sample(workers.data_streams[k], workers.shards[k])
                   for k in stepped.tolist()]
        g = workload.stochastic_gradient(x[stepped], samples)
        inner_step(workers.inner, x, g, schedule.alpha_at(t) / (1.0 - p), stepped)
    clock.advance_step(~mixing)
    return mixing


def sync_round(workers: Workers, global_x: ParamVector,
               outer_state: OuterOptState, clock: SimClock, t: int,
               reset_inner: bool = False) -> tuple[ParamVector, OuterOptState, CommEvent]:
    """All-reduce the outer gradient, update the global model, reset the workers to it."""
    m = mean_of(workers.x)
    delta = global_x - m
    candidate, outer_state = outer_step(outer_state, global_x, delta)
    # Plain averaging must yield the mean bit-exactly (global - (global - m)
    # reintroduces rounding), so the lr-1 momentum-free case short-circuits.
    new_global = m if outer_state.config.is_plain_averaging else candidate
    workers.x[:] = new_global
    if reset_inner:
        workers.inner = InnerOptState.fresh(workers.inner.config, *workers.x.shape)
    event = clock.record_allreduce(t, new_global.shape[0])
    return new_global, outer_state, event


def ddp_step(workers: Workers, schedule: Schedule, t: int,
             workload, clock: SimClock) -> ParamVector:
    """Gradient all-reduce every step: identical updates on every worker.

    Returns the new global model, which every row of `workers.x` equals."""
    x = workers.x
    samples = [workload.draw_sample(s, shard)
               for s, shard in zip(workers.data_streams, workers.shards)]
    grads = workload.stochastic_gradient(x, samples)
    clock.advance_step(np.ones(x.shape[0], dtype=bool))
    gbar = mean_of(grads)
    inner_step(workers.inner, x, gbar[None, :], schedule.alpha_at(t))
    clock.record_allreduce(t, x.shape[1])
    return x[0].copy()


class _WeightedAverage:
    """Online Sum(w_t x_t)/Sum(w_t) with geometric weights, overflow-safe."""

    def __init__(self, dim: int, growth: float):
        self.growth = growth
        self.value = np.zeros(dim)
        self._w = 1.0
        self._total = 0.0

    def add(self, x: ParamVector) -> None:
        self._total += self._w
        self.value += (self._w / self._total) * (x - self.value)
        self._w *= self.growth
        if self._w > 1e200:
            self._w *= 1e-200
            self._total *= 1e-200


def run_training(workload, variant: AlgoVariant, schedule: Schedule,
                 cluster: ClusterSpec, seed: int, record_every: int = 1,
                 eval_every: int | None = None) -> TrainResult:
    """Run one full training simulation; deterministic given (config, seed)."""
    if not variant.uses_mixing and schedule.p != 0.0:
        raise ValueError(f"variant {variant.tag!r} takes no mixing steps; schedule.p must be 0")
    n_workers = cluster.workers
    dim = workload.dim
    total = schedule.total_steps
    h = schedule.sync_interval
    warmup = total if variant.tag == "ddp" else min(schedule.effective_warmup, total)

    init_stream = RngStream(seed, 0, PURPOSE_INIT)
    x0 = workload.init_params(init_stream)
    workers = Workers.start(x0, variant.inner, workload.shards(n_workers, seed), seed)
    global_x = x0.copy()
    outer_state = OuterOptState.fresh(variant.outer, dim)
    clock = SimClock(cluster, seed)
    diag = Diagnostics()
    mixing_steps = np.zeros(n_workers, dtype=np.int64)
    gradient_steps = np.zeros(n_workers, dtype=np.int64)
    window_mix = np.zeros(n_workers, dtype=np.int64)
    averager = (_WeightedAverage(dim, schedule.iterate_weight_growth)
                if schedule.iterate_weight_growth is not None else None)

    def record(t: int) -> StepRecord:
        xbar = mean_of(workers.x)
        if hasattr(workload, "suboptimality"):
            metric = workload.suboptimality(xbar)
        else:
            metric = workload.full_objective(xbar)
        xi, spread = consensus_probe(workers.x, global_x)
        rec = StepRecord(
            step=t,
            sim_time_s=clock.global_time,
            train_metric=metric,
            consensus_sq=xi,
            mean_model_sq=spread,
            comm_count=len(clock.events),
            comm_seconds=clock.comm_seconds,
        )
        if workload.has_eval and eval_every is not None and ((t + 1) % eval_every == 0 or t == total - 1):
            ev = workload.evaluate(xbar)
            rec.eval_loss = ev.get("eval_loss")
            rec.eval_acc = ev.get("eval_acc")
        diag.records.append(rec)
        return rec

    def result(divergence: DivergenceReport | None = None) -> TrainResult:
        diag.mixing_steps_per_worker = mixing_steps.tolist()
        diag.gradient_steps_per_worker = gradient_steps.tolist()
        return TrainResult(global_model=global_x, diagnostics=diag,
                           weighted_average=averager.value if averager else None,
                           clock=clock, diverged=divergence is not None, divergence=divergence)

    for t in range(total):
        if averager is not None:
            averager.add(global_x)

        if t < warmup:
            global_x = ddp_step(workers, schedule, t, workload, clock)
            gradient_steps += 1
        else:
            mixing = palsgd_local_step(workers, global_x, schedule, t, workload, clock)
            mixing_steps += mixing
            gradient_steps += ~mixing
            window_mix += mixing
            if (t + 1) % h == 0 or t == total - 1:
                global_x, outer_state, _ = sync_round(
                    workers, global_x, outer_state, clock, t,
                    reset_inner=variant.inner.reset_at_sync)
                diag.sync_steps.append(t)
                diag.window_mixing_counts.append(tuple(window_mix.tolist()))
                window_mix[:] = 0

        finite = np.isfinite(workers.x).all(axis=1)
        if not finite.all():
            # keep only finite records in the dump; the report points at the
            # last one taken before the blow-up, and at the first bad worker
            last_finite = next((r for r in reversed(diag.records)
                                if math.isfinite(r.train_metric)), None)
            return result(DivergenceReport(step=t, worker=int(np.argmin(finite)),
                                           last_record=last_finite))

        if t % record_every == 0 or (t + 1) % h == 0 or t == total - 1:
            record(t)

    return result()
