"""Unified trainer for DDP, Local SGD, DiLoCo, and PALSGD.

All variants share one bulk-synchronous step loop over K workers whose state
is stacked: parameters are the rows of a (K, d) array, inner-optimizer
moments are (K, d) arrays and step counts a (K,) vector. Each iteration a
worker either takes a gradient step through its inner optimizer or, for
PALSGD with probability p, a communication-free pseudo-synchronization step
that mixes its parameters toward the last-synced global model:

    x_k <- x_k - (alpha_t * eta_t / p) * (x_k - x_global)

so one step is one full-width update of the (K, d) array. The anchor a
worker mixes toward is its row of the (S*K, d) array that the last
all-reduce produced: the start's repeat of x0, a sync round's repeat of the
new global models, or a DDP step's stepped rows. No line writes the workers'
rows in place, so the workers keep that array itself, with no copy, and each
of its rows is an exact copy of its replica's global model.

Every H steps (and once at the end of a partial window) a sync round
all-reduces the worker mean, lets the outer optimizer take its step on the
outer gradient delta = x_global - mean_k(x_k), its momentum buffer advancing
in place, and resets every worker's parameters to the new global model.
DDP instead all-reduces gradients every step. Local SGD and DiLoCo are the
p = 0 special cases with, respectively, plain-averaging and adamw/nesterov
optimizer pairings, which the equivalence tests rely on.

Random draws are stacked and chunked too. Each per-step purpose (Bernoulli
coins, data, clock jitter) is a `StreamChunks` that draws one chunk per
replica, one generator call, every C = max(1, 1024 // n) steps of n values
per worker: chunk c is draw c of the replica's stream, a worker-major
(K, C, n) block, and the i-th draw of a purpose is slot i % C of chunk
i // C. Every stream sets one shared Philox generator to its own key and
counter before it draws. Each chunk is written transposed into a
preallocated step-major (C, S, K, n) buffer, so a step's draw is one
contiguous (S*K, n) block of it, row s*K + k worker k's of replica s. The
coins are drawn only by PALSGD's local steps with p > 0, never in warmup;
`Coins` compares each chunk with p as it draws it, and copies it into new
step-major (C, S*K) mixing and stepping masks and a list of whether any
row mixes, so a local step takes its three by indexing.
The data draws sit behind the workload: `workload.sampler(K, seeds)` is the
run's one draw object (the quadratic's noise chunks, or the logistic and
MLP `Shards`), and `draw_sample(sampler, stepping)` gives a step's samples,
a row per worker. Every row takes its gradient step, rounded as that
worker's own 1-D update; the boolean `stepping` mask picks the rows whose
optimizer state advances, and the mixing rows take the mix instead.
The data chunks (noise, or with_replacement positions) serve one draw per
step whatever the mask, so a worker's sample at step t does not depend on p
or on K. epoch_shuffle reads no data stream: each shard permutes its epochs
by its own stream and advances only on its worker's gradient steps.

A leading replica axis runs S seeds of one configuration as one batch: the
state is (S*K, d), replica-major, and the global models (S, d). Each replica
keeps its own streams, keyed by its seed, its shards and its row of the
replica-major SimClock; every reduction runs along one replica's K rows in a
lone run's order, and all else is elementwise, so each replica is
bit-identical to a run of its seed alone. The replicas all-reduce at the
same steps, so a sync round or DDP step makes one `SimClock.allreduce`
call, which barriers every replica and logs one shared CommEvent per
replica; a record on the quadratic makes one objective call. Everything
inside the loop keeps the replica axis; only `run_training`'s result drops
it, for an int seed.

Records are columns, not objects, and their values are computed a block of
records at a time. A record takes its step, times and comm totals on the
spot, and holds the (S, d) models it evaluates and, when it probes, the
(S, K, d) rows with their two references; no line writes the workers' rows
in place, so it holds them without a copy. A block of pending records is
evaluated with one probe over their stacked rows and one objective call on
the quadratic when what they hold reaches RECORD_BLOCK_BYTES, and after the
last step. Each block gives (n, S) columns, concatenated at the end into the
(S, R) columns of `Diagnostics`, the one form a run's records take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .cluster import ClusterSpec, CommEvent, SimClock
from .fields import ConfigError, check_fields, option
from .optimizers import (InnerOptConfig, InnerOptState, OuterOptConfig,
                         OuterOptState, inner_step, outer_step)
from .vecmath import (PURPOSE_BERNOULLI, PURPOSE_INIT, ParamVector, RngStream,
                      StreamChunks, mean_of, row_norms_sq)


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
    lr_warmup_steps: int = option(int, 0, low=0, read_when=("warmup_cosine",))
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
        """Warmup length rounded up to a sync boundary, at most the whole run."""
        h = self.sync_interval
        return min((self.warmup_steps + h - 1) // h * h, self.total_steps)

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
    """One variant's preset optimizers, and the dotted config keys its runs
    never read: an ``algo`` section pinned to its preset, a schedule key it
    derives, or a key its loop never touches. It mixes unless it leaves
    ``schedule.p`` unread."""

    inner: InnerOptConfig
    outer: OuterOptConfig
    unread: tuple[str, ...] = ()


_SGD, _AVERAGING = InnerOptConfig(), OuterOptConfig(variant="sgd", lr=1.0)
_ADAMW = InnerOptConfig(variant="adamw", clip_norm=1.0)
_NESTEROV = OuterOptConfig(variant="nesterov", lr=0.7)
_NO_MIXING = ("schedule.eta", "schedule.p", "cluster.mixing_cost_fraction")
# ddp never syncs and local_sgd syncs by plain averaging; palsgd_theory
# runs the optimizers and schedule its convergence theory assumes
VARIANTS = {
    "ddp": VariantRules(_SGD, _AVERAGING, ("algo.outer", "algo.inner.reset_at_sync", *_NO_MIXING,
                                           "schedule.sync_interval", "schedule.warmup_steps")),
    "local_sgd": VariantRules(_SGD, _AVERAGING, ("algo.outer", *_NO_MIXING)),
    "diloco": VariantRules(_ADAMW, _NESTEROV, _NO_MIXING),
    "palsgd": VariantRules(_ADAMW, _NESTEROV),
    "palsgd_theory": VariantRules(_SGD, _AVERAGING, (
        "algo.inner", "algo.outer", "schedule.alpha", "schedule.eta", "schedule.lr_schedule",
        "schedule.lr_warmup_steps")),
}


@dataclass(frozen=True)
class AlgoVariant:
    tag: str = option(str, choices=tuple(VARIANTS))
    inner: InnerOptConfig
    outer: OuterOptConfig

    def __post_init__(self):
        check_fields(self)
        rules = VARIANTS[self.tag]
        for section in ("inner", "outer"):
            if f"algo.{section}" in rules.unread and getattr(self, section) != getattr(rules, section):
                raise ConfigError(section, f"variant {self.tag!r} fixes its {section} optimizer")

    @property
    def uses_mixing(self) -> bool:
        return "schedule.p" not in VARIANTS[self.tag].unread


def make_variant(tag: str, inner: InnerOptConfig | None = None,
                 outer: OuterOptConfig | None = None) -> AlgoVariant:
    """The variant `tag`, with its VARIANTS presets for the optimizers not given."""
    rules = VARIANTS.get(tag) if isinstance(tag, str) else None
    if rules is not None:  # an unknown tag is rejected by AlgoVariant
        inner, outer = inner or rules.inner, outer or rules.outer
    return AlgoVariant(tag=tag, inner=inner, outer=outer)


class Coins(StreamChunks):
    """The Bernoulli(p) coins of S replicas of K workers, one per worker and
    local step: a worker mixes where its coin's uniform is <= p.

    The coins are a `StreamChunks` of width 1 on the streams keyed
    (seed_s, 0, PURPOSE_BERNOULLI), whose fill compares each chunk's
    uniforms with p as it draws them. Each refill copies the chunk's
    step-major (C, S*K) mixing rows, column s*K + k worker k of replica s,
    and derives from them the stepping rows and whether each step mixes, so
    a mask handed out earlier is never written. At p = 0 no coin is drawn
    and every row steps.
    """

    def __init__(self, seeds: Sequence[int], workers: int, p: float):
        def flip(stream: RngStream, shape) -> np.ndarray:
            return stream.uniform_vector(shape) <= p if p > 0.0 else np.zeros(shape, bool)

        super().__init__(seeds, PURPOSE_BERNOULLI, workers, 1, flip, bool)

    def next(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """The next local step's (S*K,) mixing and stepping masks, and
        whether any row mixes."""
        slot = self.advance()
        return self.mixing[slot], self.stepping[slot], self.mixes[slot]

    def refill(self, chunk: int) -> None:
        """Draw chunk `chunk`, and copy its mixing rows out of the buffer
        that the next refill overwrites."""
        super().refill(chunk)
        self.mixing = self.rows[:, :, 0].copy()
        self.stepping = ~self.mixing
        self.mixes = self.mixing.any(axis=1).tolist()


@dataclass
class Workers:
    """S replicas of K workers, stacked replica-major: row s*K + k of `x` and
    of the optimizer state is worker k of replica s, which draws from its
    replica's streams, keyed (seed_s, 0, purpose), and its own shard."""

    x: np.ndarray                   # (S*K, d) parameters
    anchor: np.ndarray              # (S*K, d) the last all-reduce's rows: replica s's global model
    inner: InnerOptState
    sampler: object                 # the workload's data draws for all S*K workers
    coins: Coins

    @classmethod
    def start(cls, x0: np.ndarray, inner: InnerOptConfig, workload, workers: int,
              seeds: Sequence[int], p: float) -> "Workers":
        """`workers` workers per replica at its row of x0 (S, d), fresh state,
        flipping Bernoulli(p) coins."""
        x = np.repeat(x0, workers, axis=0)
        return cls(x=x, anchor=x, inner=InnerOptState.fresh(inner, *x.shape),
                   sampler=workload.sampler(workers, seeds), coins=Coins(seeds, workers, p))

    @property
    def stacked(self) -> np.ndarray:
        """The (S, K, d) view of `x`."""
        return self.x.reshape(len(self.coins.streams), -1, self.x.shape[1])


# a record's values in the order run_training appends them, `evaluated` last;
# the (R,) ones shared by the replicas, by dtype
RECORD_COLUMNS = ("step", "sim_time_s", "train_metric", "consensus_sq", "spread_sq",
                  "comm_count", "comm_seconds", "eval_loss", "eval_acc", "evaluated")
SHARED_COLUMNS = {"step": np.int64, "comm_count": np.int64, "evaluated": bool}
# the bytes of models and probed rows that pending records may hold before
# run_training computes their values as one block
RECORD_BLOCK_BYTES = 32 * 1024


@dataclass
class Diagnostics:
    # the run's records, record i at entry i of each RECORD_COLUMNS column:
    # (R,) for the SHARED_COLUMNS, else (S, R) floats, (R,) for an int seed,
    # with nan eval values where `evaluated` is False
    columns: dict[str, np.ndarray]
    # each worker's mixing-step count per sync window: (S, W, K), (W, K) for an int seed
    window_mixing_counts: np.ndarray
    # flat over the S*K workers, replica-major
    mixing_steps_per_worker: list[int]
    gradient_steps_per_worker: list[int]


@dataclass
class DivergenceReport:
    step: int
    worker: int | None
    # index of the replica's last record with a finite train_metric, or None
    last_record: int | None
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
                    xbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per replica of the (S, K, d) stack x, with (S, d) global_x and xbar:
    the (S,) consensus distances vs the global copy and spreads around the
    worker mean xbar, each the mean of the rows' squared norms, summed left
    to right over K (``np.add.accumulate``, as `mean_of` sums).

    Every replica's values depend on its own rows alone, so the trainer
    probes a block of records at once, their rows stacked along the replica
    axis, when it computes the block's values."""
    s, k, d = x.shape
    out = []
    for ref in (global_x, xbar):
        norms = row_norms_sq((x - ref[:, None]).reshape(s * k, d)).reshape(s, k)
        out.append(np.add.accumulate(norms, axis=1)[:, -1] / k)
    return out[0], out[1]


def palsgd_local_step(workers: Workers, schedule: Schedule, t: int,
                      workload, clock: SimClock) -> np.ndarray:
    """One local iteration of every worker, mixing toward its anchor row;
    returns the (S*K,) mask of rows that mixed, which take the mix in place
    of the step that every row computes."""
    mixing, stepping, mixes = workers.coins.next()
    samples = workload.draw_sample(workers.sampler, stepping)
    g = workload.stochastic_gradient(workers.x, samples)
    x = inner_step(workers.inner, workers.x, g, schedule.alpha_at(t) / (1.0 - schedule.p), stepping)
    if mixes:
        old = workers.x
        mixed = old - schedule.mix_coefficient(t) * (old - workers.anchor)
        np.copyto(x, mixed, where=mixing[:, None])
    workers.x = x
    clock.advance_step(stepping)
    return mixing


def sync_round(workers: Workers, global_x: np.ndarray, outer_state: OuterOptState,
               clock: SimClock, t: int):
    """Per replica, all-reduce the worker mean, take the outer step from the
    (S, d) global models and reset the replica's workers to its new one; the
    inner state starts afresh if its config says `reset_at_sync`.

    `outer_state` advances in place; the reset puts the workers' rows in a
    new array and leaves the old one as it was. Returns the new global
    models and the inputs of the closing window's drift: the (S, K, d) rows
    before the reset, the old global models and the all-reduced mean. The
    trainer passes them to `consensus_probe` when it computes the window's
    record.
    """
    x = workers.stacked
    m = mean_of(x)
    new_global = outer_step(outer_state, global_x, m)
    workers.x = workers.anchor = np.repeat(new_global, x.shape[1], axis=0)
    if workers.inner.config.reset_at_sync:
        workers.inner = InnerOptState.fresh(workers.inner.config, *workers.x.shape)
    clock.allreduce(t, new_global.shape[1])
    return new_global, (x, global_x, m)


def ddp_step(workers: Workers, schedule: Schedule, t: int,
             workload, clock: SimClock) -> np.ndarray:
    """Gradient all-reduce every step: identical updates on every worker of a
    replica. Returns the (S, d) new global models, row s that of replica s."""
    x = workers.x
    everyone = np.ones(x.shape[0], dtype=bool)
    samples = workload.draw_sample(workers.sampler, everyone)
    grads = workload.stochastic_gradient(x, samples)
    clock.advance_step(everyone)
    gbar = mean_of(grads.reshape(workers.stacked.shape))
    k = x.shape[0] // len(gbar)
    workers.x = workers.anchor = inner_step(workers.inner, x, gbar.repeat(k, 0),
                                            schedule.alpha_at(t), everyone)
    clock.allreduce(t, x.shape[1])
    return workers.x[::k].copy()


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
    sequence gives (S, d) models, (S, R) record columns, (S, W, K) window
    counts, one list of events per replica, (S, K) worker times and S comm
    totals, as the replica-major SimClock keeps them; an int is S = 1, and
    this function is the one place that drops the axis for it. Per-worker
    step counts are flat over the S*K workers, replica-major. The batch stops
    at the first step with a non-finite row and reports the first replica
    with one, at the step, worker and last finite record of that replica's
    run alone.

    A record is taken after every step that ends in an all-reduce: every DDP
    step (warmup included) and every sync round, the final step among them.
    It is also taken at each step t with t % record_every == 0 when
    `record_every` is given, and at each eval step, (t + 1) % eval_every == 0,
    when the workload has an evaluation set. After an all-reduce,
    `train_metric` and the evaluation read the new global model, which every
    worker then holds; at a sync round `consensus_sq` and `spread_sq` are the
    drift of the window that closed, probed on the rows before the reset, and
    at a DDP step they are 0.0. At any other step the record reads the worker
    mean and probes the rows as they are.

    A record's step, worker times and comm totals are taken at its step; its
    train metric, drift and evaluation are computed later, for a block of
    records at once: when the arrays the pending records hold reach
    RECORD_BLOCK_BYTES, after the last step, and after a divergence, before
    the report reads the train metrics. Each value is computed by the same
    per-row kernels as for a record alone, so the block boundaries move no
    bit.
    """
    if not variant.uses_mixing and schedule.p != 0.0:
        raise ValueError(f"variant {variant.tag!r} takes no mixing steps; schedule.p must be 0")
    batched = np.ndim(seed) > 0
    seeds = list(seed) if batched else [seed]
    n_replicas, n_workers = len(seeds), cluster.workers
    total = schedule.total_steps
    h = schedule.sync_interval
    warmup = total if variant.tag == "ddp" else schedule.effective_warmup

    x0 = np.stack([workload.init_params(RngStream(s, 0, PURPOSE_INIT)) for s in seeds])
    workers = Workers.start(x0, variant.inner, workload, n_workers, seeds, schedule.p)
    global_x = x0.copy()
    outer_state = OuterOptState.fresh(variant.outer, x0.shape)
    clock = SimClock(cluster, seeds)
    # per pending record: step, worker times, comm count, comm seconds, the
    # (S, d) models, whether to evaluate, and the probe's inputs or None
    pending: list[tuple] = []
    held = 0  # bytes of the arrays that only the pending records hold
    # per evaluated block, its (n,) and (n, S) columns in RECORD_COLUMNS order,
    # after an empty one: a run that diverges at its first step has no records
    blocks = [tuple(np.empty((0,) if name in SHARED_COLUMNS else (0, n_replicas),
                             SHARED_COLUMNS.get(name, float)) for name in RECORD_COLUMNS)]
    windows: list[np.ndarray] = []
    # every worker takes one mixing or one gradient step per iteration, and a
    # window's mixing counts are the growth of mixing_steps since the last sync
    mixing_steps = np.zeros(workers.x.shape[0], dtype=np.int64)
    mixed_at_sync = mixing_steps.copy()
    averager = (_WeightedAverage(x0.shape, schedule.iterate_weight_growth)
                if schedule.iterate_weight_growth is not None else None)

    # the quadratic's suboptimality takes the (n, S, d) stack in one call; the
    # other workloads' full objective takes one model at a time
    suboptimality = getattr(workload, "suboptimality", None)
    evaluates = workload.has_eval and eval_every is not None

    def record(t: int, models: np.ndarray, evaluate: bool, probe) -> None:
        nonlocal held
        pending.append((t, np.maximum.reduce(clock.times, axis=1), len(clock.events[0]),
                        list(clock.comm_seconds), models, evaluate, probe))
        # the references of a probe are as small as the models, and most are
        # another record's models
        held += models.nbytes + (probe[0].nbytes if probe else 0)
        if held >= RECORD_BLOCK_BYTES:
            evaluate_pending()

    def evaluate_pending() -> None:
        nonlocal held
        steps, times, counts, seconds, models, evaluated, probes = zip(*pending)
        pending.clear()
        held = 0
        values = (suboptimality(np.array(models)) if suboptimality is not None
                  else [[workload.full_objective(model) for model in at] for at in models])
        shape = (len(steps), n_replicas)
        consensus, spread = np.zeros((2, *shape))  # a DDP record's: all on the global model
        probed = [i for i, probe in enumerate(probes) if probe is not None]
        if probed:
            # a lone probed record's held arrays are probed as they are; else
            # the stacked rows replace the held ones before the probe
            x, g, xbar = (probes[probed[0]] if len(probed) == 1
                          else map(np.concatenate, zip(*(probes[i] for i in probed))))
            del probes
            drift = consensus_probe(x, g, xbar)
            consensus[probed], spread[probed] = (a.reshape(-1, n_replicas) for a in drift)
        loss, acc = np.full((2, *shape), np.nan)
        for i in compress(range(len(steps)), evaluated):
            evals = [workload.evaluate(model) for model in models[i]]
            loss[i], acc[i] = [ev["eval_loss"] for ev in evals], [ev["eval_acc"] for ev in evals]
        blocks.append((np.array(steps, np.int64), np.array(times), np.array(values, float),
                       consensus, spread, np.array(counts, np.int64), np.array(seconds),
                       loss, acc, np.array(evaluated, bool)))

    divergence = None
    for t in range(total):
        if averager is not None:
            averager.add(global_x)

        # the final step always all-reduces: a partial last window syncs too
        synced = t < warmup or (t + 1) % h == 0 or t == total - 1
        probe = None  # at a sync round, the rows before the reset and their references
        if t < warmup:
            global_x = ddp_step(workers, schedule, t, workload, clock)
        else:
            mixing_steps += palsgd_local_step(workers, schedule, t, workload, clock)
            if synced:
                global_x, probe = sync_round(workers, global_x, outer_state, clock, t)
                windows.append(mixing_steps - mixed_at_sync)
                mixed_at_sync = mixing_steps.copy()

        if not np.isfinite(workers.x).all():
            # the first bad row is the first bad worker of the first replica
            # that has one; every record so far was taken before the blow-up
            finite = np.isfinite(workers.x).all(axis=1)
            divergence = divmod(int(np.argmin(finite)), n_workers)
            break

        evaluate = evaluates and ((t + 1) % eval_every == 0 or t == total - 1)
        if synced or evaluate or (record_every is not None and t % record_every == 0):
            models = global_x
            if not synced:
                x = workers.stacked
                models = mean_of(x)
                probe = (x, global_x, models)
            record(t, models, evaluate, probe)

    if pending:
        evaluate_pending()

    def view(per_replica):
        return per_replica if batched else per_replica[0]

    columns = {name: np.concatenate(parts) if name in SHARED_COLUMNS else np.concatenate(parts).T
               for name, parts in zip(RECORD_COLUMNS, zip(*blocks))}
    if divergence is not None:
        replica, worker = divergence
        finite = np.flatnonzero(np.isfinite(columns["train_metric"][replica]))
        divergence = DivergenceReport(t, worker, int(finite[-1]) if finite.size else None, replica)
    columns = {n: c if n in SHARED_COLUMNS else view(c) for n, c in columns.items()}
    counts = np.array(windows, dtype=np.int64).reshape(-1, n_replicas, n_workers).swapaxes(0, 1)
    diag = Diagnostics(columns, view(counts), mixing_steps.tolist(),
                       (t + 1 - mixing_steps).tolist())
    return TrainResult(global_model=view(global_x), diagnostics=diag,
                       weighted_average=view(averager.value) if averager else None,
                       events=view(clock.events), worker_time=view(clock.times),
                       comm_seconds=view(clock.comm_seconds), divergence=divergence)
