"""Inner and outer optimizer state machines, advanced in place.

Inner optimizers drive the workers' local steps (sgd, momentum sgd, adamw)
on stacked (K, d) parameters: every row is stepped, into a new array, and
the stacked state advances in place on the rows of a boolean mask, the rows
that took a gradient step. Outer optimizers (sgd, nesterov) run at sync
rounds on the global models, (d,) or (S, d): they take the all-reduced
worker mean, advance their momentum buffer in place and return the new
global models. Under plain averaging the new global model is that mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import check_fields, option
from .vecmath import DimensionMismatchError, ParamVector, _check_dims, row_norms_sq

# columns of the first adamw bias-correction table; it grows as steps outrun it
BIAS_TABLE_MIN = 256


@dataclass(frozen=True)
class InnerOptConfig:
    """The workers' inner optimizer: its variant and that variant's hyperparameters."""
    variant: str = option(str, "sgd", choices=("sgd", "sgd_momentum", "adamw"))
    momentum: float = option(float, 0.9, low=0, high=1, read_when=("sgd_momentum",))
    beta1: float = option(float, 0.9, low=0, high=1, read_when=("adamw",))
    beta2: float = option(float, 0.999, low=0, high=1, read_when=("adamw",))
    eps: float = option(float, 1e-8, low=0, low_open=True, read_when=("adamw",))
    weight_decay: float = option(float, 0.0, low=0, read_when=("adamw",))  # decoupled
    # global-norm clip applied to g before the step
    clip_norm: float | None = option(float, None, low=0, low_open=True)
    # ablation knob; default keeps state across syncs, and plain sgd has none
    reset_at_sync: bool = option(bool, False, read_when=("sgd_momentum", "adamw"))

    def __post_init__(self):
        check_fields(self)


@dataclass
class InnerOptState:
    """The inner optimizer state of K workers, stacked: row k is worker k."""

    config: InnerOptConfig
    step: np.ndarray                 # (K,) gradient steps taken per worker
    m: np.ndarray | None = None      # (K, d) first moments (momentum buffer)
    v: np.ndarray | None = None      # (K, d) second moments
    # adamw: column s holds 1 - beta1 ** s and 1 - beta2 ** s, each a Python
    # float power, since numpy's array power rounds differently; built and
    # grown by corrections_at
    bias_table: np.ndarray | None = None

    @classmethod
    def fresh(cls, config: InnerOptConfig, workers: int, dim: int) -> "InnerOptState":
        state = cls(config=config, step=np.zeros(workers, dtype=np.int64))
        if config.variant in ("sgd_momentum", "adamw"):
            state.m = np.zeros((workers, dim))
        if config.variant == "adamw":
            state.v = np.zeros((workers, dim))
        return state

    def corrections_at(self, steps: np.ndarray) -> np.ndarray:
        """The adamw bias corrections at the step counts `steps`: (2, n), one
        column per count, rows beta1 and beta2. The lookup takes the table's
        columns first; only when there is no table yet (AttributeError) or a
        count is past its end (IndexError) is it built, at twice the largest
        count and at least BIAS_TABLE_MIN columns."""
        try:
            return self.bias_table.take(steps, axis=1)
        except (AttributeError, IndexError):
            size = max(BIAS_TABLE_MIN, 2 * int(steps.max()))
            self.bias_table = np.array([[1.0 - beta ** s for s in range(size)]
                                        for beta in (self.config.beta1, self.config.beta2)])
            return self.bias_table.take(steps, axis=1)


def inner_step(state: InnerOptState, x: np.ndarray, g: np.ndarray, lr: float,
               mask: np.ndarray) -> np.ndarray:
    """Every row of x (K, d) stepped by its row of g, as a new array; x and g
    are never written. The state advances in place on the rows of the
    boolean (K,) `mask` only. Each row rounds exactly as a 1-D update of
    that worker alone: the clip norm is a per-row dot, and Adam's bias
    corrections are Python float powers. A row outside the mask takes them
    at count + 1, which keeps them finite; the caller discards its result.

    The update runs the textbook formulas' elementwise operations in their
    order, in place on arrays made by this call, and one masked `np.copyto`
    per moment writes the state. One nan-ignoring reduce, the largest row
    norm by `np.fmax`, decides whether any row is over the clip bound; if
    none is, g is used as it is. Otherwise every row is scaled by
    clip / fmax(norm, clip): exactly 1.0 on rows under or at the bound and on
    a nan norm, which keeps their bits, clip / norm over it, and 0 on an inf
    norm.
    """
    if x.shape[-1] != g.shape[-1]:
        raise DimensionMismatchError("inner_step", x.shape[-1], g.shape[-1])
    if lr <= 0:
        raise ValueError(f"inner_step: lr must be > 0, got {lr}")
    cfg = state.config
    if cfg.variant == "adamw":
        counts = state.step + 1  # every row's count after a step
    state.step += mask

    if cfg.clip_norm is not None:
        norms = np.sqrt(row_norms_sq(g))
        if np.fmax.reduce(norms, initial=-np.inf) > cfg.clip_norm:
            g = g * (cfg.clip_norm / np.fmax(norms, cfg.clip_norm))[:, None]

    if cfg.variant == "sgd":
        return x - g * lr

    rows = mask[:, None]
    if cfg.variant == "sgd_momentum":
        m = state.m * cfg.momentum
        m += g
        np.copyto(state.m, m, where=rows)
        m *= lr
        return x - m

    # adamw: decoupled weight decay, bias-corrected moments
    m = state.m * cfg.beta1
    m += g * (1.0 - cfg.beta1)
    v = state.v * cfg.beta2
    g2 = g * g
    g2 *= 1.0 - cfg.beta2
    v += g2
    np.copyto(state.m, m, where=rows)
    np.copyto(state.v, v, where=rows)
    c = state.corrections_at(counts)
    m /= c[0, :, None]                  # m_hat
    v /= c[1, :, None]                  # v_hat
    np.sqrt(v, out=v)
    v += cfg.eps
    m *= lr
    m /= v                              # lr * m_hat / (sqrt(v_hat) + eps)
    out = x * (lr * cfg.weight_decay)
    np.subtract(x, out, out=out)        # decoupled decay
    out -= m
    return out


@dataclass(frozen=True)
class OuterOptConfig:
    """The sync round's outer optimizer on the averaged pseudo-gradient."""
    variant: str = option(str, "nesterov", choices=("sgd", "nesterov"))
    lr: float = option(float, 1.0, low=0, low_open=True)
    momentum: float = option(float, 0.9, low=0, high=1, read_when=("nesterov",))

    def __post_init__(self):
        check_fields(self)

    @property
    def is_plain_averaging(self) -> bool:
        """True when a sync round reduces to exact parameter averaging."""
        return self.lr == 1.0 and (self.variant == "sgd" or self.momentum == 0.0)


@dataclass
class OuterOptState:
    """The outer optimizer's config and its Nesterov momentum buffer, if any."""
    config: OuterOptConfig
    buf: ParamVector | None = None

    @classmethod
    def fresh(cls, config: OuterOptConfig, shape: int | tuple[int, ...]) -> "OuterOptState":
        """A zero momentum buffer of the global model's shape, (d,) or (S, d)."""
        buf = np.zeros(shape) if config.variant == "nesterov" else None
        return cls(config=config, buf=buf)


def outer_step(state: OuterOptState, x_global: ParamVector, mean: ParamVector) -> ParamVector:
    """The new global models, given the old ones and the all-reduced worker means.

    The outer gradient is delta = x_global - mean. Under plain averaging the
    result is `mean` itself, bit for bit, since x_global - (x_global - mean)
    reintroduces rounding. Nesterov advances `state.buf` in place, buffer
    first (buf = momentum * buf + delta), then steps by the look-ahead
    delta + momentum * buf.
    """
    _check_dims("outer_step", x_global, mean)
    cfg = state.config
    if cfg.is_plain_averaging:
        return mean
    delta = x_global - mean
    if cfg.variant == "sgd":
        return x_global - cfg.lr * delta
    state.buf *= cfg.momentum
    state.buf += delta
    return x_global - cfg.lr * (delta + cfg.momentum * state.buf)
