"""Inner and outer optimizer state machines.

Inner optimizers drive the workers' local steps (sgd, momentum sgd, adamw)
on stacked (K, d) parameters and update their stacked state in place, on the
rows that took a gradient step. Outer optimizers consume the aggregated
parameter delta at sync rounds (sgd, nesterov) and are pure:
(state, inputs) -> (new global params, new state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import check_fields, option
from .vecmath import DimensionMismatchError, ParamVector, _check_dims, row_norms_sq


@dataclass(frozen=True)
class InnerOptConfig:
    variant: str = option(str, "sgd", choices=("sgd", "sgd_momentum", "adamw"))
    momentum: float = option(float, 0.9, low=0, high=1)             # sgd_momentum only
    beta1: float = option(float, 0.9, low=0, high=1)                # adamw
    beta2: float = option(float, 0.999, low=0, high=1)              # adamw
    eps: float = option(float, 1e-8, low=0, low_open=True)          # adamw
    weight_decay: float = option(float, 0.0, low=0)                 # adamw, decoupled
    # global-norm clip applied to g before the step
    clip_norm: float | None = option(float, None, low=0, low_open=True)
    # ablation knob; default keeps state across syncs
    reset_at_sync: bool = option(bool, False)

    def __post_init__(self):
        check_fields(self)


@dataclass
class InnerOptState:
    """The inner optimizer state of K workers, stacked: row k is worker k."""

    config: InnerOptConfig
    step: np.ndarray                 # (K,) gradient steps taken per worker
    m: np.ndarray | None = None      # (K, d) first moments (momentum buffer)
    v: np.ndarray | None = None      # (K, d) second moments

    @classmethod
    def fresh(cls, config: InnerOptConfig, workers: int, dim: int) -> "InnerOptState":
        state = cls(config=config, step=np.zeros(workers, dtype=np.int64))
        if config.variant in ("sgd_momentum", "adamw"):
            state.m = np.zeros((workers, dim))
        if config.variant == "adamw":
            state.v = np.zeros((workers, dim))
        return state


def inner_step(state: InnerOptState, x: np.ndarray, g: np.ndarray, lr: float,
               rows=slice(None)) -> None:
    """One gradient-driven update of the rows `rows` of x (K, d), in place.

    g holds one gradient row per selected row, or a single row that all of
    them share. The state's rows advance in place; other rows are untouched.
    Every row is rounded exactly as a 1-D update of that worker alone: the
    clip norm is a per-row dot, and Adam's bias corrections are Python float
    powers, since numpy's array power rounds differently.
    """
    if x.shape[-1] != g.shape[-1]:
        raise DimensionMismatchError("inner_step", x.shape[-1], g.shape[-1])
    if lr <= 0:
        raise ValueError(f"inner_step: lr must be > 0, got {lr}")
    cfg = state.config
    state.step[rows] += 1

    if cfg.clip_norm is not None:
        norms = np.sqrt(row_norms_sq(g))
        over = norms > cfg.clip_norm
        if over.any():
            g = np.array(g)
            g[over] = g[over] * (cfg.clip_norm / norms[over])[:, None]

    xr = x[rows]
    if cfg.variant == "sgd":
        x[rows] = xr - lr * g
        return

    if cfg.variant == "sgd_momentum":
        m = cfg.momentum * state.m[rows] + g
        state.m[rows] = m
        x[rows] = xr - lr * m
        return

    # adamw: decoupled weight decay, bias-corrected moments
    m = cfg.beta1 * state.m[rows] + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * state.v[rows] + (1.0 - cfg.beta2) * (g * g)
    state.m[rows] = m
    state.v[rows] = v
    steps = state.step[rows].tolist()
    m_hat = m / np.array([[1.0 - cfg.beta1 ** s] for s in steps])
    v_hat = v / np.array([[1.0 - cfg.beta2 ** s] for s in steps])
    x_out = xr - lr * cfg.weight_decay * xr
    x[rows] = x_out - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass(frozen=True)
class OuterOptConfig:
    variant: str = option(str, "nesterov", choices=("sgd", "nesterov"))
    lr: float = option(float, 1.0, low=0, low_open=True)
    momentum: float = option(float, 0.9, low=0, high=1)  # nesterov only

    def __post_init__(self):
        check_fields(self)

    @property
    def is_plain_averaging(self) -> bool:
        """True when a sync round reduces to exact parameter averaging."""
        return self.lr == 1.0 and (self.variant == "sgd" or self.momentum == 0.0)


@dataclass
class OuterOptState:
    config: OuterOptConfig
    buf: ParamVector | None = None

    @classmethod
    def fresh(cls, config: OuterOptConfig, shape: int | tuple[int, ...]) -> "OuterOptState":
        """A zero momentum buffer of the global model's shape, (d,) or (S, d)."""
        buf = np.zeros(shape) if config.variant == "nesterov" else None
        return cls(config=config, buf=buf)

    def copy(self) -> "OuterOptState":
        return OuterOptState(config=self.config, buf=None if self.buf is None else self.buf.copy())


def outer_step(state: OuterOptState, x_global: ParamVector, delta: ParamVector) -> tuple[ParamVector, OuterOptState]:
    """Apply the aggregated delta as an outer gradient to the global model."""
    _check_dims("outer_step", x_global, delta)
    cfg = state.config
    new = state.copy()
    if cfg.variant == "sgd":
        return x_global - cfg.lr * delta, new
    # nesterov, deep-learning reformulation: buffer first, then look-ahead
    new.buf = cfg.momentum * state.buf + delta
    return x_global - cfg.lr * (delta + cfg.momentum * new.buf), new
