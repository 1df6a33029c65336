"""Inner and outer optimizer state machines.

Inner optimizers drive per-worker local steps (sgd, momentum sgd, adamw);
outer optimizers consume the aggregated parameter delta at sync rounds
(sgd, nesterov). All steps are pure: (state, inputs) -> (new params, new
state), with worker-private state, so the trainer can replay or parallelize
them freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import check_fields, option
from .vecmath import ParamVector, _check_dims


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
    config: InnerOptConfig
    step: int = 0
    m: ParamVector | None = None
    v: ParamVector | None = None

    @classmethod
    def fresh(cls, config: InnerOptConfig, dim: int) -> "InnerOptState":
        state = cls(config=config, step=0)
        if config.variant in ("sgd_momentum", "adamw"):
            state.m = np.zeros(dim)
        if config.variant == "adamw":
            state.v = np.zeros(dim)
        return state

    def copy(self) -> "InnerOptState":
        return InnerOptState(
            config=self.config,
            step=self.step,
            m=None if self.m is None else self.m.copy(),
            v=None if self.v is None else self.v.copy(),
        )


def inner_step(state: InnerOptState, x: ParamVector, g: ParamVector, lr: float) -> tuple[ParamVector, InnerOptState]:
    """One gradient-driven update; returns (new params, advanced state)."""
    _check_dims("inner_step", x, g)
    if lr <= 0:
        raise ValueError(f"inner_step: lr must be > 0, got {lr}")
    cfg = state.config
    new = state.copy()
    new.step = state.step + 1

    if cfg.clip_norm is not None:
        gnorm = float(np.sqrt(np.dot(g, g)))
        if gnorm > cfg.clip_norm:
            g = g * (cfg.clip_norm / gnorm)

    if cfg.variant == "sgd":
        return x - lr * g, new

    if cfg.variant == "sgd_momentum":
        new.m = cfg.momentum * state.m + g
        return x - lr * new.m, new

    # adamw: decoupled weight decay, bias-corrected moments
    new.m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    new.v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (g * g)
    m_hat = new.m / (1.0 - cfg.beta1 ** new.step)
    v_hat = new.v / (1.0 - cfg.beta2 ** new.step)
    x_out = x - lr * cfg.weight_decay * x
    x_out = x_out - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return x_out, new


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
    def fresh(cls, config: OuterOptConfig, dim: int) -> "OuterOptState":
        buf = np.zeros(dim) if config.variant == "nesterov" else None
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
