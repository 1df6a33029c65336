"""Deterministic logical-clock model of a worker cluster.

Tracks per-worker compute time (gradient steps cost the full per-step time,
pseudo-sync mixing steps a small configured fraction of it), synchronization
barriers, and a parametric ring all-reduce cost for every communication
event. No real networking: the point is exact, replayable accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fields import ConfigError, check_fields, option
from .vecmath import PURPOSE_JITTER, RngStream


@dataclass(frozen=True)
class AllReduceModel:
    latency_s: float = option(float, 1e-3, low=0)
    bandwidth_bytes_per_s: float = option(float, 1e9, low=0, low_open=True)
    algorithm: str = option(str, "ring", choices=("ring",))

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ClusterSpec:
    workers: int = option(int, low=1)
    compute_time_per_step: float = option(float, 1.0, low=0)
    worker_multipliers: tuple[float, ...] | None = option(float, None, low=0, low_open=True,
                                                          sequence=True)  # stragglers
    jitter: float = option(float, 0.0, low=0, high=1)  # per-step multiplicative jitter half-width, seeded
    mixing_cost_fraction: float = option(float, 0.01, low=0)
    allreduce: AllReduceModel = field(default_factory=AllReduceModel)
    bytes_per_param: int = option(int, 8, choices=(4, 8))

    def __post_init__(self):
        check_fields(self)
        if self.worker_multipliers is not None and len(self.worker_multipliers) != self.workers:
            raise ConfigError("worker_multipliers",
                              f"length {len(self.worker_multipliers)} != workers {self.workers}")

    def step_cost(self, worker: int) -> float:
        mult = self.worker_multipliers[worker] if self.worker_multipliers else 1.0
        return self.compute_time_per_step * mult

    def payload_bytes(self, dim: int) -> int:
        return dim * self.bytes_per_param


def allreduce_time(payload_bytes: int, workers: int, model: AllReduceModel) -> float:
    """Ring all-reduce: 2(K-1) latency rounds plus 2(K-1)/K of the data over the wire."""
    if payload_bytes < 0 or workers < 1:
        raise ValueError("payload_bytes must be >= 0 and workers >= 1")
    if workers == 1:
        return 0.0
    return (model.latency_s * 2 * (workers - 1)
            + (2 * (workers - 1) / workers) * payload_bytes / model.bandwidth_bytes_per_s)


@dataclass
class CommEvent:
    step: int
    payload_bytes: int
    duration_s: float
    participants: int

    def to_json_obj(self) -> dict:
        return {"t": self.step, "bytes": self.payload_bytes,
                "duration_s": self.duration_s, "k": self.participants}


class SimClock:
    """Per-worker elapsed seconds plus an append-only communication log.

    A single owner (the trainer loop) advances the clock; global time is the
    max over workers and is realized at every barrier. `worker_time` is a
    (K,) array that one cost vector advances per step.
    """

    def __init__(self, spec: ClusterSpec, seed: int = 0):
        self.spec = spec
        self.worker_time = np.zeros(spec.workers)
        self.events: list[CommEvent] = []
        self.comm_seconds = 0.0
        self._step_cost = np.array([spec.step_cost(k) for k in range(spec.workers)])
        self._mixing_cost = self._step_cost * spec.mixing_cost_fraction
        self._jitter_streams = (
            [RngStream(seed, k, PURPOSE_JITTER) for k in range(spec.workers)]
            if spec.jitter > 0 else None
        )

    @property
    def global_time(self) -> float:
        return float(self.worker_time.max())

    def advance_step(self, is_gradient_step: np.ndarray) -> None:
        """Advance every worker by one step; `is_gradient_step` is a (K,) mask."""
        cost = np.where(is_gradient_step, self._step_cost, self._mixing_cost)
        if self._jitter_streams is not None:
            u = np.array([s.uniform() for s in self._jitter_streams])
            cost *= 1.0 + self.spec.jitter * (2.0 * u - 1.0)
        self.worker_time += cost

    def barrier(self, duration: float = 0.0) -> None:
        self.worker_time = np.full(self.spec.workers, self.global_time + duration)

    def record_allreduce(self, step: int, dim: int) -> CommEvent:
        """Barrier all workers through one all-reduce and log it."""
        payload = self.spec.payload_bytes(dim)
        duration = allreduce_time(payload, self.spec.workers, self.spec.allreduce)
        self.barrier(duration)
        self.comm_seconds += duration
        event = CommEvent(step=step, payload_bytes=payload, duration_s=duration,
                          participants=self.spec.workers)
        self.events.append(event)
        return event


def export_events_jsonl(events: list[CommEvent], path: str) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev.to_json_obj()) + "\n")
