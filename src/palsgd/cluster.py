"""Deterministic logical-clock model of a worker cluster.

Tracks per-worker compute time (gradient steps cost the full per-step time,
pseudo-sync mixing steps a small configured fraction of it), synchronization
barriers, and a parametric ring all-reduce cost for every communication
event. No real networking: the point is exact, replayable accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .fields import ConfigError, check_fields, option
from .vecmath import PURPOSE_JITTER, RngStream


@dataclass(frozen=True)
class AllReduceModel:
    latency_s: float = option(float, 1e-3, low=0)
    bandwidth_bytes_per_s: float = option(float, 1e9, low=0, low_open=True)

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
    """Per-worker elapsed seconds plus an append-only communication log, per replica.

    A single owner (the trainer loop) advances the clock. It is replica-major
    whatever the seeds: `times` is (S, K), one row of worker times per seed,
    advanced by one cost array per step; `events` holds one list of
    CommEvents and `comm_seconds` one float per replica. Replica s draws its
    jitter from its own stream, keyed by seed s, so row s is the clock of
    seed s alone. A replica's global time is the max over its row, realized
    at each of its barriers.
    """

    def __init__(self, spec: ClusterSpec, seeds: Sequence[int] = (0,)):
        self.spec = spec
        self.times = np.zeros((len(seeds), spec.workers))
        self.events: list[list[CommEvent]] = [[] for _ in seeds]
        self.comm_seconds = [0.0] * len(seeds)
        # per worker of every replica, flat like the masks advance_step takes
        self._step_cost = np.tile([spec.step_cost(k) for k in range(spec.workers)], len(seeds))
        self._mixing_cost = self._step_cost * spec.mixing_cost_fraction
        # one uniform per worker and step: row k of one (K,) draw per replica
        self._jitter_streams = ([RngStream(s, 0, PURPOSE_JITTER) for s in seeds]
                                if spec.jitter > 0 else None)

    def advance_step(self, is_gradient_step: np.ndarray) -> None:
        """Advance every worker by one step; `is_gradient_step` masks the S*K
        workers, replica-major."""
        cost = np.where(is_gradient_step, self._step_cost, self._mixing_cost)
        if self._jitter_streams is not None:
            u = np.concatenate([s.uniform_vector(self.spec.workers) for s in self._jitter_streams])
            cost *= 1.0 + self.spec.jitter * (2.0 * u - 1.0)
        self.times += cost.reshape(self.times.shape)

    def barrier(self, duration: float = 0.0, replica: int = 0) -> None:
        self.times[replica] = self.times[replica].max() + duration

    def record_allreduce(self, step: int, dim: int, replica: int = 0) -> CommEvent:
        """Barrier one replica's workers through one all-reduce and log it."""
        payload = self.spec.payload_bytes(dim)
        duration = allreduce_time(payload, self.spec.workers, self.spec.allreduce)
        self.barrier(duration, replica)
        self.comm_seconds[replica] += duration
        event = CommEvent(step=step, payload_bytes=payload, duration_s=duration,
                          participants=self.spec.workers)
        self.events[replica].append(event)
        return event


def export_events_jsonl(events: list[CommEvent], path: str) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev.to_json_obj()) + "\n")
