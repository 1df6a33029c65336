"""Deterministic logical-clock model of a worker cluster.

Tracks per-worker compute time (gradient steps cost the full per-step time,
pseudo-sync mixing steps a small configured fraction of it), synchronization
barriers, and a parametric ring all-reduce cost for every communication
event. No real networking: the point is exact, replayable accounting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import copysign
from typing import Sequence

import numpy as np

from .fields import ConfigError, check_fields, option
from .vecmath import PURPOSE_JITTER, StreamChunks


@dataclass(frozen=True)
class AllReduceModel:
    """The ring all-reduce cost model: per-round latency and link bandwidth."""
    latency_s: float = option(float, 1e-3, low=0)
    bandwidth_bytes_per_s: float = option(float, 1e9, low=0, low_open=True)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ClusterSpec:
    """The simulated cluster: worker count, per-step costs, stragglers, jitter and all-reduce."""
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
    """One all-reduce: its step, payload bytes, simulated seconds and participants."""
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
    CommEvents and `comm_seconds` one float per replica. The jitter is one
    uniform per worker and step from `StreamChunks` of purpose
    PURPOSE_JITTER: a step reads one contiguous (S*K, 1) block of the
    step-major chunk, whose replica s part is drawn from its own stream,
    keyed by seed s, so row s is the clock of seed s alone. The replicas of
    a batch sync at the same steps, so one `barrier` waits every replica's
    workers for the slowest of their own row at once, and `allreduce` builds
    one CommEvent that `record_allreduce` logs into each replica's list. A
    replica's global time is the max over its row, realized at each barrier.
    """

    def __init__(self, spec: ClusterSpec, seeds: Sequence[int] = (0,)):
        self.spec = spec
        self.times = np.zeros((len(seeds), spec.workers))
        self.events: list[list[CommEvent]] = [[] for _ in seeds]
        self.comm_seconds = [0.0] * len(seeds)
        # per worker of every replica, flat like the masks advance_step takes
        self._step_cost = np.tile([spec.step_cost(k) for k in range(spec.workers)], len(seeds))
        self._mixing_cost = self._step_cost * spec.mixing_cost_fraction
        self._jitter = (StreamChunks(seeds, PURPOSE_JITTER, spec.workers, 1)
                        if spec.jitter > 0 else None)
        self._ring: dict[int, tuple[int, float]] = {}  # dim -> all-reduce payload and seconds

    def advance_step(self, is_gradient_step: np.ndarray) -> None:
        """Advance every worker by one step; `is_gradient_step` masks the S*K
        workers, replica-major."""
        cost = np.where(is_gradient_step, self._step_cost, self._mixing_cost)
        if self._jitter is not None:
            u = self._jitter.next()[:, 0]
            cost *= 1.0 + self.spec.jitter * (2.0 * u - 1.0)
        self.times += cost.reshape(self.times.shape)

    def barrier(self, duration: float = 0.0) -> None:
        """Move every worker of each replica to its replica's slowest, plus `duration`."""
        self.times[:] = np.maximum.reduce(self.times, axis=1, keepdims=True) + duration

    def allreduce(self, step: int, dim: int) -> CommEvent:
        """Barrier every replica's workers through one all-reduce of `dim`
        parameters, and log its one event in each replica's list."""
        cost = self._ring.get(dim)
        if cost is None:
            payload = self.spec.payload_bytes(dim)
            cost = self._ring[dim] = payload, allreduce_time(payload, self.spec.workers,
                                                              self.spec.allreduce)
        payload, duration = cost
        self.barrier(duration)
        event = CommEvent(step=step, payload_bytes=payload, duration_s=duration,
                          participants=self.spec.workers)
        for replica in range(len(self.events)):
            self.record_allreduce(event, replica)
        return event

    def record_allreduce(self, event: CommEvent, replica: int) -> CommEvent:
        """Log one replica's share of an all-reduce: its event and its seconds."""
        self.comm_seconds[replica] += event.duration_s
        self.events[replica].append(event)
        return event


def export_events_jsonl(events: list[CommEvent], path: str) -> None:
    """One `json.dumps(ev.to_json_obj())` line per event of a one-seed run.

    The events of a run share a few (bytes, duration_s, k) values, so each
    line is its step and the cached encoding of the rest of its object."""
    if events and isinstance(events[0], list):
        raise ValueError(f"events.jsonl holds one seed's events; got a batch of "
                         f"{len(events)} replicas")
    encode = json.JSONEncoder().encode
    tails: dict[tuple, str] = {}

    def lines():
        for ev in events:
            # the sign tells -0.0 from 0.0, the one pair of floats that compare equal
            key = (ev.payload_bytes, ev.duration_s, copysign(1.0, ev.duration_s), ev.participants)
            tail = tails.get(key)
            if tail is None:
                obj = ev.to_json_obj()
                del obj["t"]
                tail = tails[key] = encode(obj)[1:] + "\n"  # '"bytes": ...}' and the newline
            yield f'{{"t": {ev.step:d}, {tail}'

    with open(path, "w") as fh:
        fh.writelines(lines())
