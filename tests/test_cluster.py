import json

import numpy as np
import pytest

from palsgd.cluster import (AllReduceModel, ClusterSpec, SimClock,
                            allreduce_time, export_events_jsonl)
from palsgd.vecmath import PURPOSE_JITTER, RngStream


class TestAllReduceTime:
    def test_single_worker_is_free(self):
        assert allreduce_time(1_000_000, 1, AllReduceModel()) == 0.0

    def test_bandwidth_term(self):
        model = AllReduceModel(latency_s=0.0, bandwidth_bytes_per_s=8.0)
        # K=2: 2*(K-1)/K = 1 full traversal
        assert allreduce_time(16, 2, model) == 2.0

    def test_latency_term(self):
        model = AllReduceModel(latency_s=1e-3, bandwidth_bytes_per_s=1e9)
        assert allreduce_time(0, 4, model) == pytest.approx(6e-3, abs=0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            allreduce_time(-1, 2, AllReduceModel())
        with pytest.raises(ValueError):
            AllReduceModel(bandwidth_bytes_per_s=0.0)


class TestSimClock:
    def test_gradient_step_full_cost(self):
        clock = SimClock(ClusterSpec(workers=2, compute_time_per_step=1.0,
                                     mixing_cost_fraction=0.0))
        clock.advance_step(np.array([True, False]))
        assert clock.times[0].tolist() == [1.0, 0.0]

    def test_mixing_step_fractional_cost(self):
        spec = ClusterSpec(workers=1, compute_time_per_step=1.0, mixing_cost_fraction=0.01)
        clock = SimClock(spec)
        clock.advance_step(np.array([False]))
        assert clock.times[0, 0] == 0.01

    def test_straggler_multiplier(self):
        spec = ClusterSpec(workers=4, compute_time_per_step=1.0,
                           worker_multipliers=(1.0, 1.0, 1.0, 2.0))
        clock = SimClock(spec)
        clock.advance_step(np.ones(4, dtype=bool))
        assert clock.times[0].tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_barrier_examples(self):
        clock = SimClock(ClusterSpec(workers=2))
        clock.times[0] = [1.0, 3.0]
        clock.barrier(0.0)
        assert clock.times[0].tolist() == [3.0, 3.0]
        clock.times[0] = [1.0, 3.0]
        clock.barrier(2.0)
        assert clock.times[0].tolist() == [5.0, 5.0]

    def test_barrier_no_op_when_equal(self):
        clock = SimClock(ClusterSpec(workers=3))
        clock.times[0] = [2.0, 2.0, 2.0]
        clock.barrier(0.0)
        assert clock.times[0].tolist() == [2.0, 2.0, 2.0]

    def test_global_time_is_max_at_barrier(self):
        clock = SimClock(ClusterSpec(workers=2))
        clock.advance_step(np.array([True, False]))
        slowest = max(clock.times[0])
        clock.barrier()
        assert clock.times[0].tolist() == [slowest, slowest]

    def test_record_allreduce_logs_exact_duration(self):
        spec = ClusterSpec(workers=4, allreduce=AllReduceModel(latency_s=1e-3,
                                                               bandwidth_bytes_per_s=1e6))
        clock = SimClock(spec)
        event = clock.record_allreduce(step=7, dim=100)
        assert event.payload_bytes == 800
        assert event.duration_s == allreduce_time(800, 4, spec.allreduce)
        assert event.participants == 4
        assert clock.comm_seconds == [event.duration_s]
        assert clock.events == [[event]]

    def test_jitter_is_seeded_and_deterministic(self):
        spec = ClusterSpec(workers=2, jitter=0.3)
        a, b = SimClock(spec, [5]), SimClock(spec, [5])
        for clock in (a, b):
            for _ in range(10):
                clock.advance_step(np.array([True, True]))
        assert a.times.tolist() == b.times.tolist()
        c = SimClock(spec, [6])
        for _ in range(10):
            c.advance_step(np.array([True, True]))
        assert c.times[0, 0] != a.times[0, 0]  # different seed, different draw

    def test_jitter_scales_each_worker_by_its_own_draw(self):
        spec = ClusterSpec(workers=3, jitter=0.5, compute_time_per_step=2.0,
                           mixing_cost_fraction=0.1, worker_multipliers=(1.0, 3.0, 1.0))
        clock = SimClock(spec, [4])
        clock.advance_step(np.array([True, False, True]))
        u = RngStream(4, 0, PURPOSE_JITTER).uniform_vector(3)  # row k for worker k
        base = [2.0, 2.0 * 3.0 * 0.1, 2.0]
        assert clock.times[0].tolist() == [b * (1.0 + 0.5 * (2.0 * x - 1.0))
                                           for b, x in zip(base, u)]

    def test_replicas_advance_as_clocks_alone(self):
        # row s of a clock over seeds (3, 8) is the clock of seed 3 or 8 alone;
        # an all-reduce barriers its own replica only
        spec = ClusterSpec(workers=3, jitter=0.4, worker_multipliers=(1.0, 2.0, 1.0))
        both = SimClock(spec, [3, 8])
        alone = [SimClock(spec, [3]), SimClock(spec, [8])]
        masks = np.random.default_rng(0).random((6, 2, 3)) < 0.5
        for t, mask in enumerate(masks):
            both.advance_step(mask.ravel())
            for clock, row in zip(alone, mask):
                clock.advance_step(row)
            if t == 2:
                both.record_allreduce(t, dim=4, replica=1)
                alone[1].record_allreduce(t, dim=4)
        assert both.times.tolist() == [c.times[0].tolist() for c in alone]
        assert both.times.max(axis=1).tolist() == [max(c.times[0]) for c in alone]
        assert both.comm_seconds == [c.comm_seconds[0] for c in alone]
        assert both.events == [c.events[0] for c in alone]
        assert both.events[0] == [] and len(both.events[1]) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=0)
        with pytest.raises(ValueError):
            ClusterSpec(workers=2, worker_multipliers=(1.0,))
        with pytest.raises(ValueError):
            ClusterSpec(workers=1, bytes_per_param=2)


class TestEventExport:
    def test_jsonl_schema(self, tmp_path):
        spec = ClusterSpec(workers=2, allreduce=AllReduceModel(latency_s=0.0,
                                                               bandwidth_bytes_per_s=8.0))
        clock = SimClock(spec)
        clock.record_allreduce(0, dim=2)
        clock.record_allreduce(5, dim=2)
        path = tmp_path / "events.jsonl"
        export_events_jsonl(clock.events[0], str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"t": 0, "bytes": 16, "duration_s": 2.0, "k": 2}
        assert rows[1]["t"] == 5
