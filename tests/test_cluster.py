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
            AllReduceModel(algorithm="tree")


class TestSimClock:
    def test_gradient_step_full_cost(self):
        clock = SimClock(ClusterSpec(workers=2, compute_time_per_step=1.0,
                                     mixing_cost_fraction=0.0))
        clock.advance_step(np.array([True, False]))
        assert clock.worker_time.tolist() == [1.0, 0.0]

    def test_mixing_step_fractional_cost(self):
        spec = ClusterSpec(workers=1, compute_time_per_step=1.0, mixing_cost_fraction=0.01)
        clock = SimClock(spec)
        clock.advance_step(np.array([False]))
        assert clock.worker_time[0] == 0.01

    def test_straggler_multiplier(self):
        spec = ClusterSpec(workers=4, compute_time_per_step=1.0,
                           worker_multipliers=(1.0, 1.0, 1.0, 2.0))
        clock = SimClock(spec)
        clock.advance_step(np.ones(4, dtype=bool))
        assert clock.worker_time.tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_barrier_examples(self):
        clock = SimClock(ClusterSpec(workers=2))
        clock.worker_time = np.array([1.0, 3.0])
        clock.barrier(0.0)
        assert clock.worker_time.tolist() == [3.0, 3.0]
        clock.worker_time = np.array([1.0, 3.0])
        clock.barrier(2.0)
        assert clock.worker_time.tolist() == [5.0, 5.0]

    def test_barrier_no_op_when_equal(self):
        clock = SimClock(ClusterSpec(workers=3))
        clock.worker_time = np.array([2.0, 2.0, 2.0])
        clock.barrier(0.0)
        assert clock.worker_time.tolist() == [2.0, 2.0, 2.0]

    def test_global_time_is_max_at_barrier(self):
        clock = SimClock(ClusterSpec(workers=2))
        clock.advance_step(np.array([True, False]))
        clock.barrier()
        assert clock.global_time == max(clock.worker_time)

    def test_record_allreduce_logs_exact_duration(self):
        spec = ClusterSpec(workers=4, allreduce=AllReduceModel(latency_s=1e-3,
                                                               bandwidth_bytes_per_s=1e6))
        clock = SimClock(spec)
        event = clock.record_allreduce(step=7, dim=100)
        assert event.payload_bytes == 800
        assert event.duration_s == allreduce_time(800, 4, spec.allreduce)
        assert event.participants == 4
        assert clock.comm_seconds == event.duration_s

    def test_jitter_is_seeded_and_deterministic(self):
        spec = ClusterSpec(workers=2, jitter=0.3)
        a, b = SimClock(spec, seed=5), SimClock(spec, seed=5)
        for clock in (a, b):
            for _ in range(10):
                clock.advance_step(np.array([True, True]))
        assert a.worker_time.tolist() == b.worker_time.tolist()
        c = SimClock(spec, seed=6)
        for _ in range(10):
            c.advance_step(np.array([True, True]))
        assert c.worker_time[0] != a.worker_time[0]  # different seed, different draw

    def test_jitter_scales_each_worker_by_its_own_draw(self):
        spec = ClusterSpec(workers=3, jitter=0.5, compute_time_per_step=2.0,
                           mixing_cost_fraction=0.1, worker_multipliers=(1.0, 3.0, 1.0))
        clock = SimClock(spec, seed=4)
        clock.advance_step(np.array([True, False, True]))
        u = RngStream(4, 0, PURPOSE_JITTER).uniform_vector(3)  # row k for worker k
        base = [2.0, 2.0 * 3.0 * 0.1, 2.0]
        assert clock.worker_time.tolist() == [b * (1.0 + 0.5 * (2.0 * x - 1.0))
                                              for b, x in zip(base, u)]

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
        export_events_jsonl(clock.events, str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"t": 0, "bytes": 16, "duration_s": 2.0, "k": 2}
        assert rows[1]["t"] == 5
