import math

import json

import numpy as np
import pytest

from palsgd.algorithms import run_training
from palsgd.config import parse_config
from palsgd.experiments import central_difference_gradient, max_relative_error
from palsgd.vecmath import PURPOSE_DATA, PURPOSE_INIT, RngStream
from palsgd.workloads import (Dataset, LogisticWorkload, MlpWorkload,
                              QuadraticWorkload, export_dataset_csv,
                              generate_synthetic_classification, shard_dataset)


def grad(workload, x, sample):
    """One worker's stochastic gradient through the stacked (n, d) API."""
    return workload.stochastic_gradient(np.asarray(x)[None, :], [sample])[0]


def make_quadratic(diag=(1.0, 2.0), sigma=0.0, x_star=None, x0=None):
    diag = np.asarray(diag, dtype=np.float64)
    x_star = np.zeros(len(diag)) if x_star is None else np.asarray(x_star, float)
    return QuadraticWorkload(diag, x_star, sigma, x0=x0)


class TestQuadratic:
    def test_gradient_rows_match_single_rows(self):
        w = make_quadratic((1.0, 2.0, 4.0), sigma=1.0, x_star=(0.5, -1.0, 2.0))
        rng = np.random.default_rng(7)
        x, xi = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        rows = w.stochastic_gradient(x, list(xi))
        assert rows.shape == (5, 3)
        for k in range(5):
            assert np.array_equal(rows[k], w.hessian_diag * (x[k] - w.x_star - xi[k]))
        with pytest.raises(ValueError, match="non-finite"):
            w.stochastic_gradient(np.array([[0.0, np.inf, 0.0]]), [np.zeros(3)])

    def test_gradient_at_optimum_without_noise_is_zero(self):
        w = make_quadratic((1.0, 1.0))
        g = grad(w, w.x_star, np.zeros(2))
        assert np.array_equal(g, np.zeros(2))

    def test_gradient_direct_evaluation(self):
        w = make_quadratic((1.0, 2.0))
        g = grad(w, np.array([1.0, 1.0]), np.zeros(2))
        assert np.array_equal(g, np.array([1.0, 2.0]))

    def test_suboptimality_examples(self):
        w = make_quadratic((1.0, 1.0))
        assert w.suboptimality(w.x_star) == 0.0
        assert w.suboptimality(np.array([3.0, 4.0])) == 12.5

    def test_mu_and_smoothness(self):
        w = make_quadratic((1.0, 3.0, 4.0))
        assert w.mu == 1.0 and w.smoothness == 4.0

    def test_gradient_consistency_with_full_objective(self):
        w = make_quadratic((1.0, 2.0, 4.0), sigma=1.0)
        x = np.array([0.3, -1.0, 2.0])
        analytic = w.full_gradient(x)
        numeric = central_difference_gradient(w.suboptimality, x)
        assert max_relative_error(analytic, numeric) < 1e-9
        # noise-free stochastic gradient is exactly the mean gradient
        assert np.array_equal(grad(w, x, np.zeros(3)), analytic)

    def test_strong_convexity_holds_with_equality_margin(self):
        w = make_quadratic((2.0, 3.0))
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=2), rng.normal(size=2)
            lhs = w.suboptimality(y)
            rhs = (w.suboptimality(x) + float(w.full_gradient(x) @ (y - x))
                   + 0.5 * w.mu * float(np.sum((y - x) ** 2)))
            assert lhs >= rhs - 1e-10 * max(1.0, abs(lhs))

    def test_smoothness_witness(self):
        w = make_quadratic((1.0, 4.0), sigma=1.0)
        stream = RngStream(1, 0, PURPOSE_DATA)
        rng = np.random.default_rng(1)
        for _ in range(100):
            xi = w.draw_sample(stream)
            x, y = rng.normal(size=2), rng.normal(size=2)
            lhs = np.linalg.norm(grad(w, x, xi) - grad(w, y, xi))
            assert lhs <= w.smoothness * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_variance_at_optimum_zero_noise(self):
        w = make_quadratic((1.0, 1.0), sigma=0.0)
        assert w.variance_at_optimum(100, RngStream(0, 0, PURPOSE_DATA)) == 0.0

    @pytest.mark.parametrize("sigma,expected,tol", [(1.0, 1.0, 0.01), (2.0, 4.0, 0.04)])
    def test_variance_at_optimum_calibration(self, sigma, expected, tol):
        w = QuadraticWorkload(np.ones(4), np.zeros(4), sigma)
        est = w.variance_at_optimum(1_000_000, RngStream(31, 0, PURPOSE_DATA))
        assert abs(est - expected) <= tol

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            make_quadratic((1.0, -2.0))
        with pytest.raises(ValueError):
            QuadraticWorkload(np.ones(2), np.zeros(2), -1.0)


class TestLogistic:
    def make(self, n=40, dim=4, l2=0.05, seed=9):
        data = generate_synthetic_classification(2, dim, n // 2, seed)
        return LogisticWorkload(data, l2_reg=l2, batch_size=4)

    def test_zero_weights_loss_is_ln2(self):
        w = self.make(l2=0.0)
        assert w.full_objective(np.zeros(w.dim)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        w = self.make()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10):
            x = rng.normal(size=w.dim) * 0.5
            idx = np.arange(len(w.train))
            worst = max(worst, max_relative_error(
                w.full_gradient(x), central_difference_gradient(w.full_objective, x)))
        assert worst < 1e-4

    def test_mean_of_stochastic_gradients_is_full_gradient(self):
        w = self.make()
        x = np.full(w.dim, 0.2)
        per_sample = [grad(w, x, np.array([i])) for i in range(len(w.train))]
        mean_grad = np.mean(per_sample, axis=0)
        assert max_relative_error(mean_grad, w.full_gradient(x)) < 1e-10

    def test_requires_two_classes(self):
        data = generate_synthetic_classification(3, 4, 10, 0)
        with pytest.raises(ValueError):
            LogisticWorkload(data)


class TestMlp:
    def make(self, activation="tanh", widths=(5, 7, 3), seed=4):
        data = generate_synthetic_classification(widths[-1], widths[0], 15, seed)
        return MlpWorkload(list(widths), activation, data, batch_size=6)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradient_matches_finite_differences(self, activation):
        w = self.make(activation)
        init = RngStream(10, 0, PURPOSE_INIT)
        probe = RngStream(11, 0, PURPOSE_DATA)
        shard = w.shards(1, 0)[0]
        worst = 0.0
        for _ in range(10):
            x = w.init_params(init) + probe.gaussian_vector(w.dim, 0.2)
            idx = w.draw_sample(probe, shard)
            analytic = grad(w, x, idx)
            numeric = central_difference_gradient(lambda v: w.batch_objective(v, idx), x)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_mean_of_stochastic_gradients_is_full_gradient(self):
        w = self.make()
        x = w.init_params(RngStream(3, 0, PURPOSE_INIT))
        per_sample = [grad(w, x, np.array([i])) for i in range(len(w.train))]
        assert max_relative_error(np.mean(per_sample, axis=0), w.full_gradient(x)) < 1e-10

    def test_evaluate_reports_loss_and_accuracy(self):
        data = generate_synthetic_classification(3, 5, 15, 4)
        test = generate_synthetic_classification(3, 5, 5, 5)
        w = MlpWorkload([5, 7, 3], "tanh", data, test=test)
        out = w.evaluate(w.init_params(RngStream(0, 0, PURPOSE_INIT)))
        assert set(out) == {"eval_loss", "eval_acc"}
        assert 0.0 <= out["eval_acc"] <= 1.0

    def test_width_validation(self):
        data = generate_synthetic_classification(3, 5, 10, 0)
        with pytest.raises(ValueError):
            MlpWorkload([4, 7, 3], "tanh", data)  # input width mismatch
        with pytest.raises(ValueError):
            MlpWorkload([5, 7, 4], "tanh", data)  # class count mismatch


class TestSharding:
    def test_even_split(self):
        data = generate_synthetic_classification(2, 3, 50, 1)  # n=100
        shards = shard_dataset(data, 4, 0)
        assert [len(s.indices) for s in shards] == [25, 25, 25, 25]
        all_idx = np.concatenate([s.indices for s in shards])
        assert sorted(all_idx.tolist()) == list(range(100))

    def test_uneven_split_deterministic_order(self):
        data = Dataset(np.zeros((10, 2)), np.zeros(10, dtype=np.int64), 1)
        sizes = [len(s.indices) for s in shard_dataset(data, 3, 5)]
        assert sorted(sizes, reverse=True) == [4, 3, 3]
        assert sizes == [4, 3, 3]

    def test_same_seed_same_shards(self):
        data = generate_synthetic_classification(2, 3, 20, 1)
        a = shard_dataset(data, 4, 9)
        b = shard_dataset(data, 4, 9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.indices, sb.indices)

    def test_more_workers_than_samples_rejected(self):
        data = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="shard"):
            shard_dataset(data, 5, 0)

    def test_epoch_shuffle_covers_every_sample(self):
        data = Dataset(np.zeros((8, 1)), np.zeros(8, dtype=np.int64), 1)
        shard = shard_dataset(data, 1, 0, draw_policy="epoch_shuffle")[0]
        stream = RngStream(0, 0, PURPOSE_DATA)
        seen = shard.draw(stream, 8)
        assert sorted(seen.tolist()) == list(range(8))


    def test_epoch_shuffle_in_a_real_run(self):
        cfg = parse_config(json.dumps({
            "workload": {"kind": "logistic", "dim": 3, "n_samples": 24, "batch_size": 2,
                         "draw_policy": "epoch_shuffle"},
            "algo": {"variant": "ddp"}, "schedule": {"total_steps": 18}, "workers": 2}))
        workload = cfg.build_workload()
        draws = {}
        plain_draw = workload.draw_sample

        def recording_draw(stream, shard):
            idx = plain_draw(stream, shard)
            draws.setdefault(shard.worker, (shard, []))[1].extend(idx.tolist())
            return idx

        workload.draw_sample = recording_draw
        run_training(workload, cfg.build_variant(), cfg.build_schedule(workload),
                     cfg.build_cluster(), cfg.seed)
        assert sorted(draws) == [0, 1]
        for shard, seen in draws.values():
            n = len(shard.indices)  # 12 samples, 18 steps of 2 draws: three epochs
            assert len(seen) == 3 * n
            for epoch in range(3):
                assert sorted(seen[epoch * n:(epoch + 1) * n]) == shard.indices.tolist()


class TestDatasetGeneration:
    def test_deterministic(self):
        a = generate_synthetic_classification(3, 4, 10, 77)
        b = generate_synthetic_classification(3, 4, 10, 77)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_csv_export(self, tmp_path):
        data = generate_synthetic_classification(2, 3, 4, 0)
        path = tmp_path / "data.csv"
        export_dataset_csv(data, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2,label"
        assert len(lines) == 1 + len(data)
