import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palsgd.algorithms import AlgoVariant, Schedule, make_variant, run_training
from palsgd.cluster import AllReduceModel, ClusterSpec
from palsgd.config import (_ALLREDUCE, _BROADCAST, _CLUSTER, _KIND, _OPTIMIZERS, _SCHEDULE,
                           _VARIANT, _WORKLOADS, TOP_KEYS, parse_config)
from palsgd.experiments import central_difference_gradient, max_relative_error
from palsgd.fields import ConfigError, Spec, specs
from palsgd.optimizers import InnerOptConfig, OuterOptConfig
from palsgd.vecmath import (PURPOSE_DATA, PURPOSE_DATAGEN, PURPOSE_INIT, PURPOSE_SHUFFLE,
                            RngStream)

RNG_METHODS = ("uniform", "uniform_vector", "gaussian", "gaussian_vector",
               "integers", "permutation")
from palsgd.workloads import (Dataset, GaussianClusters, LogisticWorkload, MlpWorkload,
                              QuadraticWorkload, _softplus, generate_synthetic_classification,
                              shard_dataset)
from record_columns import assert_columns_equal


def grad(workload, x, sample):
    """One worker's stochastic gradient through the stacked (n, d) API."""
    return workload.stochastic_gradient(np.asarray(x)[None, :], [sample])[0]


def full_gradient(workload, x):
    """The full-batch gradient: one row whose batch is the whole training set."""
    return grad(workload, x, np.arange(len(workload.train)))


def quadratic_full_gradient(w, x):
    return w.hessian_diag * (x - w.x_star)


def variance_at_optimum(w, n_samples, seed, workers=64):
    """Monte Carlo estimate of E||grad f(x*, xi)||^2 from the workload's own
    noise draws, at least `n_samples` of them, one row per worker and step."""
    sampler = w.sampler(workers, [seed])
    x_star = np.tile(w.x_star, (workers, 1))
    steps = -(-n_samples // workers)
    total = 0.0
    for _ in range(steps):
        g = w.stochastic_gradient(x_star, w.draw_sample(sampler, np.ones(workers, dtype=bool)))
        total += float(np.sum(g * g))
    return total / (steps * workers)


def logistic_row_reference(w, x, idx):
    """One row's logistic gradient, written per row as the trainer once ran it."""
    feats = w.train.features[idx]
    y = w.train.labels[idx].astype(np.float64)
    z = feats @ x
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-z))
    grad = feats.T @ (sig - y) / len(idx)
    return grad + w.l2_reg * x


def softplus_reference(z):
    """log(1 + e^z) by np.logaddexp, the form the logistic objective once took."""
    with np.errstate(invalid="ignore"):  # logaddexp flags a nan input
        return np.logaddexp(0.0, z)


def logistic_loss_reference(w, x, idx):
    """The logistic objective over the samples idx, its softplus by logaddexp."""
    z = w.train.features[idx] @ x
    y = w.train.labels[idx].astype(np.float64)
    return float(np.mean(softplus_reference(z) - y * z)) + 0.5 * w.l2_reg * float(np.dot(x, x))


def mlp_row_reference(w, x, idx):
    """One row's MLP backprop, written per row as the trainer once ran it."""
    layers, off = [], 0
    for a, c in zip(w.widths[:-1], w.widths[1:]):
        layers.append((x[off:off + a * c].reshape(a, c), x[off + a * c:off + a * c + c]))
        off += a * c + c
    relu = w.activation == "relu"
    acts, pre = [w.train.features[idx].astype(w.dtype, copy=False)], []
    for i, (wt, b) in enumerate(layers):
        z = acts[-1] @ wt.astype(w.dtype, copy=False) + b.astype(w.dtype, copy=False)
        pre.append(z)
        acts.append((np.maximum(z, 0.0) if relu else np.tanh(z)) if i < len(layers) - 1 else z)
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    logZ = np.log(np.sum(np.exp(shifted), axis=1))
    delta = np.exp(shifted - logZ[:, None])
    delta[np.arange(len(idx)), w.train.labels[idx]] -= 1.0
    delta /= len(idx)
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        wt, _ = layers[i]
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            act_grad = (pre[i - 1] > 0).astype(w.dtype) if relu else 1.0 - acts[i] * acts[i]
            delta = (delta @ wt.T.astype(w.dtype, copy=False)) * act_grad
    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat.astype(np.float64, copy=False)


class PerRowLogistic(LogisticWorkload):
    def stochastic_gradient(self, x, samples):
        return np.stack([logistic_row_reference(self, r, i) for r, i in zip(x, samples)])


class PerRowMlp(MlpWorkload):
    def stochastic_gradient(self, x, samples):
        return np.stack([mlp_row_reference(self, r, i) for r, i in zip(x, samples)])


def random_case(rng, kind):
    """A random workload, K parameter rows and K index batches: K, batch size,
    l2_reg (logistic), widths, activation and dtype (MLP) and the parameter
    scale (1e-3 to 1e2) all vary."""
    k, b, scale = int(rng.integers(1, 40)), int(rng.integers(1, 20)), 10.0 ** rng.uniform(-3, 2)
    seed = int(rng.integers(1000))
    if kind == "logistic":
        data = generate_synthetic_classification(2, int(rng.integers(1, 40)),
                                                 int(rng.integers(20, 100)), seed)
        w = LogisticWorkload(data, l2_reg=float(rng.choice([0.0, 0.05, 1.3])), batch_size=b)
    else:
        classes = int(rng.integers(2, 12))
        widths = ([int(rng.integers(1, 20))] + [int(h) for h in rng.integers(1, 40, rng.integers(0, 3))]
                  + [classes])
        data = generate_synthetic_classification(classes, widths[0], 10, seed)
        w = MlpWorkload(widths, str(rng.choice(["tanh", "relu"])), data, batch_size=b,
                        dtype=str(rng.choice(["float64", "float32"])))
    return w, rng.normal(size=(k, w.dim)) * scale, rng.integers(0, len(data), size=(k, b))


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

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    @example(0, 1, 3)
    def test_gradient_equals_the_reference_bytes(self, seed, rows, dim):
        # the one-buffer gradient against the expression it replaced, with
        # -0.0, 0.0, inf, -inf and nan entries in x, x* and the samples
        rng = np.random.default_rng(seed)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])

        def entries(shape):
            a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            pick = rng.random(shape) < 0.3
            a[pick] = rng.choice(special, size=shape)[pick]
            return a

        x_star = entries(dim)
        if seed == 0:  # every special value in each place
            x_star[:] = special[np.arange(dim) % 5]
        w = make_quadratic(rng.uniform(0.1, 10.0, dim), x_star=x_star)
        x, samples = entries((rows, dim)), entries((rows, dim))
        x_before, samples_before = x.tobytes(), samples.tobytes()
        with np.errstate(invalid="ignore"):
            got = w.stochastic_gradient(x, samples)
            want = w.hessian_diag * (x - w.x_star - samples)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert x.tobytes() == x_before and samples.tobytes() == samples_before

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

    @pytest.mark.parametrize("dim", [1, 4, 64, 874])
    def test_stacked_suboptimality_equals_each_row(self, dim):
        rng = np.random.default_rng(dim)
        w = make_quadratic(rng.uniform(0.5, 4.0, dim), x_star=rng.normal(size=dim))
        stack = rng.normal(size=(5, dim))
        got = w.suboptimality(stack)
        assert isinstance(got, list) and all(type(v) is float for v in got)
        want = [w.suboptimality(row) for row in stack]
        assert all(type(v) is float for v in want)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        # each value is the 1-D formula's, summed in np.dot's order
        dots = [0.5 * float(np.dot((row - w.x_star) * w.hessian_diag, row - w.x_star))
                for row in stack]
        assert np.array(got).tobytes() == np.array(dots).tobytes()

    def test_mu_and_smoothness(self):
        w = make_quadratic((1.0, 3.0, 4.0))
        assert w.mu == 1.0 and w.smoothness == 4.0

    def test_gradient_consistency_with_full_objective(self):
        w = make_quadratic((1.0, 2.0, 4.0), sigma=1.0)
        x = np.array([0.3, -1.0, 2.0])
        analytic = quadratic_full_gradient(w, x)
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
            rhs = (w.suboptimality(x) + float(quadratic_full_gradient(w, x) @ (y - x))
                   + 0.5 * w.mu * float(np.sum((y - x) ** 2)))
            assert lhs >= rhs - 1e-10 * max(1.0, abs(lhs))

    def test_smoothness_witness(self):
        w = make_quadratic((1.0, 4.0), sigma=1.0)
        sampler = w.sampler(1, [1])
        rng = np.random.default_rng(1)
        for _ in range(100):
            xi = w.draw_sample(sampler, np.ones(1, dtype=bool))[0]
            x, y = rng.normal(size=2), rng.normal(size=2)
            lhs = np.linalg.norm(grad(w, x, xi) - grad(w, y, xi))
            assert lhs <= w.smoothness * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_variance_at_optimum_zero_noise(self):
        w = make_quadratic((1.0, 1.0), sigma=0.0)
        assert variance_at_optimum(w, 100, 0) == 0.0

    @pytest.mark.parametrize("sigma,expected,tol", [(1.0, 1.0, 0.01), (2.0, 4.0, 0.04)])
    def test_variance_at_optimum_calibration(self, sigma, expected, tol):
        w = QuadraticWorkload(np.ones(4), np.zeros(4), sigma)
        est = variance_at_optimum(w, 1_000_000, 31)
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
            worst = max(worst, max_relative_error(
                full_gradient(w, x), central_difference_gradient(w.full_objective, x)))
        assert worst < 1e-4

    def test_mean_of_stochastic_gradients_is_full_gradient(self):
        w = self.make()
        x = np.full(w.dim, 0.2)
        per_sample = [grad(w, x, np.array([i])) for i in range(len(w.train))]
        mean_grad = np.mean(per_sample, axis=0)
        assert max_relative_error(mean_grad, full_gradient(w, x)) < 1e-10

    def test_requires_two_classes(self):
        data = generate_synthetic_classification(3, 4, 10, 0)
        with pytest.raises(ValueError):
            LogisticWorkload(data)

    def test_objectives_match_the_logaddexp_loss(self):
        w = self.make(n=400, dim=6)
        rng = np.random.default_rng(4)
        everything = np.arange(len(w.train))
        for scale in np.repeat([1e-3, 0.1, 1.0, 10.0, 100.0], 10):
            x = rng.normal(size=w.dim) * scale
            idx = rng.integers(0, len(w.train), 16)
            assert w.full_objective(x) == pytest.approx(
                logistic_loss_reference(w, x, everything), rel=1e-15, abs=0.0)
            assert w.batch_objective(x, idx) == pytest.approx(
                logistic_loss_reference(w, x, idx), rel=1e-15, abs=0.0)


class TestSoftplus:
    """The logistic objective's softplus against np.logaddexp(0, z)."""

    EDGES = np.array([0.0, 5e-324, -5e-324, 37.0, -37.0, 709.0, -709.0, 746.0, -746.0,
                      800.0, -800.0, np.inf, -np.inf, np.nan])

    def test_within_a_few_ulps_of_logaddexp(self):
        mag = np.logspace(-8, np.log10(700.0), 2001)
        z = np.concatenate([-mag[::-1], mag])
        got, want = _softplus(z), softplus_reference(z)
        assert (got > 0).all() and (want > 0).all()
        # positive doubles order as their bit patterns: the difference counts ulps
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 8

    def test_edge_values_equal_logaddexp(self):
        got, want = _softplus(self.EDGES), softplus_reference(self.EDGES)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        assert np.array_equal(got, want, equal_nan=True)

    def test_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _softplus(self.EDGES)
            with pytest.raises(RuntimeWarning):  # the check sees a warning numpy raises
                np.logaddexp(0.0, self.EDGES)


class TestMlp:
    def make(self, activation="tanh", widths=(5, 7, 3), seed=4):
        data = generate_synthetic_classification(widths[-1], widths[0], 15, seed)
        return MlpWorkload(list(widths), activation, data, batch_size=6)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_gradient_matches_finite_differences(self, activation):
        w = self.make(activation)
        init = RngStream(10, 0, PURPOSE_INIT)
        probe = RngStream(11, 0, PURPOSE_DATA)
        sampler = w.sampler(1, [0])
        worst = 0.0
        for _ in range(10):
            x = w.init_params(init) + probe.gaussian_vector(w.dim, 0.2)
            idx = w.draw_sample(sampler, np.ones(1, dtype=bool))[0]
            analytic = grad(w, x, idx)
            numeric = central_difference_gradient(lambda v: w.batch_objective(v, idx), x)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-4

    def test_mean_of_stochastic_gradients_is_full_gradient(self):
        w = self.make()
        x = w.init_params(RngStream(3, 0, PURPOSE_INIT))
        per_sample = [grad(w, x, np.array([i])) for i in range(len(w.train))]
        assert max_relative_error(np.mean(per_sample, axis=0), full_gradient(w, x)) < 1e-10

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
        shards = shard_dataset(data, 4, [0], 1)
        assert len(shards) == 4
        assert shards.sizes.tolist() == [25, 25, 25, 25]
        assert shards.starts.tolist() == [0, 25, 50, 75]
        assert sorted(shards.flat.tolist()) == list(range(100))

    def test_uneven_split_deterministic_order(self):
        data = Dataset(np.zeros((10, 2)), np.zeros(10, dtype=np.int64), 1)
        shards = shard_dataset(data, 3, [5], 1)
        assert shards.sizes.tolist() == [4, 3, 3]
        assert shards.starts.tolist() == [0, 4, 7]
        for lo, n in zip(shards.starts, shards.sizes):
            part = shards.flat[lo:lo + n]
            assert np.array_equal(part, np.sort(part))

    def test_same_seed_same_shards(self):
        data = generate_synthetic_classification(2, 3, 20, 1)
        a = shard_dataset(data, 4, [9], 1)
        b = shard_dataset(data, 4, [9], 1)
        assert np.array_equal(a.flat, b.flat) and np.array_equal(a.sizes, b.sizes)

    def test_with_replacement_rows_come_from_their_own_shard(self):
        w = LogisticWorkload(Dataset(np.zeros((10, 2)), np.zeros(10, dtype=np.int64), 2),
                             batch_size=5)
        shards = w.sampler(3, [5])  # sizes 4, 3, 3
        seen = [set(), set(), set()]
        for _ in range(40):
            for k, batch in enumerate(shards.draw(np.ones(3, dtype=bool))):
                seen[k].update(batch.tolist())
        assert seen == [set(shards.flat[lo:lo + n].tolist())
                        for lo, n in zip(shards.starts, shards.sizes)]
        # draw i reads slot i of chunk 0, one (K, C, batch) integer draw of the
        # stream keyed (seed, 0, PURPOSE_DATA), C = 1024 // 5; draw 40 reads
        # every row of slot 40, and draw 41, whose mask picks a subset of the
        # rows, still every row of slot 41
        chunk = RngStream(5, 0, PURPOSE_DATA).integers(0, shards.sizes[:, None, None], (3, 204, 5))

        def indices(rows, slot):
            return shards.flat[shards.starts[rows, None] + chunk[rows, slot]]

        assert np.array_equal(shards.draw(np.ones(3, dtype=bool)), indices([0, 1, 2], 40))
        assert np.array_equal(shards.draw(np.array([True, False, True])), indices([0, 1, 2], 41))

    @pytest.mark.parametrize("n, workers", [(4096, 32), (4098, 32), (10, 3)],
                             ids=["equal", "unequal", "10-over-3"])
    def test_positions_are_the_integer_draws_of_the_stream(self, n, workers):
        # equal shards draw under a scalar bound and unequal ones under the
        # (K, 1, 1) bound array; both give chunk c of replica s as draw c of
        # RngStream(seed_s, 0, PURPOSE_DATA), laid out step-major, each row
        # offset by its shard's start into `flat`
        seeds, batch = [3, 8], 64
        data = Dataset(np.zeros((n, 1)), np.zeros(n, dtype=np.int64), 2)
        shards = shard_dataset(data, workers, seeds, batch)
        c = 1024 // batch
        sizes = shards.sizes[:workers, None, None]
        chunks = [[RngStream(seed, 0, PURPOSE_DATA, counter=chunk).integers(
            0, sizes, (workers, c, batch)) for seed in seeds] for chunk in range(3)]
        for step in range(2 * c + 5):
            got = shards.positions.next() - shards.starts[:, None]
            want = np.concatenate([block[:, step % c] for block in chunks[step // c]])
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes(), step

    def test_more_workers_than_samples_rejected(self):
        data = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="shard"):
            shard_dataset(data, 5, [0], 1)

    def test_epoch_shuffle_covers_every_sample(self):
        data = Dataset(np.zeros((8, 1)), np.zeros(8, dtype=np.int64), 1)
        shards = shard_dataset(data, 1, [0], 8, draw_policy="epoch_shuffle")
        seen = shards.draw(np.ones(1, dtype=bool))[0]
        assert sorted(seen.tolist()) == list(range(8))

    def test_epoch_shuffle_permutes_each_epoch_by_the_shard_stream(self, monkeypatch):
        # epoch e of shard k is its sorted indices permuted by the shard's own
        # stream at counter e, read in order across draws with a batch longer
        # than the shard; the shards themselves come from the datagen permutation
        data = Dataset(np.zeros((11, 1)), np.zeros(11, dtype=np.int64), 1)
        seed, batch, draws = 6, 9, 4
        shards = shard_dataset(data, 3, [seed], batch, draw_policy="epoch_shuffle")
        order = RngStream(seed, 0, PURPOSE_DATAGEN).permutation(11)
        calls = []
        for name in RNG_METHODS:
            plain = getattr(RngStream, name)

            def counted(self, *args, _name=name, _plain=plain, **kwargs):
                calls.append((_name, self.purpose))
                return _plain(self, *args, **kwargs)

            monkeypatch.setattr(RngStream, name, counted)
        seen = {k: [] for k in range(3)}
        for i in range(draws):
            mask = np.array([True, i % 2 == 0, True])  # shard 1 advances only when masked
            out = shards.draw(mask)
            for k in np.flatnonzero(mask):
                seen[k].extend(out[k].tolist())
        monkeypatch.undo()
        # epoch_shuffle draws no data stream: its only generator calls are the
        # shard streams' permutations, one per epoch started
        assert set(calls) == {("permutation", PURPOSE_SHUFFLE)}
        assert len(calls) == sum(-(-len(seen[k]) // n) for k, n in enumerate((4, 4, 3)))
        for k, (lo, n) in enumerate([(0, 4), (4, 4), (8, 3)]):
            indices = np.sort(order[lo:lo + n])
            epochs = [indices[RngStream(seed, k, PURPOSE_SHUFFLE, counter=e).permutation(n)]
                      for e in range(-(-batch * draws // n))]
            assert seen[k] == np.concatenate(epochs)[:len(seen[k])].tolist(), k
        assert len(seen[1]) == 2 * batch and len(seen[0]) == batch * draws

    def test_epoch_shuffle_draw_gathers_rows_inside_an_epoch_and_refills_the_rest(self):
        # sizes 5, 5, 4 and batch 2: the third draw reads shard 1 inside its
        # epoch, while shard 0 reaches its epoch's end mid-batch and shard 2
        # starts a new epoch; each shard reads its epochs in order either way
        data = Dataset(np.zeros((14, 1)), np.zeros(14, dtype=np.int64), 1)
        seed = 3
        shards = shard_dataset(data, 3, [seed], 2, draw_policy="epoch_shuffle")
        epochs = [np.concatenate([shards.flat[lo:lo + n][
            RngStream(seed, k, PURPOSE_SHUFFLE, counter=e).permutation(n)] for e in range(2)])
            for k, (lo, n) in enumerate(zip(shards.starts, shards.sizes))]
        pos = [0, 0, 0]

        def read(rows):
            out = shards.draw(np.isin(np.arange(3), rows))
            for k in rows:
                assert out[k].tolist() == epochs[k][pos[k]:pos[k] + 2].tolist(), (rows, k)
                pos[k] += 2

        read([0, 1, 2])  # every shard starts its first epoch
        read([0, 2])     # every row inside its epoch
        assert shards.cursor.tolist() == [4, 2, 4]
        read([0, 1, 2])
        assert shards.cursor.tolist() == [1, 4, 2]

    def test_epoch_shuffle_mask_draw_moves_only_the_masked_shards(self):
        # sizes 5, 5, 4 and batch 2 over 12 draws: every shard crosses epochs
        data = Dataset(np.zeros((14, 1)), np.zeros(14, dtype=np.int64), 1)
        shards = shard_dataset(data, 3, [4], 2, draw_policy="epoch_shuffle")
        first = shards.flat[shards.starts]
        rng = np.random.default_rng(2)
        for _ in range(12):
            mask = rng.random(3) < 0.6
            cursor = shards.cursor.copy()
            out = shards.draw(mask)
            assert out.shape == (3, 2)
            assert np.array_equal(shards.cursor[~mask], cursor[~mask])
            assert (out[~mask] == first[~mask, None]).all()
            for k in np.flatnonzero(mask):
                lo, n = shards.starts[k], shards.sizes[k]
                assert set(out[k].tolist()) <= set(shards.flat[lo:lo + n].tolist())
        # a step that masks shard 1 off is one that shard 1 never took
        a = shard_dataset(data, 3, [4], 2, draw_policy="epoch_shuffle")
        b = shard_dataset(data, 3, [4], 2, draw_policy="epoch_shuffle")
        everyone = np.ones(3, dtype=bool)
        assert np.array_equal(a.draw(everyone), b.draw(everyone))
        a.draw(np.array([True, False, True]))
        later, skipped, both = a.draw(everyone), b.draw(everyone), b.draw(everyone)
        assert np.array_equal(later[1], skipped[1])
        assert np.array_equal(later[[0, 2]], both[[0, 2]])

    def test_epoch_shuffle_in_a_real_run(self):
        # ddp steps every row every step; palsgd with p > 0 steps only the rows
        # that do not mix, and only their shards may advance
        for algo, schedule in (({"variant": "ddp"}, {"total_steps": 18}),
                               ({"variant": "palsgd"},
                                {"p": 0.3, "sync_interval": 4, "total_steps": 30})):
            cfg = parse_config(json.dumps({
                "workload": {"kind": "logistic", "dim": 3, "n_samples": 24, "batch_size": 2,
                             "draw_policy": "epoch_shuffle"},
                "algo": algo, "schedule": schedule, "workers": 2}))
            workload = cfg.build_workload()
            seen = {0: [], 1: []}
            plain_draw = workload.draw_sample

            def recording_draw(sampler, mask):
                idx = plain_draw(sampler, mask)
                for k in np.flatnonzero(mask):
                    seen[k].extend(idx[k].tolist())
                return idx

            workload.draw_sample = recording_draw
            result = run_training(workload, cfg.build_variant(), cfg.build_schedule(workload),
                                  cfg.build_cluster(), cfg.seed)
            shards = workload.sampler(2, [cfg.seed])
            for k, steps in enumerate(result.diagnostics.gradient_steps_per_worker):
                lo, n = shards.starts[k], shards.sizes[k]  # 12 samples, 2 per gradient step
                assert len(seen[k]) == 2 * steps
                assert len(seen[k]) >= 2 * n, (algo, k)
                for epoch in range(len(seen[k]) // n):
                    assert sorted(seen[k][epoch * n:(epoch + 1) * n]) == shards.flat[lo:lo + n].tolist()
            if algo["variant"] == "ddp":
                assert len(seen[0]) == len(seen[1]) == 3 * n
            else:
                assert sum(result.diagnostics.mixing_steps_per_worker) > 0


class TestDatasetGeneration:
    def test_deterministic(self):
        a = generate_synthetic_classification(3, 4, 10, 77)
        b = generate_synthetic_classification(3, 4, 10, 77)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_a_set_of_one_class_is_rejected(self):
        # no workload takes one class: the logistic needs two, and an mlp's
        # softmax over one output has nothing to learn
        with pytest.raises(ConfigError) as exc:
            generate_synthetic_classification(1, 3, 4, 0)
        assert exc.value.field == "classes"


class TestStackedGradients:
    """The stacked logistic and MLP gradients against the per-row code."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_rows_equal_the_per_row_reference(self, kind):
        rng = np.random.default_rng(11 if kind == "logistic" else 12)
        reference = logistic_row_reference if kind == "logistic" else mlp_row_reference
        seen = set()
        for _ in range(150):
            w, x, samples = random_case(rng, kind)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # sigmoid overflow at scale 1e2 stays silent
                got = w.stochastic_gradient(x, samples)
            with np.errstate(all="ignore"):
                want = np.stack([reference(w, r, i) for r, i in zip(x, samples)])
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            seen.add((w.l2_reg > 0,) if kind == "logistic" else (w.activation, w.dtype))
        assert len(seen) == (2 if kind == "logistic" else 4)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_each_row_equals_the_one_row_call(self, kind):
        rng = np.random.default_rng(21 if kind == "logistic" else 22)
        for _ in range(100):
            w, x, samples = random_case(rng, kind)
            with np.errstate(all="ignore"):
                rows = w.stochastic_gradient(x, samples)
                for k in range(len(x)):
                    assert rows[k].tobytes() == w.stochastic_gradient(x[k:k + 1], samples[k:k + 1])[0].tobytes()

    @staticmethod
    def assert_runs_bit_equal(real, per_row, variant, schedule, workers, eval_every=None):
        cluster = ClusterSpec(workers=workers, jitter=0.1,
                              allreduce=AllReduceModel(latency_s=1e-3, bandwidth_bytes_per_s=1e9))
        a = run_training(real, variant, schedule, cluster, 3, eval_every=eval_every)
        b = run_training(per_row, variant, schedule, cluster, 3, eval_every=eval_every)
        assert a.global_model.tobytes() == b.global_model.tobytes()
        assert_columns_equal(a.diagnostics.columns, b.diagnostics.columns)
        assert a.diagnostics.gradient_steps_per_worker == b.diagnostics.gradient_steps_per_worker
        return a

    def test_logistic_ddp_run_equals_the_per_row_run(self):
        data = generate_synthetic_classification(2, 6, 40, 5)
        real, per_row = (cls(data, l2_reg=0.01, batch_size=4) for cls in (LogisticWorkload, PerRowLogistic))
        self.assert_runs_bit_equal(real, per_row, make_variant("ddp"),
                                   Schedule(alpha=0.5, total_steps=40), workers=5)

    @pytest.mark.parametrize("draw_policy", ["with_replacement", "epoch_shuffle"])
    def test_mlp_palsgd_run_equals_the_per_row_run(self, draw_policy):
        data = generate_synthetic_classification(3, 5, 20, 6)
        test = generate_synthetic_classification(3, 5, 20, 6, split=1)
        real, per_row = (cls([5, 7, 3], "tanh", data, test=test, batch_size=4, draw_policy=draw_policy)
                         for cls in (MlpWorkload, PerRowMlp))
        inner = InnerOptConfig(variant="adamw", clip_norm=1.0, weight_decay=0.01)
        result = self.assert_runs_bit_equal(
            real, per_row, make_variant("palsgd", inner=inner),
            Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=4, total_steps=24), workers=4,
            eval_every=4)
        assert sum(result.diagnostics.mixing_steps_per_worker) > 0  # some calls take a row subset
        assert result.diagnostics.columns["evaluated"][-1]
        assert not np.isnan(result.diagnostics.columns["eval_acc"][-1])


TWO_CLASSES = generate_synthetic_classification(2, 3, 4, 0)
THREE_CLASSES = generate_synthetic_classification(3, 3, 4, 0)


def owner(cls, build=None, **required):
    """The Specs that `cls` declares, and a call that builds it (through
    `build`, if given) from `required` and one field."""
    return specs(cls), lambda key, value: (build or cls)(**{**required, key: value})


CLUSTERS = owner(GaussianClusters, generate_synthetic_classification,
                 classes=3, dim=3, samples_per_class=4, data_seed=0)

# each config table: its section (a workload kind for a kind's table, "top"
# for the top level), its keys' Specs and the owners that declare them, in
# the order they are searched
TABLES = [
    ("top", TOP_KEYS, []),
    ("schedule", _SCHEDULE, [owner(Schedule, alpha=1.0)]),
    ("cluster", _CLUSTER, [owner(ClusterSpec, workers=1)]),
    ("cluster.allreduce", _ALLREDUCE, [owner(AllReduceModel)]),
    ("algo", {"variant": _VARIANT}, []),
    ("algo.inner", _OPTIMIZERS["inner"], [owner(InnerOptConfig)]),
    ("algo.outer", _OPTIMIZERS["outer"], [owner(OuterOptConfig)]),
    ("workload", {"kind": _KIND}, []),
    ("quadratic", _WORKLOADS["quadratic"],
     [owner(QuadraticWorkload, hessian_diag=np.ones(2), x_star=np.zeros(2), noise_sigma=1.0)]),
    ("quadratic", _BROADCAST, []),
    ("logistic", _WORKLOADS["logistic"],
     [owner(LogisticWorkload, train=TWO_CLASSES), CLUSTERS]),
    ("mlp", _WORKLOADS["mlp"],
     [owner(MlpWorkload, widths=[3, 3], activation="tanh", train=THREE_CLASSES),
      CLUSTERS]),
]
# the two keys whose owner field has another name or sits in another section
RENAMED = {"top.workers": ("workers", [owner(ClusterSpec)]),
           "algo.variant": ("tag", [owner(AlgoVariant, inner=InnerOptConfig(), outer=OuterOptConfig())])}
# the keys that no runtime object takes (the config module says why); a key
# that has no owner field must be listed here on purpose
PARSER_ONLY = {"top.seed", "top.metrics_every", "top.eval_every", "top.out_dir", "workload.kind",
               "quadratic.dim", "quadratic.mu", "quadratic.L", "quadratic.hessian_diag",
               "quadratic.x_star", "quadratic.x0_offset", "logistic.n_samples",
               "mlp.widths", "mlp.test_samples_per_class"}
# fixed bad values besides the derived ones: a bound moved at its one
# declaration moves the derived values along, but not these
PINNED = {("quadratic", "noise_sigma"): -1.0, ("logistic", "l2_reg"): -0.5,
          ("logistic", "batch_size"): 0, ("logistic", "spread"): 0.0,
          ("logistic", "draw_policy"): "bogus", ("mlp", "activation"): "sigmoid",
          ("mlp", "batch_size"): 0, ("mlp", "dtype"): "float16", ("mlp", "init_scale"): -1.0,
          ("mlp", "center_scale"): -1.0, ("mlp", "draw_policy"): "bogus", ("mlp", "classes"): 1}
# the configs that make a top-level key read
READ_WITH = {"eval_every": {"workload": {"kind": "mlp"}}}


def owner_field(where: str, key: str, spec: Spec, owners: list):
    """(the owner field of the key, a call that builds its owner with it),
    or None: the first owner that declares the field with `spec`, defaults
    aside."""
    name, owners = RENAMED.get(f"{where}.{key}", (key, owners))
    for declared, build in owners:
        if name in declared and replace(declared[name], default=spec.default) == spec:
            return name, build
    return None


def faults(spec: Spec) -> list:
    """(fault, value) pairs: a value for each way to break `spec`'s rules."""
    out = []
    if spec.low is not None:
        out.append(("below-low", spec.kind(spec.low - 1)))
        if spec.low_open:
            out.append(("at-open-low", spec.kind(spec.low)))
    if spec.high is not None:
        out.append(("above-high", spec.kind(spec.high + 1)))
        if spec.high_open:
            out.append(("at-open-high", spec.kind(spec.high)))
    if spec.choices is not None:
        out.append(("outside-choices", "bogus" if spec.kind is str else max(spec.choices) + 1))
    number = spec.kind in (int, float)
    out.append(("wrong-type", "1" if number else 1))
    if number:
        out.append(("bool", True))
    if spec.kind is int:
        out.append(("fraction", 0.5))
    if spec.kind is float:
        out += [("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("overflow", 10 ** 400)]
    if spec.sequence:
        out = [("empty-list", []), ("not-a-list", spec.kind(1)),
               *((f"element-{fault}", [value]) for fault, value in out)]
    return out


def dotted(where: str, key: str) -> str:
    """The name that a ConfigError gives the key of section `where`."""
    return key if where == "top" else f"{'workload' if where in _WORKLOADS else where}.{key}"


def config_with(where: str, table: dict, key: str, value) -> dict:
    """The least config that reads `key` of `table`, set to `value`: a
    `read_when` key's choice field takes a value under which the key acts,
    and a workload key's section names its kind."""
    given = {key: value}
    for choice, spec in table.items():
        if table[key].read_when and set(table[key].read_when) <= set(spec.choices or ()):
            given[choice] = table[key].read_when[0]
    if where == "top":
        return {**READ_WITH.get(key, {}), **given}
    if where in _WORKLOADS:
        given, where = {"kind": where, **given}, "workload"
    for part in reversed(where.split(".")):
        given = {part: given}
    return given


def rejection(call, *args):
    """The (field, reason) of the ConfigError that call(*args) raises, or None."""
    try:
        call(*args)
    except ConfigError as exc:
        return exc.field, exc.reason
    return None


KEYS = [(where, table, key, owners) for where, table, owners in TABLES for key in table]


@pytest.mark.parametrize("where, table, key, owners", KEYS,
                         ids=[f"{where}-{key}" for where, _, key, _ in KEYS])
def test_the_parser_and_the_api_reject_a_key_alike(where, table, key, owners):
    """The key has an owner field or is listed as parser-only; each value
    that breaks a rule of its Spec, and its pinned value, is rejected by
    parse_config, naming the dotted key, and by the owner, naming its field
    with the same reason."""
    owned = owner_field(where, key, table[key], owners)
    assert (owned is None) == (f"{where}.{key}" in PARSER_ONLY)
    pinned = [("pinned", PINNED[where, key])] if (where, key) in PINNED else []
    for fault, value in faults(table[key]) + pinned:
        parsed = rejection(parse_config, json.dumps(config_with(where, table, key, value)))
        assert parsed is not None and parsed[0] == dotted(where, key), (fault, parsed)
        if owned is not None:
            name, build = owned
            assert rejection(build, name, value) == (name, parsed[1]), fault


def test_each_pinned_value_belongs_to_a_key_of_the_tables():
    assert set(PINNED) <= {(where, key) for where, _, key, _ in KEYS}
