"""The trainer's reductions against explicit loops, bit for bit.

numpy does not document the order in which ``np.add.reduce`` adds, and the
trainer's artifacts are byte-identical only while each reduction keeps one
order. Each test here pins a reduction against a reference written as a
plain loop in this file:

* `mean_of` adds the worker rows left to right, on C, Fortran and
  transposed layouts, at magnitudes across 1e-8..1e8 and on signed-zero
  columns;
* `consensus_probe` adds each replica's squared row norms left to right;
* `row_norms_sq` and `QuadraticWorkload.suboptimality` equal ``np.dot``;
* the logistic objective equals the expression it replaced.

If a numpy release changes an order, mend the function, not these tests.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palsgd.algorithms import consensus_probe
from palsgd.vecmath import mean_of, row_norms_sq
from palsgd.workloads import Dataset, LogisticWorkload, QuadraticWorkload

SEEDS = st.integers(0, 2 ** 32 - 1)
REPLICAS = st.one_of(st.none(), st.integers(1, 10))  # None: a (K, d) array, no replica axis
WORKERS = st.integers(1, 129)
DIMS = st.one_of(st.integers(1, 8), st.integers(1, 874))


def mixed_magnitudes(rng, shape):
    """Normal values each scaled by 10^e, e uniform in -8..8, so that adding
    in another order rounds differently."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


def left_to_right_mean(x):
    """The mean over axis -2, adding one row at a time in index order; each
    vector add is elementwise, so every entry is a sequential sum."""
    total = x[..., 0, :].copy()
    for k in range(1, x.shape[-2]):
        total = total + x[..., k, :]
    return total / x.shape[-2]


def with_signed_zero_columns(rng, x):
    """x with a few columns set to -0.0 in every row, and one to +0.0."""
    cols = rng.choice(x.shape[-1], size=min(x.shape[-1], 3), replace=False)
    x[..., cols[:2]] = -0.0
    x[..., cols[2:]] = 0.0
    return x


def layouts(x):
    """x as C-contiguous, Fortran-ordered, and a transposed view whose
    worker axis is the contiguous one."""
    swapped = np.ascontiguousarray(np.swapaxes(x, -1, -2))
    return {"C": x, "F": np.asfortranarray(x), "transposed": np.swapaxes(swapped, -1, -2)}


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMeanOf:
    @given(REPLICAS, WORKERS, DIMS, SEEDS, st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(None, 129, 1, 0, False)   # d = 1, where reduce would add pairwise
    @example(10, 129, 874, 1, True)    # the largest stack
    @example(1, 9, 1, 2, False)        # d = 1 past 8 rows, where numpy's sums go pairwise
    def test_adds_the_rows_left_to_right(self, s, k, d, seed, zeros):
        rng = np.random.default_rng(seed)
        x = mixed_magnitudes(rng, (k, d) if s is None else (s, k, d))
        if zeros:
            x = with_signed_zero_columns(rng, x)
        want = left_to_right_mean(x)
        for name, arranged in layouts(x).items():
            assert np.array_equal(arranged, x)
            got = mean_of(arranged)
            assert same_bits(got, want), name


class TestConsensusProbe:
    @given(st.integers(1, 10), WORKERS, st.integers(1, 64), SEEDS)
    @settings(max_examples=60, deadline=None)
    @example(1, 129, 4, 0)
    def test_drift_adds_the_row_norms_left_to_right(self, s, k, d, seed):
        rng = np.random.default_rng(seed)
        x = mixed_magnitudes(rng, (s, k, d))
        global_x = mixed_magnitudes(rng, (s, d))
        xbar = mean_of(x)
        got = consensus_probe(x, global_x, xbar)
        for out, ref in zip(got, (global_x, xbar)):
            want = []
            for rows, r in zip(x, ref):
                total = 0.0
                for row in rows:
                    total += float(np.dot(row - r, row - r))  # a float +=: no compensation
                want.append(total / k)
            assert out.tolist() == want


class TestDotKernels:
    @given(st.integers(1, 1290), st.integers(1, 874), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_row_norms_are_dot_products(self, n, d, seed):
        x = mixed_magnitudes(np.random.default_rng(seed), (n, d))
        assert row_norms_sq(x).tolist() == [float(np.dot(row, row)) for row in x]

    @given(REPLICAS, st.integers(1, 874), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_suboptimality_is_a_dot_product(self, s, d, seed):
        rng = np.random.default_rng(seed)
        w = QuadraticWorkload(10.0 ** rng.uniform(-3, 3, d), rng.normal(size=d), 0.0)
        x = mixed_magnitudes(rng, (d,) if s is None else (s, d))
        got = w.suboptimality(x)

        def want(row):
            delta = row - w.x_star
            return float(0.5 * np.dot(w.hessian_diag * delta, delta))

        assert got == (want(x) if s is None else [want(row) for row in x])


def logistic_loss_before(w, x, feats, y):
    """The objective as it was written before it took one buffer."""
    z = feats @ x
    loss = float(np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z))
    return loss + 0.5 * w.l2_reg * float(np.dot(x, x))


class TestLogisticLoss:
    @given(st.integers(1, 5000).filter(lambda n: n % 8), st.integers(1, 40),
           st.floats(-3.0, 3.5), st.sampled_from([0.0, 0.01]), SEEDS)
    @settings(max_examples=100, deadline=None)
    @example(4095, 32, 3.0, 0.01, 0)  # |z| past 709 and 746, where e^-|z| is subnormal or 0
    def test_equals_the_expression_it_replaced(self, n, d, log_scale, l2_reg, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        w = LogisticWorkload(Dataset(rng.normal(size=(n, d)), labels, 2), l2_reg=l2_reg)
        x = rng.normal(size=d) * 10.0 ** log_scale
        y = labels.astype(np.float64)
        assert w.full_objective(x) == logistic_loss_before(w, x, w.train.features, y)
        idx = rng.integers(0, n, 1 + n % 37)
        assert w.batch_objective(x, idx) == logistic_loss_before(
            w, x, w.train.features[idx], y[idx])
