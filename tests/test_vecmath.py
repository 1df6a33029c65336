import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palsgd.vecmath import (PURPOSE_BERNOULLI, PURPOSE_DATA,
                            DimensionMismatchError, RngStream, mean_of, mix,
                            param_vector, row_norms_sq)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(*values):
    return np.asarray(values, dtype=np.float64)


class TestMix:
    def test_beta_zero_returns_x(self):
        x = vec(1.5, -2.0)
        assert np.array_equal(mix(x, vec(9, 9), 0.0), x)

    def test_beta_one_returns_anchor_exactly(self):
        anchor = vec(0.1, -0.3, 7.0)
        out = mix(vec(2.0, 5.0, -1.0), anchor, 1.0)
        assert np.array_equal(out, anchor)

    def test_unit_coefficient_from_rates(self):
        # alpha*eta/p = 0.1*0.5/0.05 = 1 collapses onto the anchor
        beta = 0.1 * 0.5 / 0.05
        assert np.array_equal(mix(vec(2, 0), vec(0, 0), beta), vec(0, 0))

    @given(st.lists(finite_floats, min_size=1, max_size=8),
           st.lists(finite_floats, min_size=1, max_size=8),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_ema_equals_proximal_gradient_form(self, xs, anchors, beta):
        n = min(len(xs), len(anchors))
        x, anchor = vec(*xs[:n]), vec(*anchors[:n])
        ema = mix(x, anchor, beta)
        prox = x - beta * (x - anchor)
        # Each float op is exact times (1 + d), |d| <= eps/2. To first order
        # the EMA form errs by at most 1.5*eps*max(|x|, |anchor|), and the
        # prox form by 1.5*eps*(|x| + |anchor|), since x - anchor can cancel
        # and its rounding error, scaled by beta, survives into the result.
        # The gap is thus bounded by the inputs, not by the output, at
        # 3*eps*(|x| + |anchor|); 4 leaves room for the second-order terms,
        # and two subnormal units cover underflow in the three products.
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        bound = 4 * eps * (np.abs(x) + np.abs(anchor)) + 2 * tiny
        assert np.all(np.abs(ema - prox) <= bound)


class TestMeanOf:
    def test_single(self):
        assert np.array_equal(mean_of([vec(1, 1)]), vec(1, 1))

    def test_symmetry(self):
        assert np.array_equal(mean_of([vec(0, 2), vec(2, 0)]), vec(1, 1))

    def test_cancellation(self):
        vs = [vec(1, 0), vec(0, 1), vec(-1, -1), vec(0, 0)]
        assert np.array_equal(mean_of(vs), vec(0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_of([])

    def test_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mean_of([vec(1, 2), vec(1, 2, 3)])

    def test_canonical_order_is_bit_stable(self):
        rng = np.random.default_rng(5)
        vs = [rng.normal(size=6) for _ in range(7)]
        assert np.array_equal(mean_of(vs), mean_of([v.copy() for v in vs]))

    def test_rows_sum_left_to_right(self):
        # past 8 rows numpy's reductions sum pairwise, which rounds differently
        rng = np.random.default_rng(6)
        for d in (1, 3):
            x = rng.normal(size=(33, d)) * 10.0 ** rng.integers(-3, 4, size=(33, 1))
            want = []
            for j in range(d):
                total = 0.0
                for row in x:
                    total += float(row[j])
                want.append(total / 33)
            assert mean_of(x).tolist() == want

    @given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=2, max_size=6),
           st.randoms())
    @settings(max_examples=100)
    @example([[0.0, 997910.0, 0.0], [0.0, -997949.0, 0.0], [0.0, 1.766, 0.0],
              [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], random.Random(0))
    def test_permutation_invariant_in_value(self, rows, rand):
        vs = [vec(*r) for r in rows]
        shuffled = list(vs)
        rand.shuffle(shuffled)
        a, b = mean_of(vs), mean_of(shuffled)
        # A sequential sum of n terms errs by at most (n-1)*(eps/2)*sum|v_i|
        # to first order, whatever the order, so two orders differ by up to
        # (n-1)*eps*sum|v_i|; dividing by n and rounding each mean adds
        # eps*|mean|. Since |mean| <= sum|v_i|/n, the gap is at most
        # (n-1)*eps*sum|v|/n + eps*|mean| <= eps*sum|v_i|: it scales with the
        # inputs, not with the output, which cancellation can make tiny. Two
        # subnormal units cover underflow in the division.
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        bound = eps * np.sum(np.abs(vs), axis=0) + 2 * tiny
        assert np.all(np.abs(a - b) <= bound)


class TestNormSq:
    def test_examples(self):
        out = row_norms_sq(np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0],
                                     [1.0, 1.0, 1.0, 1.0]]))
        assert out.tolist() == [0.0, 25.0, 4.0]

    def test_each_row_equals_its_dot(self):
        rng = np.random.default_rng(13)
        for d in (1, 3, 64, 874):
            x = rng.normal(size=(9, d)) * rng.uniform(1e-3, 1e3, size=(9, 1))
            assert row_norms_sq(x).tolist() == [float(np.dot(row, row)) for row in x]


class TestParamVector:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            param_vector([])
        with pytest.raises(ValueError):
            param_vector([1.0, float("nan")])

    def test_casts_to_float64(self):
        assert param_vector([1, 2]).dtype == np.float64


class TestRngStream:
    def test_same_counter_same_value(self):
        s = RngStream(42, worker=3, purpose=PURPOSE_DATA)
        first = s.uniform()
        again = RngStream(42, 3, PURPOSE_DATA, counter=0).uniform()
        assert first == again

    def test_interleaved_draws_equal_fresh_streams_at_their_counter(self):
        # each draw repositions one cached generator; whatever the previous
        # draw left in its buffers, the n-th draw must equal the first draw of
        # a fresh stream started at counter n
        s = RngStream(9, 2, PURPOSE_DATA)
        draws = [("uniform", ()), ("gaussian_vector", (5, 0.7)), ("integers", (0, 1000, 7)),
                 ("permutation", (9,)), ("integers", (0, 3, 1)), ("uniform", ()),
                 ("gaussian_vector", (1, 2.0)), ("permutation", (4,)), ("uniform", ())]
        for n, (name, args) in enumerate(draws):
            got = getattr(s, name)(*args)
            want = getattr(RngStream(9, 2, PURPOSE_DATA, counter=n), name)(*args)
            assert np.array_equal(got, want), (n, name)
        assert s.counter == len(draws)

    def test_draws_advance_counter(self):
        s = RngStream(42, 0, PURPOSE_DATA)
        a, b = s.uniform(), s.uniform()
        assert a != b
        assert s.counter == 2

    def test_replay_reproduces_sequence(self):
        s1 = RngStream(7, 1, PURPOSE_DATA)
        seq1 = [s1.uniform() for _ in range(20)] + list(s1.gaussian_vector(5, 2.0))
        s2 = RngStream(7, 1, PURPOSE_DATA)
        seq2 = [s2.uniform() for _ in range(20)] + list(s2.gaussian_vector(5, 2.0))
        assert seq1 == seq2

    def test_streams_disjoint_across_purposes(self):
        # consuming Bernoulli draws must not shift the data sequence
        data = RngStream(11, 0, PURPOSE_DATA)
        bern = RngStream(11, 0, PURPOSE_BERNOULLI)
        ref = RngStream(11, 0, PURPOSE_DATA)
        out = []
        for i in range(10):
            if i % 2 == 0:
                bern.uniform()
            out.append(data.uniform())
        assert out == [ref.uniform() for _ in range(10)]

    def test_different_ids_differ(self):
        a = RngStream(1, 0, PURPOSE_DATA).uniform()
        b = RngStream(1, 1, PURPOSE_DATA).uniform()
        c = RngStream(2, 0, PURPOSE_DATA).uniform()
        assert len({a, b, c}) == 3

    def test_sigma_zero_is_exact_zero(self):
        s = RngStream(1, 0, PURPOSE_DATA)
        assert s.gaussian(0.0) == 0.0
        assert np.array_equal(s.gaussian_vector(4, 0.0), np.zeros(4))

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            RngStream(1, 0, PURPOSE_DATA).gaussian(-1.0)

    def test_uniform_mean_over_million_draws(self):
        s = RngStream(2024, 0, PURPOSE_DATA)
        total = 0.0
        n = 1_000_000
        block = 10_000
        for _ in range(n // block):
            total += float(np.sum(s.uniform_vector(block)))
        assert 0.498 <= total / n <= 0.502
