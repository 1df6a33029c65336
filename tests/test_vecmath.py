import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import palsgd
from palsgd import vecmath
from palsgd.vecmath import (PURPOSE_BERNOULLI, PURPOSE_DATA, PURPOSE_JITTER, PURPOSE_SHUFFLE,
                            RngStream, StreamChunks, fill_uniform, mean_of, row_norms_sq)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(*values):
    return np.asarray(values, dtype=np.float64)


class TestMeanOf:
    def test_single(self):
        assert np.array_equal(mean_of(np.stack([vec(1, 1)])), vec(1, 1))

    def test_symmetry(self):
        assert np.array_equal(mean_of(np.stack([vec(0, 2), vec(2, 0)])), vec(1, 1))

    def test_cancellation(self):
        vs = np.stack([vec(1, 0), vec(0, 1), vec(-1, -1), vec(0, 0)])
        assert np.array_equal(mean_of(vs), vec(0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_of(np.zeros((0, 3)))

    def test_canonical_order_is_bit_stable(self):
        rng = np.random.default_rng(5)
        vs = [rng.normal(size=6) for _ in range(7)]
        assert np.array_equal(mean_of(np.stack(vs)), mean_of(np.stack([v.copy() for v in vs])))

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

    def test_replica_stack_equals_each_replica_alone(self):
        # the (S, d) means of an (S, K, d) stack, one replica per row
        rng = np.random.default_rng(7)
        for s, k, d in ((1, 1, 1), (3, 33, 1), (5, 9, 4), (2, 8, 64)):
            x = rng.normal(size=(s, k, d)) * 10.0 ** rng.integers(-3, 4, size=(s, k, 1))
            means = mean_of(x)
            assert means.shape == (s, d)
            for r in range(s):
                assert means[r].tolist() == mean_of(x[r].copy()).tolist()

    def test_empty_worker_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_of(np.zeros((2, 0, 3)))

    @given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=2, max_size=6),
           st.randoms())
    @settings(max_examples=100)
    @example([[0.0, 997910.0, 0.0], [0.0, -997949.0, 0.0], [0.0, 1.766, 0.0],
              [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], random.Random(0))
    def test_permutation_invariant_in_value(self, rows, rand):
        vs = [vec(*r) for r in rows]
        shuffled = list(vs)
        rand.shuffle(shuffled)
        a, b = mean_of(np.stack(vs)), mean_of(np.stack(shuffled))
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

    def test_first_rows_of_a_block_equal_the_smaller_block(self):
        # worker k's row of a per-step block must not depend on how many
        # workers share the block
        for k, big in ((1, 32), (3, 5), (7, 8)):
            small_s, big_s = RngStream(3, 0, PURPOSE_DATA), RngStream(3, 0, PURPOSE_DATA)
            for _ in range(4):
                assert np.array_equal(big_s.uniform_vector(big)[:k], small_s.uniform_vector(k))
                got = big_s.gaussian_vector(big * 6, 0.4).reshape(big, 6)[:k]
                assert np.array_equal(got, small_s.gaussian_vector(k * 6, 0.4).reshape(k, 6))
        assert RngStream(3, 0, PURPOSE_DATA).uniform_vector(1)[0] == \
            RngStream(3, 0, PURPOSE_DATA).uniform()

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

    @pytest.mark.parametrize("numpy_seed, seed", [(np.int64(5), 5), (np.int64(-1), -1),
                                                  (np.uint64(2 ** 64 - 1), -1)])
    def test_numpy_integer_seed_draws_as_python_int(self, numpy_seed, seed):
        a, b = RngStream(numpy_seed, 0, 0), RngStream(seed, 0, 0)
        for draw in (lambda s: s.uniform_vector(4), lambda s: s.gaussian_vector(3, 0.5),
                     lambda s: s.integers(0, 9, 5), lambda s: s.permutation(6)):
            assert draw(a).tobytes() == draw(b).tobytes()

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


def fresh_generator(seed, worker, purpose, n):
    """A generator of its own for stream (seed, worker, purpose) at counter block n."""
    key = np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF,
                                 spawn_key=(worker, purpose)).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=n << 64))


class TestSharedGenerator:
    def test_interleaved_streams_equal_their_own_generators(self):
        # every stream sets one shared generator to its key and counter; the
        # streams differ in seed, worker, purpose and counter, their draws
        # interleave, and one is re-created after the others have drawn
        ids = [(3, 0, PURPOSE_DATA, 0), (3, 1, PURPOSE_DATA, 5), (8, 0, PURPOSE_DATA, 0),
               (3, 0, PURPOSE_JITTER, 2), (-1, 4, PURPOSE_SHUFFLE, 7)]
        streams = [RngStream(seed, worker, purpose, counter) for seed, worker, purpose, counter in ids]
        bounds = np.array([5, 9, 1000])[:, None]
        draws = [
            ("uniform_vector", ((4, 3),), lambda g: g.random((4, 3))),
            ("gaussian_vector", (7, 0.3), lambda g: g.standard_normal(7) * 0.3),
            ("integers", (0, bounds, (3, 6)), lambda g: g.integers(0, bounds, size=(3, 6))),
            ("permutation", (11,), lambda g: g.permutation(11)),
        ]
        for turn in range(3):
            for i in range(len(streams)):
                if turn == 2 and i == 0:
                    streams[0] = RngStream(3, 0, PURPOSE_DATA, streams[0].counter)
                seed, worker, purpose, _ = ids[i]
                stream = streams[i]
                name, args, reference = draws[(turn + i) % len(draws)]
                want = reference(fresh_generator(seed, worker, purpose, stream.counter))
                got = getattr(stream, name)(*args)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (turn, i)
        assert [stream.counter for stream in streams] == [c + 3 for *_, c in ids]

    def test_key_cache_is_bounded_and_read_only(self):
        for seed in range(vecmath.KEY_CACHE_SIZE + 10):
            RngStream(seed, 0, PURPOSE_DATA).uniform_vector(1)
        info = vecmath._stream_key.cache_info()
        assert info.maxsize == vecmath.KEY_CACHE_SIZE and info.currsize == info.maxsize
        key = vecmath._stream_key(3, 0, PURPOSE_DATA)
        assert not key.flags.writeable
        with pytest.raises(ValueError):
            key[0] = 0

    def test_importing_palsgd_leaves_numpy_random_unimported(self):
        src = os.path.dirname(os.path.dirname(palsgd.__file__))
        code = "import sys, palsgd; print('numpy.random' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


def fill_gaussian(stream, shape):
    return stream.gaussian_vector(shape, 0.5)


class TestStreamChunks:
    def test_shaped_draws_equal_flat_draws(self):
        # a chunk's (K, C, n) draw is the stream's values in order
        for sigma in (0.0, 0.7):
            got = RngStream(4, 0, PURPOSE_DATA).gaussian_vector((3, 4, 5), sigma)
            want = RngStream(4, 0, PURPOSE_DATA).gaussian_vector(60, sigma).reshape(3, 4, 5)
            assert got.shape == (3, 4, 5) and got.tobytes() == want.tobytes()
        got = RngStream(4, 0, PURPOSE_DATA).uniform_vector((3, 4, 5))
        want = RngStream(4, 0, PURPOSE_DATA).uniform_vector(60).reshape(3, 4, 5)
        assert got.shape == (3, 4, 5) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fill, draw", [
        (fill_uniform, lambda stream, n: stream.uniform_vector(n)),
        (fill_gaussian, lambda stream, n: stream.gaussian_vector(n, 0.5))])
    def test_chunk_c_is_draw_c_of_the_stream(self, fill, draw):
        # step i reads slot i % C of chunk i // C, and chunk c of replica s is
        # draw c of RngStream(seed_s, 0, purpose) laid out (K, C, n)
        seeds, k, width = [3, 8], 5, 3
        c = 1024 // width
        chunks = StreamChunks(seeds, PURPOSE_DATA, k, width, fill)
        steps = np.stack([chunks.next().copy() for _ in range(2 * c + 7)])  # (T, S*K, n)
        for s, seed in enumerate(seeds):
            want = np.concatenate([draw(RngStream(seed, 0, PURPOSE_DATA, counter=n), k * c * width)
                                   .reshape(k, c, width) for n in range(3)], axis=1)
            got = steps[:, s * k:(s + 1) * k].transpose(1, 0, 2)
            assert got.tobytes() == want[:, :len(steps)].tobytes()
        assert [stream.counter for stream in chunks.streams] == [3, 3]
        step = chunks.next()  # a step's draw is a contiguous view of the buffer
        assert step.flags.c_contiguous and np.shares_memory(step, chunks.buf)

    @pytest.mark.parametrize("workers", [1, 5, 32])
    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
    def test_chunk_length_depends_on_the_width_alone(self, workers, seeds):
        for width, steps in ((1, 1024), (3, 341), (64, 16), (1024, 1), (5000, 1)):
            chunks = StreamChunks(seeds, PURPOSE_DATA, workers, width)
            assert chunks.steps == steps
            assert chunks.buf.shape == (steps, len(seeds), workers, width)
