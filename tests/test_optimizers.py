import tracemalloc

import numpy as np
import pytest

from palsgd.optimizers import (BIAS_TABLE_MIN, InnerOptConfig, InnerOptState, OuterOptConfig,
                               OuterOptState, inner_step, outer_step)
from palsgd.vecmath import DimensionMismatchError


def vec(*values):
    return np.asarray(values, dtype=np.float64)


def fresh_inner(variant="sgd", dim=1, workers=1, **kw):
    return InnerOptState.fresh(InnerOptConfig(variant=variant, **kw), workers, dim)


def step1(state, x, g, lr):
    """One inner step of a single worker; returns the new x."""
    xs = np.array([x], dtype=np.float64)
    return inner_step(state, xs, np.array([g], dtype=np.float64), lr, np.ones(1, dtype=bool))[0]


class TestInnerSgd:
    def test_basic_step(self):
        state = fresh_inner()
        x = step1(state, vec(1.0), vec(0.5), lr=0.1)
        assert np.array_equal(x, vec(0.95))
        assert state.step.tolist() == [1]

    def test_zero_gradient_identity_still_advances(self):
        x0 = vec(3.0, -1.0)
        state = fresh_inner(dim=2)
        x = step1(state, x0, vec(0.0, 0.0), lr=0.5)
        assert np.array_equal(x, x0)
        assert state.step.tolist() == [1]

    def test_linear_in_inputs(self):
        x, g = vec(0.4, -1.2), vec(2.0, 0.3)
        scaled = step1(fresh_inner(dim=2), 3.0 * x, 3.0 * g, lr=0.07)
        base = step1(fresh_inner(dim=2), x, g, lr=0.07)
        assert np.allclose(scaled, 3.0 * base, rtol=1e-15)

    def test_rejects_bad_lr_and_dims(self):
        with pytest.raises(ValueError, match="lr"):
            step1(fresh_inner(), vec(1.0), vec(1.0), lr=0.0)
        with pytest.raises(DimensionMismatchError):
            step1(fresh_inner(), vec(1.0), vec(1.0, 2.0), lr=0.1)


class TestInnerMomentum:
    def test_two_steps_match_hand_recursion(self):
        state = fresh_inner("sgd_momentum", dim=1, momentum=0.8)
        x = vec(1.0)
        x = step1(state, x, vec(0.5), lr=0.1)
        # m1 = 0.5; x1 = 1 - 0.1*0.5
        assert x[0] == pytest.approx(0.95, abs=1e-15)
        x = step1(state, x, vec(0.25), lr=0.1)
        # m2 = 0.8*0.5 + 0.25 = 0.65; x2 = 0.95 - 0.065
        assert x[0] == pytest.approx(0.885, abs=1e-15)


class TestInnerAdamw:
    def test_first_step_is_signed_lr(self):
        state = fresh_inner("adamw", dim=1)
        x = step1(state, vec(0.0), vec(1.0), lr=0.1)
        # bias correction makes m_hat = g, v_hat = g^2, so step = -lr*g/(|g|+eps)
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert x[0] == pytest.approx(expected, rel=1e-12)

    def test_update_matches_independent_recomputation(self):
        rng = np.random.default_rng(3)
        cfg = InnerOptConfig(variant="adamw", beta1=0.9, beta2=0.999, eps=1e-8)
        state = InnerOptState.fresh(cfg, 1, 5)
        x = rng.normal(size=5)
        m = np.zeros(5)
        v = np.zeros(5)
        for step in range(1, 6):
            g = rng.normal(size=5)
            x_new = step1(state, x, g, lr=0.01)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            m_hat = m / (1.0 - 0.9 ** step)
            v_hat = v / (1.0 - 0.999 ** step)
            expected = x - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(x_new, expected)
            x = x_new

    def test_decoupled_weight_decay(self):
        state = fresh_inner("adamw", dim=1, weight_decay=0.1)
        x = step1(state, vec(2.0), vec(0.0), lr=0.5)
        # zero gradient: only the decay term moves the weight
        assert x[0] == pytest.approx(2.0 * (1 - 0.5 * 0.1), abs=1e-15)

    def test_clipping_rescales_large_gradients(self):
        state = fresh_inner("sgd", dim=2, clip_norm=1.0)
        x = step1(state, vec(0.0, 0.0), vec(3.0, 4.0), lr=1.0)
        assert np.allclose(x, vec(-0.6, -0.8), rtol=1e-15)
        state = fresh_inner("sgd", dim=2, clip_norm=10.0)
        x = step1(state, vec(0.0, 0.0), vec(3.0, 4.0), lr=1.0)
        assert np.array_equal(x, vec(-3.0, -4.0))

    def test_stacked_rows_match_single_worker_steps(self):
        # rows at different step counts, clipping on some rows only: each row
        # must round exactly as a hand-written 1-D update of that worker.
        # Counts pass 7, where numpy's array power first rounds 1 - 0.999**s
        # differently; every step starts from x = 0, so that no one-ulp change
        # in the step is absorbed by x.
        rng = np.random.default_rng(12)
        n, d = 16, 8
        state = InnerOptState.fresh(InnerOptConfig(variant="adamw", clip_norm=3.0), n, d)
        ms, vs, counts = np.zeros((n, d)), np.zeros((n, d)), [0] * n
        for _ in range(30):
            mask = rng.random(n) < 0.7
            g = rng.normal(size=(n, d)) * rng.uniform(0.1, 2.0, size=(n, 1))
            xs = np.zeros((n, d))
            out = inner_step(state, xs, g, 0.1, mask)
            for k in np.flatnonzero(mask):
                gk = g[k]
                norm = float(np.sqrt(np.dot(gk, gk)))
                if norm > 3.0:
                    gk = gk * (3.0 / norm)
                counts[k] += 1
                ms[k] = 0.9 * ms[k] + (1.0 - 0.9) * gk
                vs[k] = 0.999 * vs[k] + (1.0 - 0.999) * (gk * gk)
                m_hat = ms[k] / (1.0 - 0.9 ** counts[k])
                v_hat = vs[k] / (1.0 - 0.999 ** counts[k])
                assert np.array_equal(out[k], -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8))
            # x is not written, and the state rows outside the mask are unchanged
            assert not xs.any()
            assert state.step.tolist() == counts
            assert np.array_equal(state.m, ms) and np.array_equal(state.v, vs)
            assert np.isfinite(out).all()
        assert min(counts) > 7
        assert state.step.tolist() == counts
        assert np.array_equal(state.m, ms) and np.array_equal(state.v, vs)


    @pytest.mark.parametrize("every_row", [False, True])
    def test_long_run_matches_per_row_reference(self, every_row):
        # A mask of a random subset each step, or in separate runs of every
        # row; clipping on some rows only, weight decay on. The masked rows of
        # each result replace those of x, as the trainer's do. Every step
        # compares x and the whole state with a per-row reference, and the
        # run outgrows the first bias-correction table.
        rng = np.random.default_rng(31)
        n, d, lr, clip, wd = 6, 5, 0.01, 1.0, 0.05
        state = InnerOptState.fresh(
            InnerOptConfig(variant="adamw", clip_norm=clip, weight_decay=wd), n, d)
        x = rng.normal(size=(n, d))
        xs, ms, vs, counts = x.copy(), np.zeros((n, d)), np.zeros((n, d)), [0] * n
        for _ in range(400):
            mask = np.ones(n, dtype=bool) if every_row else rng.random(n) < 0.8
            g = rng.normal(size=(n, d)) * rng.uniform(0.05, 1.0, size=(n, 1))
            np.copyto(x, inner_step(state, x, g, lr, mask), where=mask[:, None])
            for k in np.flatnonzero(mask):
                gk = g[k]
                norm = float(np.sqrt(np.dot(gk, gk)))
                if norm > clip:
                    gk = gk * (clip / norm)
                counts[k] += 1
                ms[k] = 0.9 * ms[k] + (1.0 - 0.9) * gk
                vs[k] = 0.999 * vs[k] + (1.0 - 0.999) * (gk * gk)
                m_hat = ms[k] / (1.0 - 0.9 ** counts[k])
                v_hat = vs[k] / (1.0 - 0.999 ** counts[k])
                xs[k] = xs[k] - lr * wd * xs[k] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(x, xs)
            assert np.array_equal(state.m, ms) and np.array_equal(state.v, vs)
            assert state.step.tolist() == counts
        assert max(counts) > BIAS_TABLE_MIN and state.bias_table.shape[1] > BIAS_TABLE_MIN

    @pytest.mark.parametrize("variant", ["sgd", "sgd_momentum", "adamw"])
    def test_gradient_unwritten_and_state_unaliased(self, variant):
        # a clipped row and an unclipped one, both stepping: the first moment
        # must hold the moment itself, not a later in-place stage of it
        state = fresh_inner(variant, dim=3, workers=2, clip_norm=1.0)
        g = np.array([[3.0, 4.0, 0.0], [0.1, -0.2, 0.3]])
        g_before = g.copy()
        x = np.ones((2, 3))
        out = inner_step(state, x, g, 0.1, np.ones(2, dtype=bool))
        assert np.array_equal(g, g_before) and np.array_equal(x, np.ones((2, 3)))
        clipped = g * np.array([[0.2], [1.0]])
        if variant == "sgd_momentum":
            assert np.array_equal(state.m, clipped)
        if variant == "adamw":
            assert np.array_equal(state.m, (1.0 - 0.9) * clipped)
            assert np.array_equal(state.v, (1.0 - 0.999) * (clipped * clipped))
        for buf in (state.m, state.v):
            assert buf is None or not any(np.shares_memory(buf, a) for a in (x, g, out))

    @pytest.mark.parametrize("betas", [(0.9, 0.999), (0.5, 0.97)])
    def test_bias_table_matches_python_powers(self, betas):
        state = fresh_inner("adamw", beta1=betas[0], beta2=betas[1])
        steps = np.arange(10_001)
        table = state.corrections_at(steps)
        for row, beta in zip(table, betas):
            assert row.tolist() == [1.0 - beta ** s for s in range(10_001)]
        # a fresh state starts a new table
        assert InnerOptState.fresh(state.config, 1, 1).bias_table is None


class TestAllocations:
    @pytest.mark.parametrize("mask", [np.ones(8, dtype=bool), np.arange(8) % 3 > 0],
                             ids=["all", "some"])
    def test_adamw_clip_step_peak(self, mask):
        # out-of-place formulas peaked at 10 (K, d) temporaries here, the
        # in-place update at 6, the masked one (its result included) at 5
        k, d = 8, 874
        rng = np.random.default_rng(4)
        state = InnerOptState.fresh(
            InnerOptConfig(variant="adamw", clip_norm=1.0, weight_decay=0.01), k, d)
        x = rng.normal(size=(k, d))
        g = rng.normal(size=(k, d)) * np.linspace(0.01, 0.1, k)[:, None]  # some rows clip
        inner_step(state, x, g, 0.01, mask)
        tracemalloc.start()
        try:
            inner_step(state, x, g, 0.01, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * k * d * 8


class TestOuterStep:
    def test_sgd_lr1_moves_to_mean(self):
        state = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=1.0), 2)
        x = outer_step(state, vec(1.0, 1.0), vec(0.0, 0.0))
        assert np.array_equal(x, vec(0.0, 0.0))

    @pytest.mark.parametrize("cfg", [OuterOptConfig(variant="sgd", lr=1.0),
                                     OuterOptConfig(variant="nesterov", lr=1.0, momentum=0.0)])
    def test_plain_averaging_returns_the_mean_bit_for_bit(self, cfg):
        x_global, mean = vec(1.0), vec(0.3)
        assert (x_global - (x_global - mean))[0] == 0.30000000000000004
        out = outer_step(OuterOptState.fresh(cfg, 1), x_global, mean)
        assert out is mean and out[0] == 0.3

    def test_nesterov_zero_momentum_equals_sgd(self):
        mean = vec(0.7, 2.7)
        xg = vec(1.0, 2.0)
        sgd_state = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=0.4), 2)
        nes_state = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.4, momentum=0.0), 2)
        a = outer_step(sgd_state, xg, mean)
        b = outer_step(nes_state, xg, mean)
        assert np.array_equal(a, b)

    def test_nesterov_two_step_scalar_oracle(self):
        state = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.1, momentum=0.9), 1)
        x = vec(0.0)
        x = outer_step(state, x, x - 1.0)  # delta = 1
        # v1 = 1; x1 = -0.1*(1 + 0.9*1) = -0.19
        assert x[0] == pytest.approx(-0.19, abs=1e-15)
        x = outer_step(state, x, x - 1.0)
        # v2 = 0.9 + 1 = 1.9; x2 = x1 - 0.1*(1 + 0.9*1.9) = x1 - 0.271
        assert x[0] == pytest.approx(-0.19 - 0.271, abs=1e-15)

    def test_nesterov_buffer_advances_in_place(self):
        state = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.1, momentum=0.9), 1)
        buf = state.buf
        x = outer_step(state, vec(0.0), vec(-1.0))
        assert state.buf is buf and buf[0] == 1.0
        outer_step(state, x, x - 1.0)
        assert state.buf is buf and buf[0] == pytest.approx(1.9, abs=1e-15)

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            OuterOptConfig(variant="adamw")
        with pytest.raises(ValueError):
            InnerOptConfig(variant="nesterov")

    def test_plain_averaging_detection(self):
        assert OuterOptConfig(variant="sgd", lr=1.0).is_plain_averaging
        assert OuterOptConfig(variant="nesterov", lr=1.0, momentum=0.0).is_plain_averaging
        assert not OuterOptConfig(variant="sgd", lr=0.5).is_plain_averaging
        assert not OuterOptConfig(variant="nesterov", lr=1.0, momentum=0.9).is_plain_averaging


class TestStatePersistence:
    def test_adamw_state_not_shared_between_copies(self):
        # two fresh states share no arrays, and a step moves only its own rows
        state, other = fresh_inner("adamw", dim=2, workers=2), fresh_inner("adamw", dim=2, workers=2)
        inner_step(state, np.zeros((2, 2)), np.ones((2, 2)), 0.1, np.array([False, True]))
        assert state.step.tolist() == [0, 1] and other.step.tolist() == [0, 0]
        assert np.array_equal(state.m[0], np.zeros(2)) and np.array_equal(other.m, np.zeros((2, 2)))
