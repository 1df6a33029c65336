import math

import numpy as np
import pytest

from palsgd.optimizers import (InnerOptConfig, InnerOptState, OuterOptConfig,
                               OuterOptState, inner_step, outer_step)
from palsgd.vecmath import DimensionMismatchError


def vec(*values):
    return np.asarray(values, dtype=np.float64)


def fresh_inner(variant="sgd", dim=1, workers=1, **kw):
    return InnerOptState.fresh(InnerOptConfig(variant=variant, **kw), workers, dim)


def step1(state, x, g, lr):
    """One inner step of a single worker, on a copy of x; returns the new x."""
    xs = np.array([x], dtype=np.float64)
    inner_step(state, xs, np.array([g], dtype=np.float64), lr)
    return xs[0]


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
            rows = np.flatnonzero(rng.random(n) < 0.7)
            g = rng.normal(size=(len(rows), d)) * rng.uniform(0.1, 2.0, size=(len(rows), 1))
            xs = np.zeros((n, d))
            inner_step(state, xs, g, 0.1, rows)
            for i, k in enumerate(rows):
                gk = g[i]
                norm = float(np.sqrt(np.dot(gk, gk)))
                if norm > 3.0:
                    gk = gk * (3.0 / norm)
                counts[k] += 1
                ms[k] = 0.9 * ms[k] + (1.0 - 0.9) * gk
                vs[k] = 0.999 * vs[k] + (1.0 - 0.999) * (gk * gk)
                m_hat = ms[k] / (1.0 - 0.9 ** counts[k])
                v_hat = vs[k] / (1.0 - 0.999 ** counts[k])
                assert np.array_equal(xs[k], -0.1 * m_hat / (np.sqrt(v_hat) + 1e-8))
            assert not xs[np.setdiff1d(np.arange(n), rows)].any()
        assert min(counts) > 7
        assert state.step.tolist() == counts
        assert np.array_equal(state.m, ms) and np.array_equal(state.v, vs)


class TestOuterStep:
    def test_sgd_lr1_moves_to_mean(self):
        state = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=1.0), 2)
        x, _ = outer_step(state, vec(1.0, 1.0), vec(1.0, 1.0))
        assert np.array_equal(x, vec(0.0, 0.0))

    def test_nesterov_zero_momentum_equals_sgd(self):
        delta = vec(0.3, -0.7)
        xg = vec(1.0, 2.0)
        sgd_state = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=0.4), 2)
        nes_state = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.4, momentum=0.0), 2)
        a, _ = outer_step(sgd_state, xg, delta)
        b, _ = outer_step(nes_state, xg, delta)
        assert np.array_equal(a, b)

    def test_nesterov_two_step_scalar_oracle(self):
        state = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.1, momentum=0.9), 1)
        x = vec(0.0)
        x, state = outer_step(state, x, vec(1.0))
        # v1 = 1; x1 = -0.1*(1 + 0.9*1) = -0.19
        assert x[0] == pytest.approx(-0.19, abs=1e-15)
        x, state = outer_step(state, x, vec(1.0))
        # v2 = 0.9 + 1 = 1.9; x2 = x1 - 0.1*(1 + 0.9*1.9) = x1 - 0.271
        assert x[0] == pytest.approx(-0.19 - 0.271, abs=1e-15)

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
        inner_step(state, np.zeros((2, 2)), vec(1.0, 1.0)[None, :], 0.1, np.array([1]))
        assert state.step.tolist() == [0, 1] and other.step.tolist() == [0, 0]
        assert np.array_equal(state.m[0], np.zeros(2)) and np.array_equal(other.m, np.zeros((2, 2)))
