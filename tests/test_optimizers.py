import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palsgd.optimizers import (BIAS_TABLE_MIN, InnerOptConfig, InnerOptState, OuterOptConfig,
                               OuterOptState, inner_step, outer_step)
from palsgd.vecmath import DimensionMismatchError, row_norms_sq

SEEDS = st.integers(0, 2 ** 32 - 1)


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


# The clip and bias-correction lookup that inner_step replaced, kept as the
# reference: a `>` mask whose `.any()` decides, a masked np.divide into
# ones, and a table rebuilt whenever `int(steps.max())` is past its end.
def reference_corrections_at(state, steps):
    top = int(steps.max())
    if state.bias_table is None or top >= state.bias_table.shape[1]:
        size = max(BIAS_TABLE_MIN, 2 * top)
        state.bias_table = np.array([[1.0 - beta ** s for s in range(size)]
                                     for beta in (state.config.beta1, state.config.beta2)])
    return state.bias_table[:, steps]


def reference_inner_step(state, x, g, lr, mask):
    cfg = state.config
    if cfg.variant == "adamw":
        counts = state.step + 1
    state.step += mask
    if cfg.clip_norm is not None:
        norms = np.sqrt(row_norms_sq(g))
        over = norms > cfg.clip_norm
        if over.any():
            scale = np.divide(cfg.clip_norm, norms, out=np.ones_like(norms), where=over)
            g = g * scale[:, None]
    if cfg.variant == "sgd":
        return x - g * lr
    if cfg.variant == "sgd_momentum":
        m = state.m * cfg.momentum
        m += g
        np.copyto(state.m, m, where=mask[:, None])
        m *= lr
        return x - m
    m = state.m * cfg.beta1
    m += g * (1.0 - cfg.beta1)
    v = state.v * cfg.beta2
    g2 = g * g
    g2 *= 1.0 - cfg.beta2
    v += g2
    np.copyto(state.m, m, where=mask[:, None])
    np.copyto(state.v, v, where=mask[:, None])
    c1, c2 = reference_corrections_at(state, counts)
    m /= c1[:, None]
    v /= c2[:, None]
    np.sqrt(v, out=v)
    v += cfg.eps
    m *= lr
    m /= v
    out = x * (lr * cfg.weight_decay)
    np.subtract(x, out, out=out)
    out -= m
    return out


CLIPS = (0.5, 1.0, 3.0)  # exact squares, so a row (clip, 0, ...) has norm clip exactly
# a row's gradient: its norm under, at or over the bound, zero, or with an
# inf or a nan entry
ROW_KINDS = ("under", "at", "over", "zero", "inf", "nan")


def gradient_row(kind, clip, d, rng):
    if kind == "zero":
        return np.zeros(d)
    if kind == "at":
        row = np.zeros(d)
        row[rng.integers(d)] = clip * rng.choice((-1.0, 1.0))
        return row
    row = rng.normal(size=d)
    norm = clip * (rng.uniform(0.01, 0.99) if kind == "under" else rng.uniform(1.01, 1e3))
    row *= norm / np.sqrt(np.dot(row, row))
    if kind in ("inf", "nan"):
        row[rng.integers(d)] = rng.choice((np.inf, -np.inf)) if kind == "inf" else np.nan
    return row


def state_bytes(state):
    return [None if a is None else a.tobytes() for a in (state.step, state.m, state.v, state.bias_table)]


@st.composite
def step_kinds(draw):
    """1 to 4 steps of a (rows, d) gradient: each row's kind per step."""
    rows = draw(st.integers(0, 6))
    return draw(st.lists(st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows),
                         min_size=1, max_size=4))


class TestRewrittenStepIsByteEqual:
    """inner_step against the reference above: the returned rows and the
    whole state, byte for byte, step after step."""

    def run_both(self, config, kinds, d, seed, every_row, jump):
        rng = np.random.default_rng(seed)
        rows = len(kinds[0])
        state, ref = (InnerOptState.fresh(config, rows, d) for _ in range(2))
        x = rng.normal(size=(rows, d))
        for i, step in enumerate(kinds):
            g = np.array([gradient_row(kind, config.clip_norm or 1.0, d, rng) for kind in step])
            g = g.reshape(rows, d)
            mask = np.ones(rows, dtype=bool) if every_row else rng.random(rows) < 0.6
            outcomes = []
            for s, step_fn in ((state, inner_step), (ref, reference_inner_step)):
                with np.errstate(all="ignore"):
                    try:
                        outcomes.append(step_fn(s, x, g, 0.05, mask).tobytes())
                    except ValueError as err:  # adamw on zero rows: no largest count
                        outcomes.append(type(err))
            assert outcomes[0] == outcomes[1], f"step {i}"
            assert state_bytes(state) == state_bytes(ref), f"step {i}"
            if i == 0 and jump:  # counts past the first table's end
                state.step += jump
                ref.step += jump

    @given(SEEDS, st.sampled_from(("sgd", "sgd_momentum", "adamw")), st.sampled_from(CLIPS),
           step_kinds(), st.integers(1, 8), st.booleans(), st.sampled_from((0, BIAS_TABLE_MIN)),
           st.sampled_from((0.0, 0.05)))
    @settings(max_examples=300, deadline=None)
    @example(0, "adamw", 1.0, [["under", "under", "at", "zero"]] * 2, 4, True, 0, 0.0)
    @example(1, "adamw", 1.0, [["nan", "over", "under"], ["over", "nan", "inf"]], 3, False, 0, 0.05)
    @example(2, "adamw", 3.0, [["over", "under"], ["under", "over"]], 5, False, BIAS_TABLE_MIN, 0.0)
    @example(3, "sgd", 0.5, [[]], 2, True, 0, 0.0)
    def test_steps_equal_the_reference(self, seed, variant, clip, kinds, d, every_row, jump, wd):
        config = InnerOptConfig(variant=variant, clip_norm=clip,
                                weight_decay=wd if variant == "adamw" else 0.0)
        self.run_both(config, kinds, d, seed, every_row, jump)

    @pytest.mark.parametrize("variant", ["sgd", "sgd_momentum", "adamw"])
    def test_no_clip_and_zero_rows_equal_the_reference(self, variant):
        rng = np.random.default_rng(9)
        for rows in (0, 3):
            kinds = [[str(k) for k in rng.choice(ROW_KINDS, rows)] for _ in range(3)]
            self.run_both(InnerOptConfig(variant=variant), kinds, 4, 9, False, 0)
            self.run_both(InnerOptConfig(variant=variant, clip_norm=1.0), kinds, 4, 9, False, 0)

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_a_nan_row_does_not_hide_an_over_row(self, nan_first):
        # a nan norm is never over the bound, and the over row beside it is
        # still clipped: a plain max of the norms would be nan and clip neither
        g = np.array([[np.nan, 0.0], [3.0, 4.0]])
        if not nan_first:
            g = g[::-1].copy()
        state = fresh_inner("sgd", dim=2, workers=2, clip_norm=1.0)
        with np.errstate(invalid="ignore"):
            out = inner_step(state, np.zeros((2, 2)), g, 1.0, np.ones(2, dtype=bool))
        over = 1 if nan_first else 0
        assert out[over].tolist() == [-0.6000000000000001, -0.8]
        assert np.isnan(out[1 - over, 0]) and out[1 - over, 1] == 0.0
        self.run_both(InnerOptConfig(variant="adamw", clip_norm=1.0),
                      [["nan", "over"] if nan_first else ["over", "nan"]] * 2, 3, 4, True, 0)

    def test_corrections_grow_past_the_first_table(self):
        state = fresh_inner("adamw", workers=3)
        ref = fresh_inner("adamw", workers=3)
        for steps in ([1, 2, 3], [4, BIAS_TABLE_MIN - 1, 5], [BIAS_TABLE_MIN, 1, 2],
                      [3 * BIAS_TABLE_MIN, 7, 0], [6 * BIAS_TABLE_MIN - 1, 1, 1]):
            steps = np.array(steps)
            assert state.corrections_at(steps).tobytes() == reference_corrections_at(ref, steps).tobytes()
            assert state.bias_table.tobytes() == ref.bias_table.tobytes()
        assert state.bias_table.shape[1] == 6 * BIAS_TABLE_MIN
