import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palsgd import algorithms, workloads
from palsgd.algorithms import (VARIANTS, AlgoVariant, Schedule, Workers,
                               _WeightedAverage, consensus_probe, ddp_step,
                               make_variant, palsgd_local_step, run_training,
                               sync_round, theory_schedule)
from palsgd.cluster import AllReduceModel, ClusterSpec, SimClock, allreduce_time
from palsgd.config import parse_config
from palsgd.fields import ConfigError
from palsgd.optimizers import InnerOptConfig, OuterOptConfig, OuterOptState
from palsgd.vecmath import (PURPOSE_BERNOULLI, PURPOSE_DATA, PURPOSE_INIT, PURPOSE_JITTER,
                            RngStream, StreamChunks, mean_of, row_norms_sq)
from palsgd.workloads import (LogisticWorkload, MlpWorkload, QuadraticWorkload,
                              generate_synthetic_classification)
from record_columns import assert_columns_equal, reference_metrics_text, replica_columns


def quadratic(diag=(1.0, 2.0), sigma=1.0, offset=1.0):
    diag = np.asarray(diag, dtype=np.float64)
    x_star = np.zeros(len(diag))
    return QuadraticWorkload(diag, x_star, sigma, x0=x_star + offset)


def small_cluster(workers, **kw):
    kw.setdefault("allreduce", AllReduceModel(latency_s=1e-3, bandwidth_bytes_per_s=1e9))
    return ClusterSpec(workers=workers, **kw)


def chunk_draws(stream_draw, workers, width, steps):
    """The first `steps` per-step (workers, width) draws of one purpose by the
    chunk definition: chunk c is draw c of the purpose's stream, laid out
    (workers, C, width) with C = max(1, 1024 // width), and step i reads slot
    i % C of chunk i // C. `stream_draw(n)` makes the stream's next n-value draw."""
    c = max(1, 1024 // width)
    chunks = [stream_draw(workers * c * width).reshape(workers, c, width)
              for _ in range(-(-steps // c))]
    return [chunks[i // c][:, i % c] for i in range(steps)]


def make_workers(*xs, workload=None, inner_cfg=None, seed=0, p=0.0, anchor=None):
    """One replica of stacked workers, row k at xs[k], with fresh sgd state,
    the chunks of `workload`'s draws (a noiseless quadratic by default) and
    Bernoulli(p) coins. Every worker's anchor row is `anchor`, the last
    all-reduce's model, or its own row when none is given."""
    d = len(xs[0])
    ws = Workers.start(np.zeros((1, d)), inner_cfg or InnerOptConfig(variant="sgd"),
                       workload or quadratic(diag=(1.0,) * d, sigma=0.0), len(xs), [seed], p)
    ws.x = np.array(xs, dtype=float)
    ws.anchor = ws.x if anchor is None else np.tile(np.asarray(anchor, dtype=float), (len(xs), 1))
    return ws


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(alpha=0.0)
        with pytest.raises(ValueError):
            Schedule(alpha=0.1, p=1.0)
        with pytest.raises(ValueError):
            Schedule(alpha=0.1, sync_interval=0)

    def test_warmup_rounds_up_to_sync_boundary(self):
        s = Schedule(alpha=0.1, sync_interval=8, warmup_steps=5, total_steps=100)
        assert s.effective_warmup == 8
        s = Schedule(alpha=0.1, sync_interval=8, warmup_steps=16, total_steps=100)
        assert s.effective_warmup == 16
        s = Schedule(alpha=0.1, sync_interval=8, warmup_steps=0, total_steps=100)
        assert s.effective_warmup == 0
        # a warmup longer than the run is the whole run, even off a sync boundary
        s = Schedule(alpha=0.1, sync_interval=4, warmup_steps=50, total_steps=31)
        assert s.effective_warmup == 31

    def test_warmup_cosine_profile(self):
        s = Schedule(alpha=0.4, sync_interval=1, total_steps=100,
                     lr_schedule="warmup_cosine", lr_warmup_steps=10)
        assert s.alpha_at(0) == pytest.approx(0.04)
        assert s.alpha_at(9) == pytest.approx(0.4)
        assert s.alpha_at(10) == pytest.approx(0.4)
        assert s.alpha_at(99) < s.alpha_at(50) < s.alpha_at(10)

    def test_mix_coefficient_uses_exact_product_when_pinned(self):
        s = Schedule(alpha=1e-3, eta=12.0, p=0.25, sync_interval=4,
                     total_steps=10, alpha_eta=0.25 / 8)
        assert s.mix_coefficient(0) == (0.25 / 8) / 0.25

    def test_mix_coefficient_requires_positive_p(self):
        s = Schedule(alpha=0.1, eta=1.0, p=0.0, total_steps=10)
        with pytest.raises(ValueError):
            s.mix_coefficient(0)


class TestTheorySchedule:
    def test_alpha_cap_formula(self):
        s = theory_schedule(mu=1.0, smoothness=1.0, p=0.5, sync_interval=8,
                            total_steps=1000, workers=1, sigma=1.0, d0=1.0)
        assert s.alpha == 0.5 / 384
        assert s.eta == (0.5 / 16) / s.alpha
        assert s.alpha_eta == 0.5 / 16

    def test_product_invariant_exact_for_random_tuples(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            mu = float(rng.uniform(0.1, 2.0))
            big_l = mu * float(rng.uniform(1.0, 10.0))
            p = float(rng.uniform(0.01, 0.5))
            h = int(rng.integers(1, 64))
            t = int(rng.integers(10, 100_000))
            k = int(rng.integers(1, 16))
            sigma = float(rng.uniform(0.0, 3.0))
            d0 = float(rng.uniform(1e-4, 100.0))
            s = theory_schedule(mu, big_l, p, h, t, k, sigma, d0)
            assert s.alpha_eta == p / (2.0 * h)
            assert s.alpha <= p / (48.0 * big_l * h)
            assert abs(s.alpha * s.eta - s.alpha_eta) <= 4 * np.finfo(float).eps * s.alpha_eta

    def test_log_branch_can_bind(self):
        # enormous T makes the log term the minimum
        s = theory_schedule(mu=1.0, smoothness=1.0, p=0.5, sync_interval=1,
                            total_steps=10_000_000, workers=1, sigma=1.0, d0=1.0)
        t = 10_000_000
        expected = math.log(1.0 * t * t * 1 / 1.0) / t
        assert s.alpha == expected
        assert s.alpha < 0.5 / 48

    def test_sigma_zero_falls_back_to_cap(self):
        s = theory_schedule(mu=1.0, smoothness=2.0, p=0.25, sync_interval=4,
                            total_steps=100, workers=2, sigma=0.0, d0=1.0)
        assert s.alpha == 0.25 / (48 * 2.0 * 4)

    def test_p_bound(self):
        with pytest.raises(ValueError, match="0.5"):
            theory_schedule(1.0, 1.0, 0.6, 4, 100, 1, 1.0, 1.0)

    def test_weights_are_normalized_geometric(self):
        # the online average of S replicas' models against the normalized
        # geometric weights w_t = growth^t, written out here
        mu, alpha, total = 1.0, 1e-3, 50
        growth = 1.0 / (1.0 - mu * alpha)
        xs = np.random.default_rng(3).normal(size=(total, 3, 2))
        averager = _WeightedAverage((3, 2), growth)
        alone = [_WeightedAverage(2, growth) for _ in range(3)]
        for x in xs:
            averager.add(x)
            for r, one in enumerate(alone):
                one.add(x[r].copy())
        w = growth ** np.arange(total)
        w /= w.sum()
        assert np.allclose(averager.value, np.einsum("t,tij->ij", w, xs), rtol=1e-12, atol=0)
        for r, one in enumerate(alone):
            assert averager.value[r].tolist() == one.value.tolist()


class TestVariants:
    def test_theory_variant_pins_optimizers(self):
        v = make_variant("palsgd_theory")
        assert v.inner.variant == "sgd" and v.outer.is_plain_averaging
        with pytest.raises(ValueError):
            AlgoVariant("palsgd_theory", InnerOptConfig(variant="adamw"),
                        OuterOptConfig(variant="sgd", lr=1.0))

    def test_local_sgd_requires_plain_averaging(self):
        with pytest.raises(ValueError):
            AlgoVariant("local_sgd", InnerOptConfig(), OuterOptConfig(variant="nesterov", lr=0.5))

    @pytest.mark.parametrize("tag, section", [("ddp", "outer"), ("local_sgd", "outer"),
                                              ("palsgd_theory", "inner"),
                                              ("palsgd_theory", "outer")])
    def test_pinned_section_is_rejected(self, tag, section):
        # the API and the parser agree: a section the variant pins is an error
        given = {"inner": InnerOptConfig(variant="adamw"),
                 "outer": OuterOptConfig(variant="sgd", lr=0.5)}[section]
        with pytest.raises(ConfigError) as exc:
            make_variant(tag, **{section: given})
        assert exc.value.field == section
        preset = VARIANTS[tag]
        with pytest.raises(ConfigError) as exc:
            AlgoVariant(tag, **{"inner": preset.inner, "outer": preset.outer, section: given})
        assert exc.value.field == section
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"algo": {"variant": tag, section: {"variant": given.variant}},
                                     "schedule": {"p": 0.25}}))
        assert exc.value.field == f"algo.{section}"

    def test_unknown_tag_is_rejected(self):
        for tag in ("sgd", None, ["ddp"]):
            with pytest.raises(ConfigError) as exc:
                make_variant(tag)
            assert exc.value.field == "tag"

    def test_diloco_defaults_are_decoupled(self):
        v = make_variant("diloco")
        assert v.inner.variant == "adamw" and v.outer.variant == "nesterov"


class TestPalsgdLocalStep:
    def test_p_zero_always_gradient_branch(self):
        workload = quadratic(sigma=0.0)
        sched = Schedule(alpha=0.1, p=0.0, total_steps=10)
        clock = SimClock(small_cluster(1))
        ws = make_workers([1.0, 1.0], workload=workload)
        mixed = palsgd_local_step(ws, sched, 0, workload, clock)
        assert not mixed.any()
        # sgd step on grad = diag*(x - 0) = [1, 2]
        assert np.allclose(ws.x[0], [1.0 - 0.1, 1.0 - 0.2], rtol=1e-15)

    def test_mixing_fixed_point_is_anchor(self):
        workload = quadratic(sigma=0.0)
        sched = Schedule(alpha=0.1, eta=0.5, p=0.9999, total_steps=10)
        clock = SimClock(small_cluster(1))
        # find a seed whose first Bernoulli draw lands in the mixing branch
        seed = next(s for s in range(100)
                    if RngStream(s, 0, PURPOSE_BERNOULLI).uniform() <= 0.9999)
        ws = make_workers([3.0, -1.0], workload=workload, seed=seed, p=sched.p,
                          anchor=[3.0, -1.0])
        mixed = palsgd_local_step(ws, sched, 0, workload, clock)
        assert mixed.all()
        assert np.array_equal(ws.x[0], np.array([3.0, -1.0]))

    def test_unit_coefficient_mixes_onto_anchor(self):
        workload = quadratic(diag=(1.0,), sigma=0.0)
        sched = Schedule(alpha=0.1, eta=0.5, p=0.05, total_steps=10)
        assert sched.mix_coefficient(0) == pytest.approx(1.0, rel=1e-15)
        seed = next(s for s in range(1000)
                    if RngStream(s, 0, PURPOSE_BERNOULLI).uniform() <= 0.05)
        clock = SimClock(small_cluster(1))
        ws = make_workers([2.0], workload=workload, seed=seed, p=sched.p, anchor=[0.0])
        assert palsgd_local_step(ws, sched, 0, workload, clock).all()
        assert abs(ws.x[0, 0]) <= 1e-15

    def test_contraction_factor(self):
        workload = quadratic(diag=(1.0, 1.0), sigma=0.0)
        sched = Schedule(alpha=0.02, eta=4.0, p=0.5, total_steps=10)
        coeff = sched.mix_coefficient(0)
        seed = next(s for s in range(100)
                    if RngStream(s, 0, PURPOSE_BERNOULLI).uniform() <= 0.5)
        clock = SimClock(small_cluster(1))
        anchor = np.array([1.0, -2.0])
        ws = make_workers([4.0, 4.0], workload=workload, seed=seed, p=sched.p, anchor=anchor)
        before = float(np.linalg.norm(ws.x[0] - anchor))
        assert palsgd_local_step(ws, sched, 0, workload, clock).all()
        after = float(np.linalg.norm(ws.x[0] - anchor))
        assert after == pytest.approx(abs(1.0 - coeff) * before, rel=1e-12)

    def test_mixing_leaves_inner_state_and_data_stream_untouched(self):
        workload = quadratic(sigma=1.0)
        sched = Schedule(alpha=0.1, eta=0.5, p=0.9999, total_steps=10)
        seed = next(s for s in range(100)
                    if RngStream(s, 0, PURPOSE_BERNOULLI).uniform() <= 0.9999)
        clock = SimClock(small_cluster(1))
        ws = make_workers([1.0, 1.0], workload=workload, inner_cfg=InnerOptConfig(variant="adamw"),
                          seed=seed, p=sched.p, anchor=[0.0, 0.0])
        assert palsgd_local_step(ws, sched, 0, workload, clock).all()
        assert ws.inner.step[0] == 0
        # the data chunks serve one draw per step whether rows mix or not; a
        # mixing row's part of it is discarded, and the first draw fills chunk 0
        assert ws.sampler.drawn == 1 and ws.sampler.streams[0].counter == 1

    def test_mixing_step_is_cheap_on_the_clock(self):
        workload = quadratic(sigma=0.0)
        sched = Schedule(alpha=0.1, eta=0.5, p=0.9999, total_steps=10)
        seed = next(s for s in range(100)
                    if RngStream(s, 0, PURPOSE_BERNOULLI).uniform() <= 0.9999)
        clock = SimClock(ClusterSpec(workers=1, compute_time_per_step=1.0,
                                     mixing_cost_fraction=0.25))
        ws = make_workers([1.0, 1.0], workload=workload, seed=seed, p=sched.p, anchor=[0.0, 0.0])
        palsgd_local_step(ws, sched, 0, workload, clock)
        assert clock.times[0, 0] == 0.25

    def test_masked_rows_step_alone(self):
        # rows that mix keep their optimizer state and take the mix in place
        # of their step; the others step; the whole step reads one draw of
        # the data chunks
        workload = quadratic(diag=(1.0, 2.0), sigma=1.0)
        sched = Schedule(alpha=0.1, eta=0.5, p=0.5, total_steps=10)
        ws = make_workers(*np.arange(16.0).reshape(8, 2), workload=workload,
                          inner_cfg=InnerOptConfig(variant="adamw"), seed=4, p=sched.p,
                          anchor=[0.0, 0.0])
        before = ws.x.copy()
        mixed = palsgd_local_step(ws, sched, 0, workload, SimClock(small_cluster(8)))
        assert 0 < mixed.sum() < 8
        assert ws.inner.step.tolist() == (~mixed).astype(int).tolist()
        assert ws.sampler.drawn == 1 and ws.sampler.streams[0].counter == 1
        coeff = sched.mix_coefficient(0)
        assert np.array_equal(ws.x[mixed], before[mixed] - coeff * before[mixed])


def reference_inner_step(state, x, g, lr, rows):
    """The index-set inner step that the masked full-width one replaced: the
    rows `rows` of x and of the state advance in place, g holding their rows."""
    cfg = state.config
    state.step[rows] += 1
    if cfg.clip_norm is not None:
        norms = np.sqrt(row_norms_sq(g))
        over = norms > cfg.clip_norm
        if over.any():
            scale = np.divide(cfg.clip_norm, norms, out=np.ones_like(norms), where=over)
            g = g * scale[:, None]
    if cfg.variant == "sgd":
        x[rows] -= g * lr
        return
    if cfg.variant == "sgd_momentum":
        m = state.m[rows] * cfg.momentum
        m += g
        state.m[rows] = m
        m *= lr
        x[rows] -= m
        return
    m = state.m[rows] * cfg.beta1
    m += g * (1.0 - cfg.beta1)
    v = state.v[rows] * cfg.beta2
    g2 = g * g
    g2 *= 1.0 - cfg.beta2
    v += g2
    state.m[rows] = m
    state.v[rows] = v
    c1, c2 = state.corrections_at(state.step[rows])
    m /= c1[:, None]
    v /= c2[:, None]
    np.sqrt(v, out=v)
    v += cfg.eps
    m *= lr
    m /= v
    xr = x[rows]
    out = xr * (lr * cfg.weight_decay)
    np.subtract(xr, out, out=out)
    out -= m
    x[rows] = out


def reference_draw(sampler, rows):
    """The samples of the workers in `rows` only, as the index-set draw gave them."""
    if isinstance(sampler, StreamChunks):
        return sampler.next()[rows]
    if sampler.draw_policy == "with_replacement":
        return sampler.flat[sampler.positions.next()[rows]]
    out = np.empty((len(rows), sampler.batch_size), dtype=np.int64)
    for row, k in zip(out, rows):
        lo, n = sampler.starts[k], sampler.sizes[k]
        epoch = sampler.order[lo:lo + n]
        filled = 0
        while filled < sampler.batch_size:
            if sampler.cursor[k] == n:
                epoch[:] = sampler.flat[lo:lo + n][sampler.streams[k].permutation(n)]
                sampler.cursor[k] = 0
            at = sampler.cursor[k]
            take = min(sampler.batch_size - filled, n - at)
            row[filled:filled + take] = epoch[at:at + take]
            sampler.cursor[k] += take
            filled += take
    return out


def reference_local_step(workers, coins, global_x, schedule, t, workload, clock):
    """The index-set local step that the full-width one replaced: the mixing
    rows mix in place toward their replica's row of the (S, d) global models,
    then only the stepping rows draw and step. The coins are a step's draw of
    `coins`, the reference's own `StreamChunks` of the Bernoulli streams,
    compared with p."""
    x = workers.x
    k = x.shape[0] // len(global_x)
    p = schedule.p
    if p > 0.0:
        mixing = coins.next()[:, 0] <= p
    else:
        mixing = np.zeros(x.shape[0], dtype=bool)
    mixed = mixing.nonzero()[0]
    if mixed.size:
        coeff = schedule.mix_coefficient(t)
        anchor = global_x.take(mixed // k, 0)
        rows = x[mixed]
        x[mixed] = rows - coeff * (rows - anchor)
    stepping = ~mixing
    stepped = stepping.nonzero()[0]
    samples = reference_draw(workers.sampler, stepped)
    if stepped.size:
        g = workload.stochastic_gradient(x[stepped], samples)
        reference_inner_step(workers.inner, x, g, schedule.alpha_at(t) / (1.0 - p), stepped)
    clock.advance_step(stepping)
    return mixing


class TestFullWidthStep:
    """The full-width local step against the index-set step it replaced, bit for bit."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("inner", [
        InnerOptConfig(variant="sgd"),
        InnerOptConfig(variant="sgd_momentum", momentum=0.8, clip_norm=2.0),
        InnerOptConfig(variant="adamw", clip_norm=1.0, weight_decay=0.01)],
        ids=["sgd", "sgd_momentum", "adamw"])
    @pytest.mark.parametrize("kind", ["quadratic", "mlp", "logistic"])
    def test_matches_the_index_set_reference(self, kind, inner, p):
        # quadratic noise chunks, with_replacement MLP shards and
        # epoch_shuffle logistic shards, S = 2 replicas of K = 3 workers
        train, _ = classification(2 if kind == "logistic" else 3, 4, 12)
        workload = {
            "quadratic": lambda: quadratic(diag=(1.0, 2.0, 4.0)),
            "mlp": lambda: MlpWorkload([4, 5, 3], "tanh", train, batch_size=3),
            "logistic": lambda: LogisticWorkload(train, l2_reg=0.01, batch_size=5,
                                                 draw_policy="epoch_shuffle"),
        }[kind]()
        seeds, workers, h, total = [3, 8], 3, 8, 200
        sched = Schedule(alpha=0.05, eta=0.5, p=p, sync_interval=h, total_steps=total)
        outer = OuterOptConfig(variant="nesterov", lr=0.7, momentum=0.9)

        def start():
            x0 = np.stack([workload.init_params(RngStream(s, 0, PURPOSE_INIT)) for s in seeds])
            return (Workers.start(x0, inner, workload, workers, seeds, p),
                    SimClock(small_cluster(workers, jitter=0.2), seeds), x0.copy(),
                    OuterOptState.fresh(outer, x0.shape))

        ws, clock, global_x, outer_state = start()
        ref, ref_clock, ref_global, ref_outer = start()
        ref_coins = StreamChunks(seeds, PURPOSE_BERNOULLI, workers, 1)
        mixed = 0
        for t in range(total):
            mask = palsgd_local_step(ws, sched, t, workload, clock)
            ref_mask = reference_local_step(ref, ref_coins, ref_global, sched, t, workload,
                                            ref_clock)
            assert np.array_equal(mask, ref_mask), t
            assert ws.x.tobytes() == ref.x.tobytes(), t
            assert ws.inner.step.tolist() == ref.inner.step.tolist(), t
            for buf, ref_buf in ((ws.inner.m, ref.inner.m), (ws.inner.v, ref.inner.v)):
                assert buf is None if ref_buf is None else buf.tobytes() == ref_buf.tobytes(), t
            assert clock.times.tobytes() == ref_clock.times.tobytes(), t
            mixed += int(mask.sum())
            if (t + 1) % h == 0:
                global_x, _ = sync_round(ws, global_x, outer_state, clock, t)
                ref_global, _ = sync_round(ref, ref_global, ref_outer, ref_clock, t)
                assert global_x.tobytes() == ref_global.tobytes(), t
        assert np.isfinite(ws.x).all()
        assert (mixed == 0) if p == 0.0 else (0 < mixed < total * len(seeds) * workers)


class TestSyncRound:
    def test_plain_averaging_yields_exact_mean(self):
        clock = SimClock(small_cluster(2))
        ws = make_workers([1.0], [3.0])
        outer = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=1.0), 1)
        new_global, _ = sync_round(ws, np.array([[0.0]]), outer, clock, t=0)
        assert np.array_equal(new_global, np.array([[2.0]]))
        assert clock.events[0][-1].participants == 2

    def test_mean_conserved_under_plain_averaging(self):
        rng = np.random.default_rng(8)
        ws = make_workers(*rng.normal(size=(4, 5)))
        mean_before = mean_of(ws.x)
        outer = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=1.0), (1, 5))
        clock = SimClock(small_cluster(4))
        new_global, _ = sync_round(ws, rng.normal(size=(1, 5)), outer, clock, t=0)
        assert np.array_equal(new_global[0], mean_before)

    def test_post_sync_all_workers_exactly_on_global(self):
        # power-of-two worker counts keep the identical-vector mean bit-exact
        rng = np.random.default_rng(9)
        ws = make_workers(*rng.normal(size=(4, 3)))
        outer = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.5, momentum=0.9),
                                    (1, 3))
        clock = SimClock(small_cluster(4))
        old_global = rng.normal(size=(1, 3))
        before = ws.stacked.copy()
        new_global, inputs = sync_round(ws, old_global, outer, clock, t=0)
        for row in ws.x:
            assert np.array_equal(row, new_global[0])
        xi, spread = consensus_probe(ws.stacked, new_global, mean_of(ws.stacked))
        assert xi.tobytes() == spread.tobytes() == np.zeros(1).tobytes()
        # the returned inputs probe as the rows before the reset, which the
        # reset left as they were
        drift = consensus_probe(*inputs)
        want = consensus_probe(before, old_global, mean_of(before))
        assert inputs[0].tobytes() == before.tobytes()
        assert np.array(drift).tobytes() == np.array(want).tobytes()
        assert drift[0][0] > 0.0 and drift[1][0] > 0.0

    def test_no_drift_leaves_global_fixed(self):
        g = np.array([0.5, -1.5])
        ws = make_workers(*[g] * 4)
        outer = OuterOptState.fresh(OuterOptConfig(variant="nesterov", lr=0.3, momentum=0.9),
                                    (1, 2))
        clock = SimClock(small_cluster(4))
        new_global, _ = sync_round(ws, g[None].copy(), outer, clock, t=0)
        assert np.array_equal(new_global[0], g)
        assert np.array_equal(outer.buf, np.zeros((1, 2)))

    def test_empty_worker_list_rejected(self):
        outer = OuterOptState.fresh(OuterOptConfig(variant="sgd", lr=1.0), (1, 1))
        ws = Workers.start(np.zeros((1, 1)), InnerOptConfig(), quadratic(diag=(1.0,)), 0, [0], 0.0)
        with pytest.raises(ValueError):
            sync_round(ws, np.array([[0.0]]), outer, SimClock(small_cluster(1)), t=0)


class TestDdpStep:
    def test_two_workers_mean_gradient(self):
        # deterministic gradients: sigma=0 quadratic, distinct worker params
        workload = quadratic(diag=(1.0,), sigma=0.0)
        sched = Schedule(alpha=0.1, total_steps=10)
        clock = SimClock(small_cluster(2))
        ws = make_workers([1.0], [3.0], workload=workload)
        ddp_step(ws, sched, 0, workload, clock)
        # grads 1 and 3, mean 2; both workers step from their own params
        assert np.allclose(ws.x[0], [0.8], rtol=1e-15)
        assert np.allclose(ws.x[1], [2.8], rtol=1e-15)
        assert len(clock.events[0]) == 1

    def test_single_worker_is_plain_sgd(self):
        workload = quadratic(diag=(2.0,), sigma=0.0)
        sched = Schedule(alpha=0.25, total_steps=10)
        clock = SimClock(small_cluster(1))
        ws = make_workers([1.0], workload=workload)
        ddp_step(ws, sched, 0, workload, clock)
        assert np.allclose(ws.x[0], [0.5], rtol=1e-15)
        assert clock.events[0][0].duration_s == 0.0


def ordered_sum(values) -> float:
    """The float sum of `values`, added left to right by a loop: the same on
    every Python, while the builtin `sum` is compensated from CPython 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values, start=0.0) -> float:
    """A compensated (Neumaier) float sum, as CPython 3.12's builtin `sum`."""
    total, compensation = start, 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def probe_reference(x, global_x, xbar):
    """Per replica, the rows' squared norms against each reference, summed in
    worker order by `ordered_sum`, over K."""
    k = x.shape[1]
    return tuple([ordered_sum(float(np.dot(row - r, row - r)) for row in rows) / k
                  for rows, r in zip(x, ref)] for ref in (global_x, xbar))


class TestConsensusProbe:
    @pytest.mark.parametrize("s,k,d", [(1, 1, 3), (3, 1, 5), (2, 4, 7), (3, 5, 64), (2, 32, 4)])
    def test_equals_the_per_replica_sum(self, s, k, d):
        rng = np.random.default_rng(s * 100 + k * 10 + d)
        x = rng.normal(size=(s, k, d))
        global_x = rng.normal(size=(s, d))
        got = consensus_probe(x, global_x, mean_of(x))
        want = probe_reference(x, global_x, mean_of(x))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_non_finite_rows(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 4, 6))
        x[1, 2, 0] = np.inf
        x[2, 0, 3] = np.nan
        global_x = rng.normal(size=(3, 6))
        with np.errstate(invalid="ignore"):
            got = consensus_probe(x, global_x, mean_of(x))
            want = probe_reference(x, global_x, mean_of(x))
        assert np.isfinite(got[0][0]) and not np.isfinite(got[0][1:]).any()
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_examples(self):
        xi, spread = consensus_probe(np.array([[[1.0], [-1.0]]]), np.array([[0.0]]),
                                     np.array([[0.0]]))
        assert xi.tobytes() == np.array([1.0]).tobytes()
        assert spread.tobytes() == np.array([1.0]).tobytes()

    def test_single_worker(self):
        xi, spread = consensus_probe(np.array([[[2.0, 0.0]]]), np.array([[0.0, 0.0]]),
                                     np.array([[2.0, 0.0]]))
        assert xi.tobytes() == np.array([4.0]).tobytes()
        assert spread.tobytes() == np.array([0.0]).tobytes()

    def test_a_compensated_builtin_sum_does_not_move_the_drift(self, monkeypatch):
        # CPython 3.12's compensated sum rounds 9 of these 16 rows' sums
        # otherwise than the left-to-right one
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 32, 4))
        global_x = rng.normal(size=(8, 4))
        xbar = mean_of(x)
        norms = [[float(np.dot(row - ref, row - ref)) for row in rows]
                 for refs in (global_x, xbar) for rows, ref in zip(x, refs)]
        assert sum(neumaier_sum(n) != ordered_sum(n) for n in norms) >= 4
        before = consensus_probe(x, global_x, xbar)
        monkeypatch.setattr(algorithms, "sum", neumaier_sum, raising=False)
        after = consensus_probe(x, global_x, xbar)
        assert np.array(after).tobytes() == np.array(before).tobytes()
        assert np.array(after).tobytes() == np.array(probe_reference(x, global_x, xbar)).tobytes()


def run(variant, schedule, workload=None, workers=2, seed=123, sigma=1.0, **cluster_kw):
    workload = workload or quadratic(diag=(1.0, 2.0, 4.0), sigma=sigma, offset=1.0)
    cluster = small_cluster(workers, **cluster_kw)
    return run_training(workload, variant, schedule, cluster, seed, record_every=1)


class TestReductionIdentities:
    def test_palsgd_p0_plain_sgd_equals_local_sgd_bitwise(self):
        sched = Schedule(alpha=0.05, p=0.0, sync_interval=4, total_steps=120)
        sgd = InnerOptConfig(variant="sgd")
        plain = OuterOptConfig(variant="sgd", lr=1.0)
        a = run(make_variant("palsgd", inner=sgd, outer=plain), sched)
        b = run(make_variant("local_sgd", inner=sgd), sched)
        assert np.array_equal(a.global_model, b.global_model)
        assert_columns_equal(a.diagnostics.columns, b.diagnostics.columns)

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_palsgd_local_sgd_identity_randomized(self, workers, h, total, seed):
        sched = Schedule(alpha=0.03, p=0.0, sync_interval=h, total_steps=total)
        workload = quadratic(diag=(1.0, 3.0), sigma=1.0)
        sgd = InnerOptConfig(variant="sgd")
        plain = OuterOptConfig(variant="sgd", lr=1.0)
        cluster = small_cluster(workers)
        a = run_training(workload, make_variant("palsgd", inner=sgd, outer=plain),
                         sched, cluster, seed)
        b = run_training(workload, make_variant("local_sgd", inner=sgd),
                         sched, cluster, seed)
        assert np.array_equal(a.global_model, b.global_model)

    def test_diloco_equals_palsgd_p0_bitwise(self):
        sched = Schedule(alpha=1e-3, p=0.0, sync_interval=8, total_steps=160)
        a = run(make_variant("diloco"), sched, workers=3)
        b = run(make_variant("palsgd"), sched, workers=3)
        assert np.array_equal(a.global_model, b.global_model)
        assert max(a.worker_time) == max(b.worker_time)

    def test_diloco_with_plain_outer_equals_local_sgd_with_adamw(self):
        sched = Schedule(alpha=1e-3, p=0.0, sync_interval=4, total_steps=60)
        adamw = InnerOptConfig(variant="adamw", clip_norm=1.0)
        plain = OuterOptConfig(variant="sgd", lr=1.0)
        a = run(make_variant("diloco", inner=adamw, outer=plain), sched)
        b = run(make_variant("local_sgd", inner=adamw), sched)
        assert np.array_equal(a.global_model, b.global_model)

    def test_local_sgd_h1_matches_ddp_per_coordinate(self):
        sched = Schedule(alpha=0.02, p=0.0, sync_interval=1, total_steps=500)
        a = run(make_variant("local_sgd"), sched, workers=4)
        b = run(make_variant("ddp"), sched, workers=4)
        assert np.max(np.abs(a.global_model - b.global_model)) < 1e-12
        metric_a, metric_b = (r.diagnostics.columns["train_metric"] for r in (a, b))
        assert (np.abs(metric_a - metric_b) <= 1e-12 * np.maximum(1.0, metric_a)).all()

    def test_mixing_variant_guard(self):
        sched = Schedule(alpha=0.05, p=0.1, eta=0.5, sync_interval=4, total_steps=20)
        with pytest.raises(ValueError, match="mixing"):
            run(make_variant("local_sgd"), sched)


class TestRunTraining:
    def test_warmup_equal_to_total_reduces_to_ddp(self):
        adamw = InnerOptConfig(variant="adamw")
        sched_w = Schedule(alpha=1e-2, p=0.0, sync_interval=4, total_steps=40, warmup_steps=40)
        sched_d = Schedule(alpha=1e-2, p=0.0, sync_interval=4, total_steps=40)
        a = run(make_variant("palsgd", inner=adamw,
                             outer=OuterOptConfig(variant="nesterov")), sched_w)
        b = run(make_variant("ddp", inner=adamw), sched_d)
        assert np.array_equal(a.global_model, b.global_model)
        assert len(a.events) == len(b.events) == 40

    def test_comm_event_counts(self):
        for total, h, warmup in [(64, 8, 0), (64, 8, 16), (60, 8, 0), (100, 16, 10)]:
            sched = Schedule(alpha=1e-3, p=0.0, sync_interval=h,
                             total_steps=total, warmup_steps=warmup)
            result = run(make_variant("local_sgd"), sched, workers=2)
            w = sched.effective_warmup
            expected = w + math.ceil((total - w) / h)
            assert len(result.events) == expected, (total, h, warmup)
        sched = Schedule(alpha=1e-3, p=0.0, total_steps=64)
        result = run(make_variant("ddp"), sched, workers=2)
        assert len(result.events) == 64

    def test_post_sync_consensus_zero_along_run(self, monkeypatch):
        # after every sync round each worker row is its replica's new global model
        synced = []

        def checked_sync_round(workers, global_x, outer_state, clock, t):
            new_global, drift = sync_round(workers, global_x, outer_state, clock, t)
            for rows, model in zip(workers.stacked, new_global):
                assert all(np.array_equal(row, model) for row in rows)
            synced.append(t)
            return new_global, drift

        monkeypatch.setattr(algorithms, "sync_round", checked_sync_round)
        sched = Schedule(alpha=0.02, eta=0.5, p=0.2, sync_interval=8, total_steps=92)
        result = run(make_variant("palsgd",
                                  inner=InnerOptConfig(variant="sgd"),
                                  outer=OuterOptConfig(variant="nesterov", lr=0.7)), sched,
                     workers=4, seed=[123, 4])
        assert synced == [*range(7, 92, 8), 91]
        assert all([e.step for e in events] == synced for events in result.events)

    def test_determinism_bit_identical(self):
        sched = Schedule(alpha=0.02, eta=0.5, p=0.2, sync_interval=8, total_steps=80)
        v = make_variant("palsgd")
        a = run(v, sched, workers=3, seed=7)
        b = run(v, sched, workers=3, seed=7)
        assert np.array_equal(a.global_model, b.global_model)
        assert_columns_equal(a.diagnostics.columns, b.diagnostics.columns)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_produces_structured_report(self):
        sched = Schedule(alpha=1e6, p=0.0, sync_interval=4, total_steps=400)
        result = run(make_variant("local_sgd"), sched, workers=2)
        assert result.diverged
        assert result.divergence is not None
        assert 0 <= result.divergence.step < 400
        # the records run up to the blow-up; the report indexes the last finite one
        columns, last = result.diagnostics.columns, result.divergence.last_record
        assert columns["step"].size and columns["step"][-1] < result.divergence.step
        assert np.isfinite(columns["train_metric"][last])
        assert not np.isfinite(columns["train_metric"][last + 1:]).any()

    def test_weighted_average_tracked_in_theory_mode(self):
        workload = quadratic(diag=(1.0, 2.0), sigma=0.5, offset=1.0)
        sched = theory_schedule(mu=workload.mu, smoothness=workload.smoothness,
                                p=0.5, sync_interval=4, total_steps=200, workers=2,
                                sigma=0.5, d0=2.0)
        result = run_training(workload, make_variant("palsgd_theory"), sched,
                              small_cluster(2), seed=5)
        assert result.weighted_average is not None
        assert result.weighted_average.shape == (2,)

    def test_window_mixing_counts_partition_steps(self):
        sched = Schedule(alpha=0.02, eta=0.5, p=0.3, sync_interval=8, total_steps=64)
        result = run(make_variant("palsgd", inner=InnerOptConfig(variant="sgd"),
                                  outer=OuterOptConfig(variant="nesterov", lr=0.7)),
                     sched, workers=2)
        diag = result.diagnostics
        assert len(diag.window_mixing_counts) == 8
        total_mix = [sum(w[k] for w in diag.window_mixing_counts) for k in range(2)]
        assert total_mix == diag.mixing_steps_per_worker
        for k in range(2):
            assert diag.mixing_steps_per_worker[k] + diag.gradient_steps_per_worker[k] == 64


class TestNoiselessRecursionOracle:
    def test_single_worker_trajectory_matches_scalar_recursion(self):
        diag = np.array([1.0, 2.0, 4.0])
        workload = QuadraticWorkload(diag, np.zeros(3), 0.0, x0=np.ones(3))
        total, h, p = 240, 8, 0.5
        sched = theory_schedule(mu=1.0, smoothness=4.0, p=p, sync_interval=h,
                                total_steps=total, workers=1, sigma=0.0, d0=3.0)
        seed = 11
        result = run_training(workload, make_variant("palsgd_theory"), sched,
                              small_cluster(1), seed, record_every=1)

        # independent recursion: replay the Bernoulli flags, scalar math only
        coins = chunk_draws(RngStream(seed, 0, PURPOSE_BERNOULLI).uniform_vector, 1, 1, total)
        flags = [coin[0, 0] <= p for coin in coins]
        beta = sched.alpha_eta / p
        lr = sched.alpha / (1.0 - p)
        z = np.ones(3)
        anchor = z.copy()
        global_z = z.copy()
        xhat = np.zeros(3)
        w_t, w_total = 1.0, 0.0
        growth = sched.iterate_weight_growth
        subopts = []
        for t in range(total):
            w_total += w_t
            xhat += (w_t / w_total) * (global_z - xhat)
            w_t *= growth
            if flags[t]:
                z = z - beta * (z - anchor)
            else:
                z = z - lr * diag * z
            if (t + 1) % h == 0 or t == total - 1:
                anchor = z.copy()
                global_z = z.copy()
            subopts.append(0.5 * float(np.sum(diag * z * z)))

        assert (result.diagnostics.columns["train_metric"].tolist()
                == pytest.approx(subopts, rel=1e-10, abs=1e-300))
        impl = workload.suboptimality(result.weighted_average)
        oracle = 0.5 * float(np.sum(diag * xhat * xhat))
        assert impl == pytest.approx(oracle, rel=1e-10)


class TestDilocoHandTrace:
    def test_one_round_matches_hand_recursion(self):
        diag = np.array([2.0])
        sigma = 1.0
        workload = QuadraticWorkload(diag, np.zeros(1), sigma, x0=np.array([1.0]))
        seed = 21
        adamw = InnerOptConfig(variant="adamw")  # no clipping: keeps the trace short
        outer = OuterOptConfig(variant="nesterov", lr=0.5, momentum=0.9)
        sched = Schedule(alpha=0.1, p=0.0, sync_interval=2, total_steps=2)
        result = run_training(workload, make_variant("diloco", inner=adamw, outer=outer),
                              sched, small_cluster(2), seed)

        noise_scale = sigma / math.sqrt(float(np.sum(diag ** 2)))
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.1
        stream = RngStream(seed, 0, PURPOSE_DATA)
        # one (2, 1) draw per step, row k for worker k
        blocks = chunk_draws(lambda n: stream.gaussian_vector(n, noise_scale), 2, 1, 2)
        xs = [np.array([1.0]), np.array([1.0])]
        ms = [np.zeros(1), np.zeros(1)]
        vs = [np.zeros(1), np.zeros(1)]
        for step in (1, 2):
            block = blocks[step - 1]
            for k in range(2):
                x, m, v = xs[k], ms[k], vs[k]
                xi = block[k]
                g = diag * (x - xi)
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * (g * g)
                m_hat = m / (1.0 - b1 ** step)
                v_hat = v / (1.0 - b2 ** step)
                xs[k] = (x - lr * 0.0 * x) - lr * m_hat / (np.sqrt(v_hat) + eps)
                ms[k], vs[k] = m, v
        mean = (xs[0].copy() + xs[1]) / 2
        delta = np.array([1.0]) - mean
        buf = 0.9 * np.zeros(1) + delta
        expected_global = np.array([1.0]) - 0.5 * (delta + 0.9 * buf)
        assert np.array_equal(result.global_model, expected_global)


class TestPerWorkerReference:
    """The stacked trainer against a worker-by-worker loop written out here."""

    def test_palsgd_matches_per_worker_loop_bitwise(self):
        diag, sigma, seed = np.array([1.0, 2.0, 4.0]), 1.0, 5
        workload = QuadraticWorkload(diag, np.zeros(3), sigma, x0=np.ones(3))
        n, h, total, p = 3, 4, 12, 0.3
        inner = InnerOptConfig(variant="adamw", clip_norm=4.5, weight_decay=0.01,
                               reset_at_sync=True)
        outer = OuterOptConfig(variant="nesterov", lr=0.7, momentum=0.9)
        sched = Schedule(alpha=0.05, eta=0.5, p=p, sync_interval=h, total_steps=total)
        cluster = small_cluster(n, jitter=0.2, worker_multipliers=(1.0, 1.0, 2.5))
        result = run_training(workload, make_variant("palsgd", inner=inner, outer=outer),
                              sched, cluster, seed, record_every=1)

        noise_scale = sigma / math.sqrt(float(np.sum(diag ** 2)))
        # one draw per purpose and step, row k for worker k
        data = RngStream(seed, 0, PURPOSE_DATA)
        all_coins = chunk_draws(RngStream(seed, 0, PURPOSE_BERNOULLI).uniform_vector, n, 1, total)
        all_noise = chunk_draws(lambda m: data.gaussian_vector(m, noise_scale), n, 3, total)
        all_jitter = chunk_draws(RngStream(seed, 0, PURPOSE_JITTER).uniform_vector, n, 1, total)
        xs = [np.ones(3) for _ in range(n)]
        anchors = [np.ones(3) for _ in range(n)]
        ms, vs, steps = [np.zeros(3) for _ in range(n)], [np.zeros(3) for _ in range(n)], [0] * n
        global_x, buf = np.ones(3), np.zeros(3)
        times, comm_count, comm_seconds = [0.0] * n, 0, 0.0
        windows, window, reference = [], [0] * n, {}  # reference: the record columns
        clipped_steps = []  # per step: which gradient rows were clipped
        for t in range(total):
            clipped = []
            coins, noise, jitter_u = all_coins[t][:, 0], all_noise[t], all_jitter[t][:, 0]
            for k in range(n):
                mixing = coins[k] <= p
                if mixing:
                    xs[k] = xs[k] - (0.05 * 0.5 / p) * (xs[k] - anchors[k])
                    window[k] += 1
                else:
                    g = diag * (xs[k] - np.zeros(3) - noise[k])
                    gnorm = float(np.sqrt(np.dot(g, g)))
                    clipped.append(gnorm > 4.5)
                    if gnorm > 4.5:
                        g = g * (4.5 / gnorm)
                    lr = 0.05 / (1.0 - p)
                    steps[k] += 1
                    ms[k] = 0.9 * ms[k] + (1.0 - 0.9) * g
                    vs[k] = 0.999 * vs[k] + (1.0 - 0.999) * (g * g)
                    m_hat = ms[k] / (1.0 - 0.9 ** steps[k])
                    v_hat = vs[k] / (1.0 - 0.999 ** steps[k])
                    x_out = xs[k] - lr * 0.01 * xs[k]
                    xs[k] = x_out - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                cost = cluster.step_cost(k) * (1.0 if not mixing else 0.01)
                cost *= 1.0 + 0.2 * (2.0 * jitter_u[k] - 1.0)
                times[k] += cost
            clipped_steps.append(clipped)
            drift = None
            if (t + 1) % h == 0:
                mean = xs[0].copy()
                for x in xs[1:]:
                    mean += x
                mean /= n
                # a sync step records the closing window's drift, before the reset
                drift = (ordered_sum(float(np.dot(x - anchors[0], x - anchors[0])) for x in xs) / n,
                         ordered_sum(float(np.dot(x - mean, x - mean)) for x in xs) / n)
                delta = global_x - mean
                buf = 0.9 * buf + delta
                global_x = global_x - 0.7 * (delta + 0.9 * buf)
                duration = allreduce_time(3 * 8, n, cluster.allreduce)
                times = [max(times) + duration] * n
                comm_count, comm_seconds = comm_count + 1, comm_seconds + duration
                xs = [global_x.copy() for _ in range(n)]
                anchors = [global_x.copy() for _ in range(n)]
                ms, vs, steps = [np.zeros(3) for _ in range(n)], [np.zeros(3) for _ in range(n)], [0] * n
                windows.append(tuple(window))
                window = [0] * n
            if drift is None:
                xbar = xs[0].copy()
                for x in xs[1:]:
                    xbar += x
                xbar /= n
                drift = (ordered_sum(float(np.dot(x - anchors[0], x - anchors[0])) for x in xs) / n,
                         ordered_sum(float(np.dot(x - xbar, x - xbar)) for x in xs) / n)
            else:
                xbar = global_x  # after the all-reduce, every worker's model
            record = dict(step=t, sim_time_s=max(times),
                          train_metric=0.5 * float(np.dot(xbar * diag, xbar)),
                          consensus_sq=drift[0], spread_sq=drift[1],
                          comm_count=comm_count, comm_seconds=comm_seconds)
            for name, value in record.items():
                reference.setdefault(name, []).append(value)

        # the trace covers both branches, and steps where clipping hits some rows only
        assert 0 < sum(sum(w) for w in windows) < n * total
        assert any(any(c) and not all(c) for c in clipped_steps)
        assert np.array_equal(result.global_model, global_x)
        assert all(drift > 0.0 for t, drift in zip(reference["step"], reference["consensus_sq"])
                   if (t + 1) % h == 0)
        columns = result.diagnostics.columns
        assert {name: columns[name].tolist() for name in reference} == reference
        assert not columns["evaluated"].any()
        assert result.worker_time.tolist() == times
        assert result.diagnostics.window_mixing_counts.tolist() == [list(w) for w in windows]


def allreduce_steps(total, h, ddp_steps):
    """The steps that end in an all-reduce: the first `ddp_steps` (DDP or its
    warmup) and every sync round, the last step among them."""
    return [t for t in range(total) if t < ddp_steps or (t + 1) % h == 0 or t == total - 1]


class TestRecordCadence:
    """The steps run_training records at, against allreduce_steps."""

    @pytest.mark.parametrize("tag, warmup", [("palsgd", 0), ("palsgd", 5), ("local_sgd", 0),
                                             ("ddp", 0)])
    def test_default_records_each_allreduce(self, tag, warmup):
        sched = Schedule(alpha=0.02, eta=0.5, p=0.3 if tag == "palsgd" else 0.0, sync_interval=4,
                         warmup_steps=warmup, total_steps=30)
        result = run_training(quadratic(), make_variant(tag), sched, small_cluster(3), seed=2)
        want = allreduce_steps(30, 4, 30 if tag == "ddp" else sched.effective_warmup)
        assert result.diagnostics.columns["step"].tolist() == want
        assert [e.step for e in result.events] == want
        assert want[-1] == 29 and (warmup == 0 or want[:8] == list(range(8)))

    def test_metrics_every_adds_its_multiples(self):
        sched = Schedule(alpha=0.02, eta=0.5, p=0.3, sync_interval=8, total_steps=30)
        result = run_training(quadratic(), make_variant("palsgd"), sched, small_cluster(2),
                              seed=2, record_every=5)
        want = sorted({*allreduce_steps(30, 8, 0), *range(0, 30, 5)})
        assert result.diagnostics.columns["step"].tolist() == want

    def test_eval_steps_off_the_sync_grid_are_recorded(self):
        train, test = classification(3, 4, 20)
        workload = MlpWorkload([4, 6, 3], "tanh", train, test=test, batch_size=3)
        sched = Schedule(alpha=0.01, eta=0.5, p=0.3, sync_interval=4, total_steps=22)
        result = run_training(workload, make_variant("palsgd"), sched, small_cluster(3),
                              seed=4, eval_every=5)
        evals = [4, 9, 14, 19, 21]  # (t + 1) % 5 == 0, and the final step
        columns = result.diagnostics.columns
        evaluated = columns["evaluated"]
        assert columns["step"].tolist() == sorted({*allreduce_steps(22, 4, 0), *evals})
        assert columns["step"][evaluated].tolist() == evals
        for name in ("eval_loss", "eval_acc"):  # a number exactly where evaluated
            assert np.isnan(columns[name]).tolist() == (~evaluated).tolist()
        # a workload with no evaluation set adds no eval steps
        quad = run_training(quadratic(), make_variant("palsgd"), sched, small_cluster(3),
                            seed=4, eval_every=5)
        assert quad.diagnostics.columns["step"].tolist() == allreduce_steps(22, 4, 0)

    def test_sync_records_probe_the_rows_before_the_reset(self, monkeypatch):
        seen = {}

        def probing_sync_round(workers, global_x, outer_state, clock, t):
            for r, (rows, g) in enumerate(zip(workers.stacked, global_x)):
                xbar = mean_of(rows)
                k = len(rows)
                seen[r, t] = (ordered_sum(float(np.dot(x - g, x - g)) for x in rows) / k,
                              ordered_sum(float(np.dot(x - xbar, x - xbar)) for x in rows) / k)
            return sync_round(workers, global_x, outer_state, clock, t)

        monkeypatch.setattr(algorithms, "sync_round", probing_sync_round)
        sched = Schedule(alpha=0.02, eta=0.5, p=0.3, sync_interval=8, total_steps=30)
        result = run_training(quadratic(diag=(1.0, 2.0, 4.0)), make_variant("palsgd"), sched,
                              small_cluster(4), seed=[3, 8])
        columns = result.diagnostics.columns
        assert columns["step"].tolist() == [7, 15, 23, 29]
        for r in range(2):
            drift = zip(columns["consensus_sq"][r].tolist(), columns["spread_sq"][r].tolist())
            assert list(drift) == [seen[r, t] for t in (7, 15, 23, 29)]
        assert (columns["consensus_sq"] > 0.0).all() and (columns["spread_sq"] > 0.0).all()

    @pytest.mark.parametrize("tag, warmup", [("ddp", 0), ("local_sgd", 0), ("palsgd", 0),
                                             ("palsgd", 8)])
    def test_allreduce_records_read_the_global_model(self, tag, warmup, monkeypatch):
        # with 7 workers the mean of equal rows rounds away from the row, so a
        # record read at the worker mean would not match the global model
        seen = {}

        def seeing_ddp_step(workers, schedule, t, *args):
            seen[t] = ddp_step(workers, schedule, t, *args)[0]
            return seen[t][None]

        def seeing_sync_round(workers, global_x, outer_state, clock, t):
            new_global, drift = sync_round(workers, global_x, outer_state, clock, t)
            seen[t] = new_global[0]
            return new_global, drift

        monkeypatch.setattr(algorithms, "ddp_step", seeing_ddp_step)
        monkeypatch.setattr(algorithms, "sync_round", seeing_sync_round)
        train, test = classification(3, 4, 20)
        workload = MlpWorkload([4, 6, 3], "tanh", train, test=test, batch_size=3)
        sched = Schedule(alpha=0.05, eta=0.5, p=0.3 if tag == "palsgd" else 0.0,
                         sync_interval=4, warmup_steps=warmup, total_steps=18)
        result = run_training(workload, make_variant(tag), sched, small_cluster(7), seed=6,
                              eval_every=100)
        columns = result.diagnostics.columns
        steps, metric = columns["step"].tolist(), columns["train_metric"].tolist()
        assert steps == sorted(seen) and steps[-1] == 17
        assert metric[-1] == workload.full_objective(result.global_model)
        assert columns["eval_loss"][-1] == workload.evaluate(result.global_model)["eval_loss"]
        assert metric == [workload.full_objective(seen[t]) for t in steps]
        ddp_steps = 18 if tag == "ddp" else warmup
        ddp_records = columns["step"] < ddp_steps
        assert ddp_records.sum() == ddp_steps
        assert (columns["consensus_sq"][ddp_records] == 0.0).all()
        assert (columns["spread_sq"][ddp_records] == 0.0).all()

    @pytest.mark.parametrize("eval_every", [None, 5])
    def test_ddp_default_records_equal_every_step_records(self, eval_every):
        train, test = classification(3, 4, 20)
        workload = MlpWorkload([4, 6, 3], "tanh", train, test=test, batch_size=3)
        sched = Schedule(alpha=0.1, total_steps=12)
        a, b = (run_training(workload, make_variant("ddp"), sched, small_cluster(4), seed=3,
                             record_every=every, eval_every=eval_every) for every in (None, 1))
        assert len(a.diagnostics.columns["step"]) == 12
        assert_columns_equal(a.diagnostics.columns, b.diagnostics.columns)


def local_steps(workers, p, total, seed=3, jitter=0.25, workload=None):
    """`total` PALSGD local steps of `workers` workers with no sync; returns
    the workers, the clock, the (total, K) mixing masks and the sample each
    gradient step drew, keyed (t, k). The workload is a noisy 3-D quadratic
    unless one is given."""
    workload = workload or quadratic(diag=(1.0, 2.0, 4.0), sigma=1.0)
    plain_draw = workload.draw_sample
    noise = {}
    t_now = [0]

    def recording_draw(sampler, mask):
        out = plain_draw(sampler, mask)
        noise.update({(t_now[0], int(k)): out[k].copy() for k in np.flatnonzero(mask)})
        return out

    workload.draw_sample = recording_draw
    sched = Schedule(alpha=0.05, eta=0.5, p=p, total_steps=total)
    x0 = workload.init_params(RngStream(seed, 0, PURPOSE_INIT))
    ws = Workers.start(x0[None], InnerOptConfig(variant="adamw", clip_norm=2.0),
                       workload, workers, [seed], p)
    clock = SimClock(small_cluster(workers, jitter=jitter), [seed])
    masks = []
    for t in range(total):
        t_now[0] = t
        masks.append(palsgd_local_step(ws, sched, t, workload, clock))
    return ws, clock, np.array(masks), noise


class TestBlockDraws:
    """One draw per purpose and step for all K workers, row k for worker k."""

    def test_worker_rows_do_not_depend_on_worker_count(self):
        # without a sync a worker sees only its own coin, noise and jitter
        # rows, so the first three workers of five run as three workers alone;
        # 1100 steps cross a chunk boundary of every purpose (C = 1024, 341, 1024)
        ws3, clock3, masks3, noise3 = local_steps(3, 0.3, 1100)
        ws5, clock5, masks5, noise5 = local_steps(5, 0.3, 1100)
        assert 0 < masks3.sum() < masks3.size
        assert np.array_equal(masks5[:, :3], masks3)
        assert set(noise3) == {key for key in noise5 if key[1] < 3}
        assert all(np.array_equal(row, noise5[key]) for key, row in noise3.items())
        assert np.array_equal(ws5.x[:3], ws3.x)
        assert clock5.times[0, :3].tolist() == clock3.times[0].tolist()

    def test_noise_rows_do_not_depend_on_p(self):
        _, _, _, at_zero = local_steps(4, 0.0, 400)  # crosses the noise chunks' C = 341
        _, _, masks, at_p = local_steps(4, 0.3, 400)
        assert len(at_zero) == 4 * 400
        assert len(at_p) == (~masks).sum() < len(at_zero)
        for key, row in at_p.items():
            assert np.array_equal(row, at_zero[key]), key

    def test_index_rows_do_not_depend_on_p(self):
        # a sharded worker's with_replacement positions are read at every step,
        # also at a step where every row mixes and none steps, so its index
        # batch at step t is the same at any p; 300 steps cross the
        # positions' chunk boundary (C = 1024 // 4)
        train, _ = classification(2, 5, 40)
        workload = LogisticWorkload(train, l2_reg=0.01, batch_size=4)
        _, _, _, at_zero = local_steps(3, 0.0, 300, workload=workload)
        _, _, masks, at_p = local_steps(3, 0.6, 300, workload=workload)
        assert masks[:256].all(axis=1).any() and masks[256:].all(axis=1).any()
        assert len(at_zero) == 3 * 300
        assert len(at_p) == (~masks).sum() < len(at_zero)
        for key, row in at_p.items():
            assert np.array_equal(row, at_zero[key]), key

    def test_draw_calls_per_step_do_not_grow_with_workers(self, monkeypatch):
        calls = []
        for name in ("uniform", "uniform_vector", "gaussian", "gaussian_vector",
                     "integers", "permutation"):
            plain = getattr(RngStream, name)

            def counted(self, *args, _plain=plain, **kwargs):
                calls.append(self.purpose)
                return _plain(self, *args, **kwargs)

            monkeypatch.setattr(RngStream, name, counted)
        total = 1100
        sched = Schedule(alpha=0.02, eta=0.5, p=0.3, sync_interval=8, total_steps=total)
        result = run_training(quadratic(diag=(1.0, 2.0, 4.0)), make_variant("palsgd"), sched,
                              small_cluster(32, jitter=0.1), seed=1)
        assert 0 < sum(result.diagnostics.mixing_steps_per_worker) < 32 * total
        # one generator call per purpose and chunk, whatever K: the coins and
        # the jitter serve C = 1024 steps a chunk, the 3-wide noise rows 341
        assert Counter(calls) == {PURPOSE_BERNOULLI: 2, PURPOSE_JITTER: 2, PURPOSE_DATA: 4}

    def test_coin_masks_are_the_bernoulli_chunks_compared_with_p(self, monkeypatch):
        # 1100 steps after 16 warmup steps, which draw no coin, are 1084 local
        # steps: local step i reads slot i % 1024 of chunk i // 1024, chunk c
        # draw c of each replica's Bernoulli stream
        seeds, k, p, total, warmup = [4, 9], 3, 0.3, 1100, 16
        kept = []
        plain_step = algorithms.palsgd_local_step

        def keeping_step(*args):
            mask = plain_step(*args)
            kept.append((mask, mask.copy()))
            return mask

        monkeypatch.setattr(algorithms, "palsgd_local_step", keeping_step)
        sched = Schedule(alpha=0.02, eta=0.5, p=p, sync_interval=8, warmup_steps=warmup,
                         total_steps=total)
        run_training(quadratic(), make_variant("palsgd"), sched, small_cluster(k, jitter=0.1),
                     seed=seeds)
        assert len(kept) == total - warmup
        streams = [RngStream(s, 0, PURPOSE_BERNOULLI) for s in seeds]
        chunks = [np.concatenate([stream.uniform_vector((k, 1024, 1)) for stream in streams]) <= p
                  for _ in range(2)]
        for i, (mask, at_return) in enumerate(kept):
            assert np.array_equal(at_return, chunks[i // 1024][:, i % 1024, 0]), i
            # a mask handed out before the refill at local step 1024 is
            # unchanged after it
            assert np.array_equal(mask, at_return), i
        assert 0 < sum(int(mask.sum()) for mask, _ in kept) < len(kept) * len(seeds) * k

    def test_no_coin_is_drawn_at_p_zero(self, monkeypatch):
        purposes = []
        plain_draw = RngStream.uniform_vector

        def counted(self, *args, **kwargs):
            purposes.append(self.purpose)
            return plain_draw(self, *args, **kwargs)

        monkeypatch.setattr(RngStream, "uniform_vector", counted)
        sched = Schedule(alpha=0.02, p=0.0, sync_interval=8, total_steps=1100)
        result = run_training(quadratic(), make_variant("local_sgd"), sched,
                              small_cluster(3, jitter=0.1), seed=[4, 9])
        assert sum(result.diagnostics.mixing_steps_per_worker) == 0
        assert PURPOSE_BERNOULLI not in purposes and PURPOSE_JITTER in purposes


@pytest.mark.parametrize("tag,syncs", [("palsgd", 4), ("ddp", 14)])
def test_each_replica_logs_each_allreduce_through_record_allreduce(monkeypatch, tag, syncs):
    # bench/run.py's traced check wraps SimClock.record_allreduce and expects
    # one call per replica and all-reduce, each returning the event it logs
    returned = []
    original = SimClock.record_allreduce

    def counting(self, *args, **kwargs):
        returned.append(original(self, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(SimClock, "record_allreduce", counting)
    seeds = [4, 5, 6]
    sched = Schedule(alpha=0.05, eta=0.5, p=0.3 if tag == "palsgd" else 0.0, sync_interval=4,
                     total_steps=14)
    cluster = small_cluster(3, bytes_per_param=4)
    result = run_training(quadratic(diag=(1.0, 2.0, 4.0)), make_variant(tag), sched, cluster,
                          seeds)
    assert [len(events) for events in result.events] == [syncs] * len(seeds)
    assert len(returned) == len(seeds) * syncs
    assert all(event.payload_bytes == 3 * 4 for event in returned)


def runs_alone_and_batched(workload, variant, schedule, cluster, seeds, **kw):
    alone = [run_training(workload, variant, schedule, cluster, seed, **kw) for seed in seeds]
    return alone, run_training(workload, variant, schedule, cluster, list(seeds), **kw)


def assert_replicas_equal_runs_alone(alone, batched):
    """Every replica of the batch, bit for bit, against the run of its seed alone."""
    k = batched.worker_time.shape[1]
    diag = batched.diagnostics
    assert not batched.diverged
    assert batched.global_model.shape == (len(alone), alone[0].global_model.shape[0])
    for r, one in enumerate(alone):
        assert batched.global_model[r].tobytes() == one.global_model.tobytes()
        if one.weighted_average is None:
            assert batched.weighted_average is None
        else:
            assert batched.weighted_average[r].tobytes() == one.weighted_average.tobytes()
        columns = replica_columns(diag, r)
        assert_columns_equal(columns, one.diagnostics.columns)
        assert reference_metrics_text(columns) == reference_metrics_text(one.diagnostics.columns)
        assert batched.events[r] == one.events
        assert batched.worker_time[r].tobytes() == one.worker_time.tobytes()
        assert batched.comm_seconds[r] == one.comm_seconds
        assert max(batched.worker_time[r]) == max(one.worker_time)
        rows = slice(r * k, (r + 1) * k)
        assert diag.mixing_steps_per_worker[rows] == one.diagnostics.mixing_steps_per_worker
        assert diag.gradient_steps_per_worker[rows] == one.diagnostics.gradient_steps_per_worker
        assert (diag.window_mixing_counts[r].tolist()
                == one.diagnostics.window_mixing_counts.tolist())
    sync_steps = [e.step for e in batched.events[0]]
    assert all([e.step for e in one.events] == sync_steps for one in alone)


def classification(classes, dim, per_class):
    train = generate_synthetic_classification(classes, dim, per_class, data_seed=3)
    test = generate_synthetic_classification(classes, dim, 5, data_seed=3, split=1)
    return train, test


class TestReplicaAxis:
    """S seeds as one batched run_training call against S runs alone."""

    def test_quad_palsgd_with_warmup_jitter_and_stragglers(self):
        # 1100 steps cross a chunk boundary of the coins (C = 1024, drawn after
        # the warmup), the 3-wide noise rows (C = 341) and the jitter (C = 1024)
        sched = Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=4, warmup_steps=6,
                         total_steps=1100)
        cluster = small_cluster(3, jitter=0.2, worker_multipliers=(1.0, 2.5, 1.0))
        alone, batched = runs_alone_and_batched(
            quadratic(diag=(1.0, 2.0, 4.0)), make_variant("palsgd"), sched, cluster, [5, 11, 2])
        assert make_variant("palsgd").inner.variant == "adamw"
        assert sched.effective_warmup == 8  # ddp_step runs for the first 8 steps
        assert 0 < sum(batched.diagnostics.mixing_steps_per_worker) < 3 * 3 * 1092
        assert_replicas_equal_runs_alone(alone, batched)

    def test_logistic_palsgd_with_jitter_draws_positions_per_replica(self):
        # with_replacement positions come from each replica's own shards, and
        # masked rows discard theirs; 1100 steps cross a chunk boundary of the
        # positions (C = 1024 // 4), the coins and the jitter (C = 1024)
        train, _ = classification(2, 5, 40)
        workload = LogisticWorkload(train, l2_reg=0.01, batch_size=4)
        sched = Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=8, total_steps=1100)
        cluster = small_cluster(3, jitter=0.3, worker_multipliers=(1.0, 1.5, 1.0))
        alone, batched = runs_alone_and_batched(workload, make_variant("palsgd"), sched,
                                                cluster, [1, 2, 3])
        assert 0 < sum(batched.diagnostics.mixing_steps_per_worker) < 3 * 3 * 1100
        assert_replicas_equal_runs_alone(alone, batched)

    def test_logistic_ddp(self):
        train, _ = classification(2, 5, 40)
        workload = LogisticWorkload(train, l2_reg=0.01, batch_size=4)
        sched = Schedule(alpha=0.1, total_steps=12)
        alone, batched = runs_alone_and_batched(workload, make_variant("ddp"), sched,
                                                small_cluster(4), [1, 2, 3])
        assert len(batched.events[0]) == 12
        assert_replicas_equal_runs_alone(alone, batched)

    def test_mlp_palsgd_under_epoch_shuffle(self):
        train, test = classification(3, 4, 20)
        workload = MlpWorkload([4, 6, 3], "tanh", train, test=test, batch_size=3,
                               draw_policy="epoch_shuffle")
        sched = Schedule(alpha=0.01, eta=0.5, p=0.3, sync_interval=4, total_steps=22)
        alone, batched = runs_alone_and_batched(workload, make_variant("palsgd"), sched,
                                                small_cluster(3), [4, 9, 1], eval_every=5)
        # each replica starts from its own seed's initial point
        columns = batched.diagnostics.columns
        assert columns["train_metric"][0, 0] != columns["train_metric"][1, 0]
        assert columns["evaluated"].any()
        assert not np.isnan(columns["eval_acc"][2, columns["evaluated"]]).any()
        assert_replicas_equal_runs_alone(alone, batched)

    def test_palsgd_theory(self):
        workload = quadratic(diag=(1.0, 2.0), sigma=0.5, offset=1.0)
        sched = theory_schedule(mu=workload.mu, smoothness=workload.smoothness, p=0.5,
                                sync_interval=4, total_steps=90, workers=4, sigma=0.5, d0=2.0)
        alone, batched = runs_alone_and_batched(workload, make_variant("palsgd_theory"), sched,
                                                small_cluster(4), [5, 6, 7], record_every=9)
        assert_replicas_equal_runs_alone(alone, batched)
        assert ([workload.suboptimality(x_hat) for x_hat in batched.weighted_average]
                == [workload.suboptimality(one.weighted_average) for one in alone])

    def test_numpy_integer_seeds(self):
        sched = Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=4, total_steps=12)
        a, b = (run_training(quadratic(), make_variant("palsgd"), sched, small_cluster(2), seeds)
                for seeds in (np.arange(3), [0, 1, 2]))
        assert a.global_model.tobytes() == b.global_model.tobytes()
        assert_columns_equal(a.diagnostics.columns, b.diagnostics.columns)
        assert a.events == b.events

    def test_one_seed_in_a_list_keeps_the_axis(self):
        sched = Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=4, total_steps=12)
        alone, batched = runs_alone_and_batched(quadratic(), make_variant("palsgd"), sched,
                                                small_cluster(2), [8])
        assert batched.global_model.shape == (1, 2)
        assert batched.worker_time.shape == (1, 2)
        assert alone[0].global_model.shape == (2,)
        assert alone[0].worker_time.shape == (2,)
        assert_replicas_equal_runs_alone(alone, batched)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("seeds", [[1, 4, 6], [11, 3, 5]])
    def test_divergence_matches_the_run_alone(self, seeds):
        # alone, these seeds diverge at steps 51, 46, 50 and 52, 52, 48
        sgd = InnerOptConfig(variant="sgd")
        variant = make_variant("palsgd", inner=sgd, outer=OuterOptConfig(variant="nesterov", lr=0.7))
        sched = Schedule(alpha=1e9, eta=1e-9, p=0.5, sync_interval=4, total_steps=200)
        alone, batched = runs_alone_and_batched(quadratic(diag=(1.0, 2.0, 4.0), sigma=1.0),
                                                variant, sched, small_cluster(3), seeds)
        assert all(one.diverged for one in alone)
        steps = [one.divergence.step for one in alone]
        first = steps.index(min(steps))
        report, want = batched.divergence, alone[first].divergence
        assert batched.diverged and report.replica == first
        assert (report.step, report.worker) == (want.step, want.worker)
        assert report.last_record == want.last_record is not None
        # each replica holds the records its run alone took before the step,
        # the one the report indexes among them
        assert report.last_record < len(batched.diagnostics.columns["step"])
        for r, one in enumerate(alone):
            before = one.diagnostics.columns["step"] < report.step
            assert_columns_equal(replica_columns(batched.diagnostics, r),
                                 {name: column[before]
                                  for name, column in one.diagnostics.columns.items()})


def palsgd_straggler_run():
    # record_every = 7 takes records off the H = 4 grid, with their own probe
    sched = Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=4, warmup_steps=6,
                     total_steps=90)
    cluster = small_cluster(3, jitter=0.2, worker_multipliers=(1.0, 2.5, 1.0))
    return run_training(quadratic(diag=(1.0, 2.0, 4.0)), make_variant("palsgd"), sched,
                        cluster, 5, record_every=7)


def ddp_run():
    train, _ = classification(2, 5, 40)
    workload = LogisticWorkload(train, l2_reg=0.01, batch_size=4)
    return run_training(workload, make_variant("ddp"), Schedule(alpha=0.1, total_steps=30),
                        small_cluster(4), 3)


def mlp_eval_run():
    train, test = classification(3, 4, 20)
    workload = MlpWorkload([4, 6, 3], "tanh", train, test=test, batch_size=3)
    sched = Schedule(alpha=0.01, eta=0.5, p=0.3, sync_interval=4, total_steps=30)
    return run_training(workload, make_variant("palsgd"), sched, small_cluster(3), 4,
                        eval_every=5)


def batched_run():
    sched = Schedule(alpha=0.05, eta=0.5, p=0.3, sync_interval=4, total_steps=60)
    return run_training(quadratic(diag=(1.0, 2.0, 4.0)), make_variant("palsgd"), sched,
                        small_cluster(3, jitter=0.1), [5, 11, 2], record_every=3)


def diverging_run():
    # alone, these seeds diverge at steps 51, 46 and 50
    variant = make_variant("palsgd", inner=InnerOptConfig(variant="sgd"),
                           outer=OuterOptConfig(variant="nesterov", lr=0.7))
    sched = Schedule(alpha=1e9, eta=1e-9, p=0.5, sync_interval=4, total_steps=200)
    return run_training(quadratic(diag=(1.0, 2.0, 4.0), sigma=1.0), variant, sched,
                        small_cluster(3), [1, 4, 6], record_every=3)


class TestRecordBlocks:
    """Records are computed a block at a time: where the blocks end moves no
    bit of any column, and the arrays the pending records hold stay bounded."""

    # the diverging run overflows in its steps; a block holds no row of the
    # step that blew up, so nothing it probes or evaluates is invalid
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("run", [palsgd_straggler_run, ddp_run, mlp_eval_run, batched_run,
                                     diverging_run])
    def test_block_boundaries_move_no_bit(self, run, monkeypatch):
        probes = []

        def counted_probe(x, global_x, xbar):
            probes.append(len(x))
            return consensus_probe(x, global_x, xbar)

        monkeypatch.setattr(algorithms, "consensus_probe", counted_probe)
        results, probe_calls = [], []
        for block_bytes in (0, 2 ** 40):  # every record its own block; one block
            monkeypatch.setattr(algorithms, "RECORD_BLOCK_BYTES", block_bytes)
            probes.clear()
            results.append(run())
            probe_calls.append(list(probes))
        each, one = results
        assert_columns_equal(each.diagnostics.columns, one.diagnostics.columns)
        assert repr(each.divergence) == repr(one.divergence)
        if each.diverged:
            assert each.divergence.last_record is not None
        # every probed record is probed alone, or all of them at once
        per_record, whole = probe_calls
        assert len(whole) == (1 if per_record else 0) and sum(per_record) == sum(whole)
        assert len(per_record) > 1 or run is ddp_run

    def test_held_records_stay_bounded(self):
        # held to the end, the 2 000 records' (32, 64) rows would take 32 MB
        k, d, total = 32, 64, 2000
        workload = quadratic(diag=np.linspace(1.0, 4.0, d))
        sched = Schedule(alpha=0.05, eta=0.5, p=0.1, sync_interval=16, total_steps=total)
        tracemalloc.start()
        try:
            result = run_training(workload, make_variant("palsgd"), sched, small_cluster(k), 5,
                                  record_every=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.diagnostics.columns["step"]) == total
        # the run's own state (its step-major (C, K, d) noise chunk and the
        # (K, C, d) block drawn for it, its coins' (C, K) masks and the (K, C)
        # uniforms drawn for them, the workers and their
        # temporaries) and its finished column blocks stay
        # under 3 MiB; the rows of a few blocks, held, stacked and differenced
        # when a block is evaluated, come on top
        assert peak < 3 * 2 ** 20 + 4 * algorithms.RECORD_BLOCK_BYTES


class TestLogisticSoftplus:
    """The logistic objective's softplus form moves only the recorded train_metric."""

    @pytest.mark.parametrize("tag", ["ddp", "palsgd"])
    def test_only_the_metric_moves(self, tag, monkeypatch):
        train, _ = classification(2, 8, 1000)
        workload = LogisticWorkload(train, l2_reg=0.01, batch_size=8)
        sched = Schedule(alpha=0.1, eta=0.5, p=0.3 if tag == "palsgd" else 0.0,
                         sync_interval=4, total_steps=60)
        cluster = small_cluster(4, jitter=0.2)

        def run():
            return run_training(workload, make_variant(tag), sched, cluster, seed=5,
                                record_every=3)

        calls = []

        def reference(z):
            calls.append(len(z))
            return np.logaddexp(0.0, z)

        new = run()
        monkeypatch.setattr(workloads, "_softplus", reference)
        ref = run()
        assert calls == [len(train)] * len(ref.diagnostics.columns["step"])
        assert repr(new.events) == repr(ref.events)
        assert new.global_model.tobytes() == ref.global_model.tobytes()
        assert new.worker_time.tobytes() == ref.worker_time.tobytes()
        assert repr(new.comm_seconds) == repr(ref.comm_seconds)
        other_columns = [{name: column for name, column in r.diagnostics.columns.items()
                          if name != "train_metric"} for r in (new, ref)]
        assert_columns_equal(*other_columns)
        assert (new.diagnostics.columns["train_metric"].tolist()
                == pytest.approx(ref.diagnostics.columns["train_metric"].tolist(),
                                 rel=1e-15, abs=0.0))
