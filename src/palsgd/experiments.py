"""Experiment execution: single runs, one-at-a-time parameter sweeps,
theory verification with convergence-slope fitting, and gradient checks."""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import os

import numpy as np

from .algorithms import Schedule, make_variant, run_training
from .cluster import export_events_jsonl
from .config import KEYS, ConfigError, RunConfig, parse_config
from .metrics import summarize, write_metrics_jsonl, write_summary
from .vecmath import PURPOSE_INIT, RngStream
from .workloads import LogisticWorkload, MlpWorkload, generate_synthetic_classification

SWEEP_CSV_HEADER = ["param", "value", "status", "final_loss", "sim_time_s", "sync_count",
                    "diverged"]
K_SLOPE_RANGE = (-1.15, -0.7)  # the K-slopes that verify_theory takes for linear speedup


def run_experiment(cfg: RunConfig, out_dir: str | None = None):
    """Execute one configured run; returns (summary dict, TrainResult)."""
    workload = cfg.workload_object()
    variant = cfg.build_variant()
    schedule = cfg.build_schedule(workload)
    cluster = cfg.build_cluster()
    result = run_training(workload, variant, schedule, cluster, cfg.seed,
                          record_every=cfg.metrics_every, eval_every=cfg.eval_every)
    summary = summarize(result)
    target = out_dir or cfg.out_dir
    if target:
        os.makedirs(target, exist_ok=True)
        with open(os.path.join(target, "config.json"), "w") as fh:
            json.dump(cfg.normalized(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        write_metrics_jsonl(result.diagnostics, os.path.join(target, "metrics.jsonl"))
        write_summary(summary, os.path.join(target, "summary.json"))
        export_events_jsonl(result.events, os.path.join(target, "events.jsonl"))
    return summary, result


def _set_path(tree: dict, dotted: str, value) -> dict:
    *sections, key = dotted.split(".")
    node = tree
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return tree


def sweep(cfg: RunConfig, grid: dict[str, list], out_dir: str | None = None) -> list[dict]:
    """One run per (parameter, value), each varied alone against the base config.

    Returns the comparison rows and, when out_dir (by default the base's
    ``out_dir``) is set, writes ``sweep.csv`` plus one run directory per
    cell, ``<out_dir>/<i>``, where i is the cell's 0-based row in
    ``sweep.csv``. Each row's ``status`` is "ok", "diverged" or "error". A
    cell whose config is rejected or whose run raises is recorded as "error"
    with its result columns (``diverged`` included) left empty and the
    message in the cell's ``error.txt``, and the sweep continues. A grid
    that is not an object mapping each path to a non-empty list of distinct
    values raises ConfigError("grid", ...).

    A cell is the base's normalized config with one key set, and only that
    key given to the parser: it drops the base's keys its run does not read,
    and is an "error" cell if its run does not read the swept key. So a ddp
    base swept to palsgd mixes at the default p. A path that names no config
    key raises ConfigError.
    """
    if not isinstance(grid, dict):
        raise ConfigError("grid", f"must map parameter paths to value lists, got {grid!r}")
    base = cfg.normalized()
    out_dir = out_dir or cfg.out_dir
    for param, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError("grid", f"{param} must map to a non-empty list, got {values!r}")
        repeated = _repeated(values)
        if repeated:
            raise ConfigError("grid", f"{param} lists the value {repeated[0]!r} twice")
        if param not in KEYS:
            raise ConfigError(param, "sweep parameter not present in the config keys")
    rows = []
    for param, values in grid.items():
        for value in values:
            cell = _set_path(copy.deepcopy(base), param, value)
            cell_dir = os.path.join(out_dir, str(len(rows))) if out_dir else None
            row = {**dict.fromkeys(SWEEP_CSV_HEADER, ""), "param": param, "value": value,
                   "status": "error"}
            try:
                cell_cfg = parse_config(json.dumps(cell), given=_set_path({}, param, value))
                summary, _ = run_experiment(cell_cfg, out_dir=cell_dir)
                row.update(status="diverged" if summary["diverged"] else "ok",
                           final_loss=summary["final_loss"],
                           sim_time_s=summary["total_sim_time_s"],
                           sync_count=summary["sync_count"],
                           diverged=summary["diverged"])
            except (ConfigError, ValueError) as exc:
                if cell_dir:
                    os.makedirs(cell_dir, exist_ok=True)
                    with open(os.path.join(cell_dir, "error.txt"), "w") as fh:
                        fh.write(str(exc) + "\n")
            rows.append(row)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_CSV_HEADER)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def weighted_average_suboptimality(cfg: RunConfig, workers: int, seeds: list[int]) -> list[float]:
    """One theory-mode cell as one batched call: F(x_hat) - F(x*) per seed."""
    run = copy.deepcopy(cfg)
    run.workers = workers
    workload = run.workload_object()
    schedule = run.build_schedule(workload)
    result = run_training(workload, make_variant("palsgd_theory"), schedule, run.build_cluster(),
                          seeds)
    if result.diverged:
        raise RuntimeError(f"theory run diverged (workers={workers}, "
                           f"seed={seeds[result.divergence.replica]})")
    return workload.suboptimality(result.weighted_average)


def fit_loglog_slope(x_values, y_values) -> float:
    lx = np.log(np.asarray(x_values, dtype=float))
    ly = np.log(np.asarray(y_values, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def k1_scalar_oracle(hessian_diag, x0_offset, noise_sigma, schedule: Schedule):
    """Exact expected weighted-average suboptimality of one theory-mode worker.

    On the diagonal quadratic a step is a random linear map of the offsets
    from x*, so per coordinate the 3x3 second moment of (worker, global,
    x_hat) follows a closed recursion, independent of the trainer machinery:
    the averager update, then the step in expectation over the mixing coin
    (a DDP step with sync in warmup) plus its gradient noise, then at each
    sync the global model takes the worker's. A sequence of `noise_sigma`
    values gives a list from one recursion with a leading noise axis, each
    value bit-equal to the float that its float call returns.
    """
    a = np.asarray(hessian_diag, dtype=np.float64)
    sigmas = np.asarray(noise_sigma, dtype=np.float64)
    noise_var = np.atleast_1d(sigmas) ** 2 / float(np.sum(a * a))
    z0 = np.asarray(x0_offset, dtype=np.float64)
    moment = np.zeros((len(noise_var), a.shape[0], 3, 3))  # per sigma and coordinate
    moment[..., :2, :2] = (z0 * z0)[:, None, None]
    beta = schedule.alpha_eta / schedule.p
    mix = np.array([[1.0 - beta, beta, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    sync = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    grad = np.tile(np.eye(3), (a.shape[0], 1, 1))
    averager = np.eye(3)
    w, total_w = 1.0, 0.0
    warmup = schedule.effective_warmup
    for t in range(schedule.total_steps):
        total_w += w
        averager[2, 1:] = w / total_w, 1.0 - w / total_w
        moment = averager @ moment @ averager.T
        w *= schedule.iterate_weight_growth
        if w > 1e200:
            w *= 1e-200
            total_w *= 1e-200
        p = schedule.p if t >= warmup else 0.0
        lr_a = schedule.alpha_at(t) / (1.0 - p) * a
        grad[:, 0, 0] = 1.0 - lr_a
        stepped = grad @ moment @ grad.transpose(0, 2, 1)
        stepped[..., 0, 0] += lr_a * lr_a * noise_var[:, None]
        moment = (1.0 - p) * stepped + p * (mix @ moment @ mix.T)
        # the closing sync of a partial window comes after the last average
        if t < warmup or (t + 1) % schedule.sync_interval == 0:
            moment = sync @ moment @ sync.T
    values = [0.5 * float(np.sum(a * per_sigma[:, 2, 2])) for per_sigma in moment]
    return values if sigmas.ndim else values[0]


def _repeated(values) -> list:
    """The entries of the sequence `values` that an earlier entry equals."""
    return [v for i, v in enumerate(values) if v in values[:i]]


def verify_theory(cfg: RunConfig, out_dir: str | None = None,
                  k_values=(1, 2, 4, 8), n_seeds: int = 10,
                  h_values=(2, 4, 8), h_probe_steps: int = 512) -> dict:
    """Convergence-theory checks on the quadratic workload.

    Estimates the weighted-average suboptimality across worker counts and
    fits the log-log slope (linear speedup predicts about -1), probes the
    sync-interval sensitivity at a short horizon, and checks the
    single-worker mean against its exact value from ``k1_scalar_oracle``:
    ``k1_oracle.pass`` holds when the gap is within two standard errors of
    the trainer mean (``oracle_se`` is 0.0).

    Each (K, H) cell runs its ``n_seeds`` seeds as one ``run_training`` call
    with a replica axis; each replica is bit-identical to its seed's run
    alone. A diverged replica raises RuntimeError naming its K and seed.

    The rate has a bias term B from the initial offset, which K does not
    shrink, and a noise term V that falls as 1/K. B is the oracle's exact
    value with the noise off; V is the smallest K's mean minus B. The
    slope of B + V*k_min/k is reported as ``k_predicted_slope``. When it lies
    outside ``K_SLOPE_RANGE`` (bias hides the K-slope), or when the theory
    step size alpha (reported per K in ``k_alpha``) differs across K, the
    regime cannot test the claim: ``k_slope_pass`` is None and "k_slope" is
    listed in ``inconclusive``. ``pass`` is the AND of the conclusive checks
    only, so an inconclusive slope neither passes nor fails the suite.
    """
    if cfg.workload["kind"] != "quadratic":
        raise ConfigError("workload.kind", "verify-theory needs the quadratic workload")
    if n_seeds < 3:
        raise ConfigError("n_seeds", f"need at least 3 seeds to fit a slope, got {n_seeds}")
    if len(set(k_values)) < 2 or min(k_values) < 1:
        raise ConfigError("k_values", "need at least two distinct worker counts >= 1 to "
                                      f"fit a slope, got {list(k_values)}")
    if any(h < 1 for h in h_values):
        raise ConfigError("h_values", f"sync intervals must be >= 1, got {list(h_values)}")
    for name, values in (("k_values", k_values), ("h_values", h_values)):
        repeated = _repeated(values)
        if repeated:
            raise ConfigError(name, f"lists the value {repeated[0]!r} twice, got {list(values)}")
    if h_probe_steps < 1:
        raise ConfigError("h_probe_steps", f"must be >= 1, got {h_probe_steps}")
    if cfg.algo["variant"] != "palsgd_theory":
        raise ConfigError("algo.variant", "verify-theory needs the palsgd_theory variant")
    base_seed = cfg.seed
    report: dict = {"k_values": list(k_values), "n_seeds": n_seeds}
    workload = cfg.workload_object()
    schedules = {}
    for k in k_values:
        at_k = copy.copy(cfg)
        at_k.workers = k
        schedules[k] = at_k.build_schedule(workload)

    seeds = [base_seed + s for s in range(n_seeds)]
    per_k = {k: weighted_average_suboptimality(cfg, k, seeds) for k in k_values}
    means = [float(np.mean(per_k[k])) for k in k_values]
    slope = fit_loglog_slope(k_values, means)
    k_min = min(k_values)
    offset = workload.x0 - workload.x_star
    # the noiseless bias and, when 1 in k_values (so k_min = 1), the K=1 mean
    sigmas = [0.0, workload.noise_sigma] if 1 in k_values else [0.0]
    exact = k1_scalar_oracle(workload.hessian_diag, offset, sigmas, schedules[k_min])
    bias = exact[0]
    variance = means[k_values.index(k_min)] - bias
    predicted = fit_loglog_slope(k_values, [bias + variance * k_min / k for k in k_values])
    alphas = {str(k): schedules[k].alpha for k in k_values}
    low, high = K_SLOPE_RANGE
    conclusive = low <= predicted <= high and len(set(alphas.values())) == 1
    report["k_mean_suboptimality"] = dict(zip((str(k) for k in k_values), means))
    report["k_alpha"] = alphas
    report["k_bias"] = bias
    report["k_variance"] = variance
    report["k_predicted_slope"] = predicted
    report["k_slope"] = slope
    report["k_slope_range"] = list(K_SLOPE_RANGE)
    report["k_slope_pass"] = (low <= slope <= high) if conclusive else None
    report["inconclusive"] = [] if conclusive else ["k_slope"]

    if 1 in k_values:
        impl_vals = np.asarray(per_k[1])
        impl_mean = float(impl_vals.mean())
        impl_se = float(impl_vals.std(ddof=1) / math.sqrt(len(impl_vals)))
        oracle_mean = exact[1]
        gap = abs(impl_mean - oracle_mean)
        bound = 2.0 * impl_se
        report["k1_oracle"] = {
            "impl_mean": impl_mean, "impl_se": impl_se,
            "oracle_mean": oracle_mean, "oracle_se": 0.0,
            "gap": gap, "two_se_bound": bound, "pass": gap <= bound,
        }

    h_means = {}
    for h in h_values:
        hcfg = copy.deepcopy(cfg)
        hcfg.schedule["sync_interval"] = h
        hcfg.schedule["total_steps"] = h_probe_steps
        vals = weighted_average_suboptimality(hcfg, cfg.workers,
                                              [base_seed + 500 + s for s in range(n_seeds)])
        h_means[str(h)] = float(np.mean(vals))
    report["h_probe_steps"] = h_probe_steps
    report["h_mean_suboptimality"] = h_means

    checks = [report["k_slope_pass"]] if conclusive else []
    if "k1_oracle" in report:
        checks.append(report["k1_oracle"]["pass"])
    report["pass"] = all(checks)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "theory_report.json"), "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report


# a float32 gradient's largest gap to its float64 twin's, over the twin's
# largest entry: 64 float32 eps (at most 22 measured, widths up to [64, 128, 10])
FLOAT32_GAP = 64 * float(np.finfo(np.float32).eps)
# gradcheck bounds an entry's |analytic - numeric| by GRADCHECK_RTOL (|analytic| +
# |numeric|) plus ROUNDING |f(x)| / step, 8 times the scale of the difference's
# rounding error eps |f(x)| / step (at most 0.74 of it measured past the relative
# term: logistic, and mlp widths up to [32, 64, 10] under tanh and relu)
GRADCHECK_RTOL, ROUNDING = 1e-4, 8 * float(np.finfo(np.float64).eps)
GRADCHECK_STEP, GRADCHECK_SEED = 1e-5, 99  # the central difference's step; the data's seed


def central_difference_gradient(loss_fn, x: np.ndarray, step: float = GRADCHECK_STEP) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss_fn(hi) - loss_fn(lo)) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    # below rtol iff every entry's |a - n| is below rtol * (|a| + |n| + floor)
    denom = np.abs(analytic) + np.abs(numeric) + floor
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(cfg: RunConfig | None = None, probes: int = 10) -> dict:
    """Analytic vs central-difference gradients for the data workloads.

    ``max_relative_error`` is below GRADCHECK_RTOL iff every entry is within
    its bound. A central difference cannot resolve a float32 loss, so a float32 mlp is
    checked through its float64 twin: the twin's gradient against the
    central difference, and the float32 gradient against the twin's, within
    ``FLOAT32_GAP`` of the twin's largest entry (``float64_gap``)."""
    results = {}
    data2 = generate_synthetic_classification(2, 6, 20, GRADCHECK_SEED)
    logistic = LogisticWorkload(data2, l2_reg=0.05, batch_size=5)
    data10 = generate_synthetic_classification(5, 6, 12, GRADCHECK_SEED + 1)
    mlp = MlpWorkload([6, 9, 5], "tanh", data10, batch_size=6)
    if cfg is not None and cfg.workload["kind"] in ("logistic", "mlp"):
        built = cfg.workload_object()
        if cfg.workload["kind"] == "logistic":
            logistic = built
        else:
            mlp = built
    for name, workload in (("logistic", logistic), ("mlp", mlp)):
        twin = dataclasses.replace(workload, dtype="float64") if name == "mlp" else workload
        worst = gap = 0.0
        init_stream = RngStream(GRADCHECK_SEED, 0, PURPOSE_INIT)
        # one worker's data draws, as the trainer makes them
        sampler = workload.sampler(1, [GRADCHECK_SEED])
        for probe in range(probes):
            x = workload.init_params(init_stream)
            x = x + init_stream.gaussian_vector(x.shape[0], 0.3)
            idx = workload.draw_sample(sampler, np.ones(1, dtype=bool))[0]
            analytic = twin.stochastic_gradient(x[None], [idx])[0]
            numeric = central_difference_gradient(lambda v: twin.batch_objective(v, idx), x)
            floor = ROUNDING * abs(twin.batch_objective(x, idx)) / GRADCHECK_STEP / GRADCHECK_RTOL
            worst = max(worst, max_relative_error(analytic, numeric, floor))
            own = workload.stochastic_gradient(x[None], [idx])[0]
            gap = max(gap, float(np.max(np.abs(own - analytic)) / np.max(np.abs(analytic))))
        results[name] = {"max_relative_error": worst, "float64_gap": gap, "probes": probes,
                         "pass": worst < GRADCHECK_RTOL and gap <= FLOAT32_GAP}
    results["pass"] = all(results[n]["pass"] for n in ("logistic", "mlp"))
    return results
