"""Experiment execution: single runs, one-at-a-time parameter sweeps,
theory verification with convergence-slope fitting, and gradient checks."""

from __future__ import annotations

import copy
import csv
import json
import math
import os

import numpy as np

from .algorithms import VARIANTS, make_variant, run_training
from .cluster import export_events_jsonl
from .config import ConfigError, RunConfig, parse_config
from .metrics import summarize, write_metrics_jsonl, write_summary
from .vecmath import PURPOSE_DATA, PURPOSE_INIT, RngStream
from .workloads import (LogisticWorkload, MlpWorkload,
                        generate_synthetic_classification)

SWEEP_CSV_HEADER = ["param", "value", "status", "final_loss", "sim_time_s", "sync_count",
                    "diverged"]


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
        write_metrics_jsonl(result.diagnostics.records, os.path.join(target, "metrics.jsonl"))
        write_summary(summary, os.path.join(target, "summary.json"))
        export_events_jsonl(result.events, os.path.join(target, "events.jsonl"))
    return summary, result


def _set_path(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise KeyError(dotted)
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise KeyError(dotted)
    node[keys[-1]] = value


def sweep(cfg: RunConfig, grid: dict[str, list], out_dir: str | None = None) -> list[dict]:
    """One run per (parameter, value), each varied alone against the base config.

    Returns the comparison rows and, when out_dir is given, writes
    ``sweep.csv`` plus one run directory per cell, ``<out_dir>/<i>``, where i
    is the cell's 0-based row in ``sweep.csv``. Each row's ``status`` is
    "ok", "diverged" or "error". A cell whose config is rejected or whose run
    raises is recorded as "error" with its result columns (``diverged``
    included) left empty and the message in the cell's ``error.txt``, and the
    sweep continues. A grid that is not an object mapping each path to a
    non-empty list of distinct values raises ConfigError("grid", ...).

    A cell that sets ``algo.variant`` re-derives what the ``VARIANTS`` table
    says the variant owns: it drops the sections the variant pins and the
    keys it derives, and sets p to 0 if the variant does not mix. It keeps
    the base's inner optimizer (unless pinned) and, if the variant mixes, p.
    """
    if not isinstance(grid, dict):
        raise ConfigError("grid", f"must map parameter paths to value lists, got {grid!r}")
    base = cfg.normalized()
    for param, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError("grid", f"{param} must map to a non-empty list, got {values!r}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError("grid", f"{param} lists the value {repeated[0]!r} twice")
        probe = copy.deepcopy(base)
        try:
            _set_path(probe, param, values[0])
        except KeyError:
            raise ConfigError(param, "sweep parameter not present in the config")
    rows = []
    for param, values in grid.items():
        for value in values:
            cell = copy.deepcopy(base)
            _set_path(cell, param, value)
            # an unknown tag, a list included, is left for the parser to reject
            rules = VARIANTS.get(value) if param == "algo.variant" and isinstance(value, str) else None
            if rules is not None:
                for section, keys in (("algo", rules.pinned), ("schedule", rules.derived)):
                    for key in keys:
                        cell[section].pop(key, None)
                if not rules.mixes:
                    cell["schedule"]["p"] = 0.0
            cell_dir = os.path.join(out_dir, str(len(rows))) if out_dir else None
            row = {**dict.fromkeys(SWEEP_CSV_HEADER, ""), "param": param, "value": value,
                   "status": "error"}
            try:
                cell_cfg = parse_config(json.dumps(cell))
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
    return [workload.suboptimality(x_hat) for x_hat in result.weighted_average]


def fit_loglog_slope(x_values, y_values) -> float:
    lx = np.log(np.asarray(x_values, dtype=float))
    ly = np.log(np.asarray(y_values, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def k1_scalar_oracle(hessian_diag, x0_offset, noise_sigma: float, p: float,
                     sync_interval: int, total_steps: int, alpha: float,
                     alpha_eta: float, n_runs: int, seed: int,
                     weight_growth: float) -> tuple[float, float]:
    """Single-worker Monte Carlo oracle, written as a bare per-coordinate
    recursion on plain numpy RNG, independent of the trainer machinery.

    Returns (mean, standard error) of the weighted-average suboptimality.
    """
    a_diag = np.asarray(hessian_diag, dtype=np.float64)
    dim = a_diag.shape[0]
    noise_scale = noise_sigma / math.sqrt(float(np.sum(a_diag ** 2))) if noise_sigma > 0 else 0.0
    beta = alpha_eta / p
    lr = alpha / (1.0 - p)
    rng = np.random.default_rng(seed)
    subopts = np.empty(n_runs)
    for run in range(n_runs):
        z = np.asarray(x0_offset, dtype=np.float64).copy()  # x - x*
        anchor = z.copy()
        global_z = z.copy()
        xhat = np.zeros(dim)
        w, total_w = 1.0, 0.0
        for t in range(total_steps):
            total_w += w
            xhat += (w / total_w) * (global_z - xhat)
            w *= weight_growth
            if w > 1e200:
                w *= 1e-200
                total_w *= 1e-200
            if rng.random() <= p:
                z = z - beta * (z - anchor)
            else:
                xi = rng.normal(0.0, noise_scale, size=dim) if noise_scale > 0 else 0.0
                z = z - lr * a_diag * (z - xi)
            if (t + 1) % sync_interval == 0 or t == total_steps - 1:
                global_z = z.copy()
                anchor = z.copy()
        subopts[run] = 0.5 * float(np.sum(a_diag * xhat * xhat))
    return float(subopts.mean()), float(subopts.std(ddof=1) / math.sqrt(n_runs))


def verify_theory(cfg: RunConfig, out_dir: str | None = None,
                  k_values=(1, 2, 4, 8), n_seeds: int = 10,
                  h_values=(2, 4, 8), h_probe_steps: int = 512,
                  slope_range=(-1.15, -0.7)) -> dict:
    """Convergence-theory checks on the quadratic workload.

    Estimates the weighted-average suboptimality across worker counts and
    fits the log-log slope (linear speedup predicts about -1), probes the
    sync-interval sensitivity at a short horizon, and cross-checks the
    single-worker case against the independent scalar-recursion oracle.

    Each (K, H) cell runs its ``n_seeds`` seeds as one ``run_training`` call
    with a replica axis; each replica is bit-identical to its seed's run
    alone. A diverged replica raises RuntimeError naming its K and seed.

    The rate has a bias term B from the initial offset, which K does not
    shrink, and a noise term V that falls as 1/K. B is measured by the
    noiseless scalar recursion; V is the smallest K's mean minus B. The
    slope of B + V*k_min/k is reported as ``k_predicted_slope``. When it lies
    outside ``slope_range`` (bias hides the K-slope), or when the theory
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

    def scalar_oracle(sched, noise_sigma, n_runs, seed):
        return k1_scalar_oracle(
            workload.hessian_diag, workload.x0 - workload.x_star, noise_sigma,
            sched.p, sched.sync_interval, sched.total_steps, sched.alpha,
            sched.alpha_eta, n_runs=n_runs, seed=seed,
            weight_growth=sched.iterate_weight_growth)

    seeds = [base_seed + s for s in range(n_seeds)]
    per_k = {k: weighted_average_suboptimality(cfg, k, seeds) for k in k_values}
    means = [float(np.mean(per_k[k])) for k in k_values]
    slope = fit_loglog_slope(k_values, means)
    k_min = min(k_values)
    # noiseless runs differ only in their Bernoulli draws, so a few suffice
    bias, _ = scalar_oracle(schedules[k_min], 0.0, n_runs=8, seed=base_seed + 1553)
    variance = means[k_values.index(k_min)] - bias
    predicted = fit_loglog_slope(k_values, [bias + variance * k_min / k for k in k_values])
    alphas = {str(k): schedules[k].alpha for k in k_values}
    conclusive = (slope_range[0] <= predicted <= slope_range[1]
                  and len(set(alphas.values())) == 1)
    report["k_mean_suboptimality"] = dict(zip((str(k) for k in k_values), means))
    report["k_alpha"] = alphas
    report["k_bias"] = bias
    report["k_variance"] = variance
    report["k_predicted_slope"] = predicted
    report["k_slope"] = slope
    report["k_slope_range"] = list(slope_range)
    report["k_slope_pass"] = (slope_range[0] <= slope <= slope_range[1]) if conclusive else None
    report["inconclusive"] = [] if conclusive else ["k_slope"]

    if 1 in k_values:
        impl_vals = np.asarray(per_k[1])
        impl_mean = float(impl_vals.mean())
        impl_se = float(impl_vals.std(ddof=1) / math.sqrt(len(impl_vals)))
        oracle_mean, oracle_se = scalar_oracle(
            schedules[1], workload.noise_sigma, n_runs=max(4 * n_seeds, 32),
            seed=base_seed + 977)
        gap = abs(impl_mean - oracle_mean)
        bound = 2.0 * math.sqrt(impl_se ** 2 + oracle_se ** 2)
        report["k1_oracle"] = {
            "impl_mean": impl_mean, "impl_se": impl_se,
            "oracle_mean": oracle_mean, "oracle_se": oracle_se,
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


def central_difference_gradient(loss_fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (loss_fn(hi) - loss_fn(lo)) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    # floor absorbs central-difference noise (~1e-11) on near-zero coordinates
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(cfg: RunConfig | None = None, probes: int = 10, step: float = 1e-5,
              seed: int = 99) -> dict:
    """Analytic vs central-difference gradients for the data workloads."""
    results = {}
    data2 = generate_synthetic_classification(2, 6, 20, seed)
    logistic = LogisticWorkload(data2, l2_reg=0.05, batch_size=5)
    data10 = generate_synthetic_classification(5, 6, 12, seed + 1)
    mlp = MlpWorkload([6, 9, 5], "tanh", data10, batch_size=6)
    if cfg is not None and cfg.workload["kind"] in ("logistic", "mlp"):
        built = cfg.workload_object()
        if cfg.workload["kind"] == "logistic":
            logistic = built
        else:
            mlp = built
    for name, workload in (("logistic", logistic), ("mlp", mlp)):
        worst = 0.0
        init_stream = RngStream(seed, 0, PURPOSE_INIT)
        data_stream = RngStream(seed, 0, PURPOSE_DATA)
        shards = workload.shards(1, seed)
        for probe in range(probes):
            x = workload.init_params(init_stream)
            x = x + data_stream.gaussian_vector(x.shape[0], 0.3)
            idx = workload.draw_sample(data_stream, shards, [0])[0]
            analytic = workload.stochastic_gradient(x[None], [idx])[0]
            numeric = central_difference_gradient(
                lambda v: workload.batch_objective(v, idx), x, step)
            worst = max(worst, max_relative_error(analytic, numeric))
        results[name] = {"max_relative_error": worst, "pass": worst < 1e-4, "probes": probes}
    results["pass"] = all(results[n]["pass"] for n in ("logistic", "mlp"))
    return results
