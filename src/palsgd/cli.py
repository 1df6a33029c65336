"""Command-line entry points.

    palsgd run <config.json> [--seed N] [--out-dir DIR] [--metrics-every N]
    palsgd sweep <config.json> --grid <grid.json> [--seed N] [--out-dir DIR] [--metrics-every N]
    palsgd verify-theory <config.json> [--seed N] [--out-dir DIR] [--seeds N] [--k-values 1,2,4,8]
    palsgd gradcheck <config.json>

``run`` exits 0 on completion and 3 when the run diverged; config errors, and
flags the command does not take, exit 2. ``verify-theory`` and ``gradcheck``
exit 4 when a check fails.

``verify-theory`` fits the log-log slope of suboptimality against the worker
count K (``--k-values`` needs two or more distinct counts >= 1). It also splits
the error into a bias term, from the initial offset and not shrunk by K, and
a noise term that falls as 1/K, and predicts the slope from them. When the
predicted slope lies outside the accepted range (bias hides the K-slope), or
the theory step size differs across K, the report lists "k_slope" under
``inconclusive`` with ``k_slope_pass`` null; ``pass`` and the exit code then
rest on the remaining checks.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import TOP_KEYS, ConfigError, load_config
from .experiments import gradcheck, run_experiment, sweep, verify_theory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_FAILED_CHECK = 4


_OVERRIDES = {
    "--seed": dict(type=int, help="override config seed"),
    "--out-dir": dict(help="override config output directory"),
    "--metrics-every": dict(type=int, help="also record every N steps (default: after each all-reduce)"),
}


def _add_common(parser: argparse.ArgumentParser, *overrides: str) -> None:
    parser.add_argument("config", help="path to the run config JSON")
    for flag in overrides:
        parser.add_argument(flag, default=None, **_OVERRIDES[flag])


def _load(args) -> "RunConfig":
    """The config file's run config with the flags' overrides, each checked
    against the bound of the key it replaces."""
    cfg = load_config(args.config)
    for name in ("seed", "metrics_every", "out_dir"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, TOP_KEYS[name].check(name, value))
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="palsgd",
                                     description="Deterministic distributed-training simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configured run")
    _add_common(run_p, *_OVERRIDES)

    sweep_p = sub.add_parser("sweep", help="one-at-a-time parameter sweep")
    _add_common(sweep_p, *_OVERRIDES)
    sweep_p.add_argument("--grid", required=True, help="JSON file mapping dotted parameter paths to value lists")

    verify_p = sub.add_parser("verify-theory", help="convergence-theory verification suite")
    _add_common(verify_p, "--seed", "--out-dir")
    verify_p.add_argument("--seeds", type=int, default=10, help="seeds per worker count")
    verify_p.add_argument("--k-values", default="1,2,4,8", help="comma-separated worker counts")

    grad_p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    _add_common(grad_p)

    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            summary, _ = run_experiment(cfg)
            print(json.dumps(summary, sort_keys=True, indent=2))
            return EXIT_DIVERGED if summary["diverged"] else EXIT_OK

        if args.command == "sweep":
            try:
                with open(args.grid) as fh:
                    grid = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError("grid", str(exc)) from None
            rows = sweep(cfg, grid, out_dir=cfg.out_dir)
            for row in rows:
                print(f"{row['param']}={row['value']}: status={row['status']} "
                      f"final_loss={row['final_loss']} "
                      f"sim_time_s={row['sim_time_s']} sync_count={row['sync_count']} "
                      f"diverged={row['diverged']}")
            return EXIT_OK

        if args.command == "verify-theory":
            try:
                k_values = tuple(int(v) for v in args.k_values.split(","))
            except ValueError:
                raise ConfigError("k_values", "expected comma-separated integers, "
                                              f"got {args.k_values!r}") from None
            report = verify_theory(cfg, out_dir=cfg.out_dir, k_values=k_values,
                                   n_seeds=args.seeds)
            print(json.dumps(report, sort_keys=True, indent=2))
            return EXIT_OK if report["pass"] else EXIT_FAILED_CHECK

        report = gradcheck(cfg)
        print(json.dumps(report, sort_keys=True, indent=2))
        return EXIT_OK if report["pass"] else EXIT_FAILED_CHECK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
