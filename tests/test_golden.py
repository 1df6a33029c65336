"""Golden artifact corpus: whole-run artifacts against recorded SHA-256 hashes.

Each case runs one small config through a public entry point
(`run_experiment`, `sweep`, `verify_theory`, or a batched `run_training`)
and hashes what it writes: every file under its output directory, by
relative path, or for the batched run each record column's bytes. The
hashes live in `golden.json` beside this module, with the Python and numpy
versions they were recorded under. A mismatch names its case and file.

Between them the cases cover every variant and both outer optimizers,
jitter with a straggler's `worker_multipliers`, warmup off the H grid and an
off-grid `metrics_every`, a run across the coins' 1024-step chunk, the mlp
with `eval_every`, relu, float32 and epoch_shuffle, unequal shards (4 098
samples over 32 workers), `warmup_cosine`, `sgd_momentum` and
`reset_at_sync`, adamw's weight decay under the clip, a batched S = 3 run,
a batched S = 2 DDP run on unequal with_replacement shards, a diverging
run, a two-cell sweep and a tiny `verify_theory`. The four bench configs at seed 5 are copied as
literals from `bench/run.py`; their hashes equal the bench's
`--seconds 0` hashes at seed 5 (`BENCH_25.json`, `artifacts_seconds_0`).

Other versions: numpy's generators and float kernels may round differently
on another build, so the hashes hold only under the recorded versions. On
any other Python or numpy version every case is skipped, with a reason that
names both version pairs; it never passes silently. A change that moves a
hash on purpose re-records the file and says which hashes moved and why:

    PYTHONPATH=src python3 tests/test_golden.py

re-runs every case and rewrites `golden.json`. Tier-1 never records.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from palsgd.algorithms import RECORD_COLUMNS, run_training
from palsgd.config import parse_config
from palsgd.experiments import run_experiment, sweep, verify_theory

GOLDEN = Path(__file__).with_name("golden.json")

THEORY_FIXTURE = {
    "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 2.0,
                 "noise_sigma": 1.0, "x0_offset": 0.05},
    "algo": {"variant": "palsgd_theory"},
    "schedule": {"p": 0.5, "sync_interval": 4, "total_steps": 600},
    "workers": 2}

# name -> (entry point, config, the entry point's other arguments)
CASES = {
    "quad-palsgd-k32 seed 5": ("run", {
        "workload": {"kind": "quadratic", "dim": 64, "mu": 1.0, "L": 4.0, "noise_sigma": 1.0},
        "algo": {"variant": "palsgd"},
        "schedule": {"p": 0.1, "sync_interval": 16, "total_steps": 500},
        "workers": 32, "seed": 5}, {}),
    "mlp-palsgd-k8 seed 5": ("run", {
        "workload": {"kind": "mlp", "widths": [16, 32, 10], "activation": "tanh", "batch_size": 8},
        "algo": {"variant": "palsgd"},
        "schedule": {"p": 0.1, "sync_interval": 32, "total_steps": 384},
        "workers": 8, "seed": 5, "eval_every": 32}, {}),
    "logistic-ddp-k32 seed 5": ("run", {
        "workload": {"kind": "logistic", "dim": 32, "n_samples": 4096, "batch_size": 16},
        "algo": {"variant": "ddp"},
        "schedule": {"total_steps": 320},
        "workers": 32, "seed": 5}, {}),
    "theory-suite seed 5": ("theory", {**THEORY_FIXTURE, "seed": 5},
                            {"k_values": (1, 2, 4, 8), "n_seeds": 10, "h_values": (2, 4, 8),
                             "h_probe_steps": 512}),
    # 1 084 local steps after the warmup, 10 rounded up to 16, cross the coins' chunk at 1 024
    "palsgd quadratic straggler": ("run", {
        "workload": {"kind": "quadratic", "dim": 3, "mu": 1.0, "L": 4.0, "noise_sigma": 0.5},
        "algo": {"variant": "palsgd"},
        "schedule": {"alpha": 0.02, "p": 0.3, "sync_interval": 8, "warmup_steps": 10,
                     "total_steps": 1100},
        "cluster": {"jitter": 0.1, "worker_multipliers": [1.0, 1.0, 1.0, 2.5]},
        "workers": 4, "seed": 3, "metrics_every": 7}, {}),
    "palsgd mlp relu float32 epoch_shuffle straggler": ("run", {
        "workload": {"kind": "mlp", "widths": [6, 12, 4], "activation": "relu",
                     "dtype": "float32", "draw_policy": "epoch_shuffle", "batch_size": 5,
                     "samples_per_class": 20, "test_samples_per_class": 5},
        "algo": {"variant": "palsgd"},
        "schedule": {"alpha": 0.05, "p": 0.2, "sync_interval": 8, "total_steps": 120},
        "cluster": {"jitter": 0.05, "worker_multipliers": [1.0, 2.0, 1.0, 1.0]},
        "workers": 4, "seed": 11, "eval_every": 25}, {}),
    "local_sgd logistic unequal shards": ("run", {
        "workload": {"kind": "logistic", "dim": 8, "n_samples": 4098, "batch_size": 4},
        "algo": {"variant": "local_sgd"},
        "schedule": {"alpha": 0.1, "sync_interval": 8, "total_steps": 64},
        "workers": 32, "seed": 2}, {}),
    "diloco quadratic": ("run", {
        "workload": {"kind": "quadratic", "dim": 8, "mu": 0.5, "L": 3.0},
        "algo": {"variant": "diloco"},
        "schedule": {"alpha": 0.05, "sync_interval": 16, "total_steps": 160},
        "workers": 4, "seed": 7}, {}),
    "palsgd warmup_cosine sgd_momentum reset_at_sync": ("run", {
        "workload": {"kind": "quadratic", "dim": 5, "mu": 1.0, "L": 2.0},
        "algo": {"variant": "palsgd",
                 "inner": {"variant": "sgd_momentum", "momentum": 0.8, "reset_at_sync": True},
                 "outer": {"variant": "sgd", "lr": 0.8}},
        "schedule": {"alpha": 0.05, "p": 0.2, "sync_interval": 10, "total_steps": 200,
                     "lr_schedule": "warmup_cosine", "lr_warmup_steps": 20},
        "workers": 3, "seed": 4}, {}),
    # AdamW's decoupled weight decay under the preset clip: about half the steps clip a row
    "palsgd adamw weight_decay clip": ("run", {
        "workload": {"kind": "quadratic", "dim": 6, "mu": 1.0, "L": 4.0, "noise_sigma": 0.5,
                     "x0_offset": 0.3},
        "algo": {"variant": "palsgd", "inner": {"weight_decay": 0.1}},
        "schedule": {"alpha": 0.05, "p": 0.2, "sync_interval": 8, "total_steps": 120},
        "workers": 4, "seed": 6}, {}),
    "palsgd_theory batched S=3": ("batched", {**THEORY_FIXTURE, "seed": 0, "metrics_every": 9},
                                  {"seeds": [5, 6, 7]}),
    # replicas of unequal with_replacement shards: 1 030 samples over 8 workers per replica
    "ddp logistic unequal shards batched S=2": ("batched", {
        "workload": {"kind": "logistic", "dim": 6, "n_samples": 1030, "batch_size": 3},
        "algo": {"variant": "ddp"},
        "schedule": {"alpha": 0.1, "total_steps": 90},
        "workers": 8, "seed": 0, "metrics_every": 4}, {"seeds": [2, 9]}),
    "palsgd diverging": ("run", {
        "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 4.0},
        "algo": {"variant": "palsgd", "inner": {"variant": "sgd", "clip_norm": None}},
        "schedule": {"alpha": 1e9, "p": 0.1, "sync_interval": 8, "total_steps": 64},
        "workers": 2, "seed": 5}, {}),
    "local_sgd quadratic two-cell sweep": ("sweep", {
        "workload": {"kind": "quadratic", "dim": 4, "mu": 1.0, "L": 4.0},
        "algo": {"variant": "local_sgd"},
        "schedule": {"alpha": 0.05, "sync_interval": 4, "total_steps": 48},
        "workers": 3, "seed": 8}, {"grid": {"schedule.sync_interval": [4, 12]}}),
    "tiny verify_theory": ("theory", {**THEORY_FIXTURE, "seed": 1},
                           {"k_values": (1, 2), "n_seeds": 3, "h_values": (2,),
                            "h_probe_steps": 32}),
}
# the warnings that a diverging run's overflow raises
DIVERGING = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                       "ignore:invalid value:RuntimeWarning")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, out_dir: Path) -> dict[str, str]:
    """Run case `name` with its artifacts under `out_dir`; the hash of each
    written file by relative path, or of each batched record column."""
    entry, config, args = CASES[name]
    cfg = parse_config(json.dumps(config))
    if entry == "batched":
        result = run_training(cfg.workload_object(), cfg.build_variant(),
                              cfg.build_schedule(cfg.workload_object()), cfg.build_cluster(),
                              args["seeds"], record_every=cfg.metrics_every)
        return {f"columns/{column}": sha256(result.diagnostics.columns[column].tobytes())
                for column in RECORD_COLUMNS}
    if entry == "run":
        run_experiment(cfg, out_dir=str(out_dir))
    elif entry == "sweep":
        sweep(cfg, args["grid"], out_dir=str(out_dir))
    else:
        verify_theory(cfg, out_dir=str(out_dir), **args)
    return {path.relative_to(out_dir).as_posix(): sha256(path.read_bytes())
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


@pytest.mark.parametrize("name", [pytest.param(name, marks=DIVERGING) if "diverging" in name
                                  else name for name in CASES])
def test_artifacts_match_the_recorded_hashes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = versions()
    if here != {key: golden[key] for key in here}:
        pytest.skip(f"hashes recorded under Python {golden['python']} / numpy "
                    f"{golden['numpy']}, not this Python {here['python']} / numpy {here['numpy']}")
    want = golden["sha256"][name]
    got = run_case(name, tmp_path)
    assert got.keys() == want.keys(), name
    moved = [path for path in want if got[path] != want[path]]
    assert not moved, f"{name}: {moved}"


def test_every_case_is_recorded():
    assert set(json.loads(GOLDEN.read_text())["sha256"]) == set(CASES)


def record() -> None:
    """Re-run every case and rewrite golden.json under this Python and numpy."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(CASES):
            with np.errstate(over="ignore", invalid="ignore"):
                hashes[name] = run_case(name, Path(tmp) / str(i))
    GOLDEN.write_text(json.dumps({**versions(), "sha256": hashes}, indent=1) + "\n")
    print(f"recorded {len(hashes)} cases into {GOLDEN.name}", file=sys.stderr)


if __name__ == "__main__":
    record()
