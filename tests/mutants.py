"""A table of code mutants and the tier-1 tests that must kill them.

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py NAME ...   # the named rows

Run from the repository root, by hand: each row re-runs tests, so tier-1
does not run this file, and pytest does not collect it (its name does not
match test_*.py). A row names one fault as an exact old -> new text in one
file. For each row the script copies src/, tests/ and pyproject.toml into a
temporary directory, applies the substitution there (never in the working
tree) and runs the row's node ids with pytest. A row is killed when every
one of its node ids has a failing test; a node id may name a whole file or
class, and a file that fails to collect fails every test in it. The script
prints killed or survived per row and exits 1 when a row survives. A row
whose old text is not in its file exactly once is an error, and the script
exits 2: the code has moved, and the row must follow it. Tier-1 checks that
rule alone, without running a row (test_mutant_table.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/test_golden.py::test_artifacts_match_the_recorded_hashes"
MLP_GRADIENT = "tests/test_mlp_buffers.py::TestMlpBuffers::test_gradient_equals_the_reference"
ADAMW = "tests/test_optimizers.py::TestInnerAdamw"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the repository root
    old: str
    new: str
    tests: tuple       # node ids, each of which must fail


MUTANTS = (
    Mutant("relu derivative true at the kink",
           "src/palsgd/workloads.py",
           "(lambda a: np.greater(a, 0.0, out=a))",
           "(lambda a: np.greater_equal(a, 0.0, out=a))",
           (MLP_GRADIENT, f"{GOLDEN}[palsgd mlp relu float32 epoch_shuffle straggler]")),
    Mutant("layer gradient written through a copy of its view",
           "src/palsgd/workloads.py",
           "np.matmul(acts[i].transpose(0, 2, 1), delta, out=gw)",
           "np.matmul(acts[i].transpose(0, 2, 1), delta, out=gw.copy())",
           (MLP_GRADIENT, f"{GOLDEN}[mlp-palsgd-k8 seed 5]")),
    Mutant("weight and bias offsets swapped",
           "src/palsgd/workloads.py",
           "            w = x[:, off:off + a * c].reshape(-1, a, c)\n"
           "            off += a * c\n"
           "            bias = x[:, None, off:off + c]\n"
           "            off += c\n",
           "            bias = x[:, None, off:off + c]\n"
           "            off += c\n"
           "            w = x[:, off:off + a * c].reshape(-1, a, c)\n"
           "            off += a * c\n",
           (MLP_GRADIENT, "tests/test_mlp_buffers.py::TestMlpBuffers::test_objectives_equal_the_reference",
            f"{GOLDEN}[mlp-palsgd-k8 seed 5]")),
    Mutant("zeroed bias gradient",
           "src/palsgd/workloads.py",
           "np.add.reduce(delta, axis=1, keepdims=True, out=gb)",
           "gb.fill(0.0)",
           (MLP_GRADIENT, "tests/test_workloads.py::TestMlp::test_gradient_matches_finite_differences",
            f"{GOLDEN}[mlp-palsgd-k8 seed 5]")),
    Mutant("every epoch_shuffle shard advanced",
           "src/palsgd/workloads.py",
           "for k in np.flatnonzero(mask):",
           "for k in range(len(mask)):",
           ("tests/test_workloads.py::TestSharding::test_epoch_shuffle_mask_draw_moves_only_the_masked_shards",
            f"{GOLDEN}[palsgd mlp relu float32 epoch_shuffle straggler]")),
    Mutant("(a * b).sum suboptimality",
           "src/palsgd/workloads.py",
           "dots = np.matmul((d * self.hessian_diag)[..., None, :], d[..., :, None])[..., 0, 0]",
           "dots = ((d * self.hessian_diag) * d).sum(axis=-1)",
           ("tests/test_reductions.py::TestDotKernels::test_suboptimality_is_a_dot_product",
            "tests/test_workloads.py::TestQuadratic::test_stacked_suboptimality_equals_each_row",
            f"{GOLDEN}[quad-palsgd-k32 seed 5]")),
    Mutant("metrics writer formats floats with %r",
           "src/palsgd/metrics.py",
           'yield encode(obj) + "\\n"',
           "yield \"{\" + \", \".join(f'\"{k}\": {v!r}' for k, v in obj.items()) + \"}\\n\"",
           ("tests/test_config_metrics.py::TestMetricsRoundTrip::test_special_floats_write_the_reference_bytes",
            f"{GOLDEN}[palsgd diverging]")),
    Mutant("events writer formats floats with %r",
           "src/palsgd/cluster.py",
           'encode(obj)[1:] + "\\n"',
           "\", \".join(f'\"{k}\": {v!r}' for k, v in obj.items()) + \"}\\n\"",
           ("tests/test_cluster.py::TestEventExport::test_each_line_is_json_dumps_of_its_event",)),
    Mutant("chunk draws read replica-major",
           "src/palsgd/vecmath.py",
           "self.fill(stream, shape).transpose(1, 0, 2)",
           "self.fill(stream, shape).reshape(self.steps, shape[0], shape[2])",
           ("tests/test_algorithms.py::TestBlockDraws::test_coin_masks_are_the_bernoulli_chunks_compared_with_p",
            GOLDEN)),
    Mutant("adam bias correction one step late",
           "src/palsgd/optimizers.py",
           "counts = state.step + 1",
           "counts = state.step + 2",
           (f"{ADAMW}::test_update_matches_independent_recomputation",
            f"{GOLDEN}[quad-palsgd-k32 seed 5]")),
    Mutant("adam eps added inside the sqrt",
           "src/palsgd/optimizers.py",
           "    np.sqrt(v, out=v)\n"
           "    v += cfg.eps\n",
           "    v += cfg.eps\n"
           "    np.sqrt(v, out=v)\n",
           (f"{ADAMW}::test_stacked_rows_match_single_worker_steps",
            f"{GOLDEN}[mlp-palsgd-k8 seed 5]")),
    Mutant("adamw weight decay not scaled by lr",
           "src/palsgd/optimizers.py",
           "out = x * (lr * cfg.weight_decay)",
           "out = x * cfg.weight_decay",
           (f"{ADAMW}::test_decoupled_weight_decay",
            f"{GOLDEN}[palsgd adamw weight_decay clip]")),
    Mutant("clip test by a max that a nan norm poisons",
           "src/palsgd/optimizers.py",
           "np.fmax.reduce(norms, initial=-np.inf)",
           "np.maximum.reduce(norms, initial=-np.inf)",
           ("tests/test_optimizers.py::TestRewrittenStepIsByteEqual::test_a_nan_row_does_not_hide_an_over_row",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    target = root / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: the old text is in {mutant.path} "
                          f"{text.count(mutant.old)} times, not once")
    target.write_text(text.replace(mutant.old, mutant.new))


def failed_ids(root: Path, tests: tuple) -> list[str]:
    """The node ids of the tests that fail or error under `root`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
                         cwd=root, env=env, capture_output=True, text=True).stdout
    return [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def covers(outer: str, node: str) -> bool:
    """Whether the node id `outer` is `node` or holds it, as a file or class
    holds its tests: a collection error in a file fails every test in it."""
    return node == outer or node.startswith((outer + "::", outer + "["))


def run(mutant: Mutant) -> bool:
    """Whether every node id of the row has a failing test with the mutant in."""
    with tempfile.TemporaryDirectory(prefix="palsgd-mutant-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        apply(mutant, root)
        failed = failed_ids(root, mutant.tests)
    missed = [t for t in mutant.tests if not any(covers(f, t) or covers(t, f) for f in failed)]
    print(f"{'killed' if not missed else 'survived'}: {mutant.name} "
          f"({len(failed)} failed{'; not failed: ' + ', '.join(missed) if missed else ''})",
          flush=True)
    return not missed


def main(names: list[str]) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in rows}
    if unknown:
        print(f"no such rows: {sorted(unknown)}", file=sys.stderr)
        return 2
    try:
        killed = [run(m) for m in rows]
    except LookupError as err:
        print(err, file=sys.stderr)
        return 2
    print(f"{sum(killed)} of {len(rows)} killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
