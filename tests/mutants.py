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
rule, and that each mutated file still compiles, without running a row
(test_mutant_table.py).
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
PER_WORKER = "tests/test_algorithms.py::TestPerWorkerReference::test_palsgd_matches_per_worker_loop_bitwise"
PARITY = "tests/test_workloads.py::test_the_parser_and_the_api_reject_a_key_alike"


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
    Mutant("ring bandwidth term (K-1)/K",
           "src/palsgd/cluster.py",
           "+ (2 * (workers - 1) / workers) * payload_bytes",
           "+ ((workers - 1) / workers) * payload_bytes",
           ("tests/test_cluster.py::TestAllReduceTime::test_bandwidth_term",
            f"{GOLDEN}[logistic-ddp-k32 seed 5]")),
    Mutant("ring latency rounds halved",
           "src/palsgd/cluster.py",
           "return (model.latency_s * 2 * (workers - 1)",
           "return (model.latency_s * (workers - 1)",
           ("tests/test_cluster.py::TestAllReduceTime::test_latency_term",
            f"{GOLDEN}[quad-palsgd-k32 seed 5]")),
    Mutant("all-reduce barrier without its duration",
           "src/palsgd/cluster.py",
           "self.barrier(duration)",
           "self.barrier()",
           ("tests/test_experiments_cli.py::TestSweep::test_time_decreases_with_larger_sync_interval",
            PER_WORKER, f"{GOLDEN}[diloco quadratic]")),
    Mutant("mixing step charged a full step",
           "src/palsgd/cluster.py",
           "self._mixing_cost = self._step_cost * spec.mixing_cost_fraction",
           "self._mixing_cost = self._step_cost",
           ("tests/test_cluster.py::TestSimClock::test_mixing_step_fractional_cost",
            "tests/test_algorithms.py::TestPalsgdLocalStep::test_mixing_step_is_cheap_on_the_clock",
            f"{GOLDEN}[palsgd quadratic straggler]")),
    Mutant("one-sided jitter",
           "src/palsgd/cluster.py",
           "cost *= 1.0 + self.spec.jitter * (2.0 * u - 1.0)",
           "cost *= 1.0 + self.spec.jitter * u",
           ("tests/test_cluster.py::TestSimClock::test_jitter_scales_each_worker_by_its_own_draw",
            f"{GOLDEN}[palsgd quadratic straggler]")),
    Mutant("heavy-ball outer step",
           "src/palsgd/optimizers.py",
           "return x_global - cfg.lr * (delta + cfg.momentum * state.buf)",
           "return x_global - cfg.lr * state.buf",
           ("tests/test_optimizers.py::TestOuterStep::test_nesterov_two_step_scalar_oracle",
            "tests/test_algorithms.py::TestDilocoHandTrace::test_one_round_matches_hand_recursion",
            f"{GOLDEN}[diloco quadratic]")),
    Mutant("plain averaging through the delta",
           "src/palsgd/optimizers.py",
           "    if cfg.is_plain_averaging:\n        return mean\n",
           "    if cfg.is_plain_averaging:\n        return x_global - (x_global - mean)\n",
           ("tests/test_optimizers.py::TestOuterStep::test_plain_averaging_returns_the_mean_bit_for_bit",
            "tests/test_algorithms.py::TestSyncRound::test_mean_conserved_under_plain_averaging",
            f"{GOLDEN}[local_sgd quadratic two-cell sweep]")),
    Mutant("no 1/(1-p) inner-step rescale",
           "src/palsgd/algorithms.py",
           "schedule.alpha_at(t) / (1.0 - schedule.p), stepping)",
           "schedule.alpha_at(t), stepping)",
           ("tests/test_algorithms.py::TestFullWidthStep::test_matches_the_index_set_reference",
            "tests/test_experiments_cli.py::TestK1Oracle::test_trainer_mean_matches_the_exact_value",
            f"{GOLDEN}[quad-palsgd-k32 seed 5]")),
    Mutant("mix halved in the local step",
           "src/palsgd/algorithms.py",
           "mixed *= schedule.mix_coefficient(t)",
           "mixed *= 0.5 * schedule.mix_coefficient(t)",
           ("tests/test_algorithms.py::TestPalsgdLocalStep::test_contraction_factor",
            "tests/test_algorithms.py::TestNoiselessRecursionOracle",
            f"{GOLDEN}[theory-suite seed 5]")),
    Mutant("reset_at_sync ignored",
           "src/palsgd/algorithms.py",
           "    if workers.inner.config.reset_at_sync:\n",
           "    if False:\n",
           (PER_WORKER, f"{GOLDEN}[palsgd warmup_cosine sgd_momentum reset_at_sync]")),
    Mutant("warmup not rounded up to a sync boundary",
           "src/palsgd/algorithms.py",
           "return min((self.warmup_steps + h - 1) // h * h, self.total_steps)",
           "return min(self.warmup_steps, self.total_steps)",
           ("tests/test_algorithms.py::TestSchedule::test_warmup_rounds_up_to_sync_boundary",
            f"{GOLDEN}[palsgd quadratic straggler]")),
    Mutant("cosine warmup one step late",
           "src/palsgd/algorithms.py",
           "return self.alpha * (t + 1) / w",
           "return self.alpha * (t + 1) / (w + 1)",
           ("tests/test_algorithms.py::TestSchedule::test_warmup_cosine_profile",
            f"{GOLDEN}[palsgd warmup_cosine sgd_momentum reset_at_sync]")),
    Mutant("partial last window not synced",
           "src/palsgd/algorithms.py",
           "synced = t < warmup or (t + 1) % h == 0 or t == total - 1",
           "synced = t < warmup or (t + 1) % h == 0",
           ("tests/test_algorithms.py::TestRunTraining::test_comm_event_counts",
            "tests/test_config_metrics.py::TestParsing::test_metrics_cadence_default",
            f"{GOLDEN}[quad-palsgd-k32 seed 5]")),
    Mutant("uniform iterate average",
           "src/palsgd/algorithms.py",
           "self._w *= self.growth",
           "self._w *= 1.0",
           ("tests/test_algorithms.py::TestTheorySchedule::test_weights_are_normalized_geometric",
            "tests/test_experiments_cli.py::TestK1Oracle::test_trainer_mean_matches_the_exact_value",
            f"{GOLDEN}[tiny verify_theory]")),
    Mutant("theory step cap p/(24 L H)",
           "src/palsgd/algorithms.py",
           "cap = p / (48.0 * smoothness * sync_interval)",
           "cap = p / (24.0 * smoothness * sync_interval)",
           ("tests/test_algorithms.py::TestTheorySchedule::test_alpha_cap_formula",
            f"{GOLDEN}[palsgd_theory batched S=3]")),
    Mutant("one-class data sets allowed",
           "src/palsgd/workloads.py",
           "classes: int = option(int, 10, low=2)",
           "classes: int = option(int, 10, low=1)",
           (f"{PARITY}[mlp-classes]",
            "tests/test_workloads.py::TestDatasetGeneration::test_a_set_of_one_class_is_rejected",
            "tests/test_config_metrics.py::TestParsing::test_mlp_width_constraints")),
    Mutant("non-finite floats accepted",
           "src/palsgd/fields.py",
           "            if not abs(value) <= sys.float_info.max:  # NaN fails every comparison\n"
           "                raise ConfigError(name, f\"must be a finite number, got {value!r}\")\n",
           "",
           (f"{PARITY}[schedule-alpha]", f"{PARITY}[cluster-jitter]", f"{PARITY}[quadratic-x_star]",
            "tests/test_experiments_cli.py::TestCli::test_a_non_finite_or_overflowing_number_exits_two")),
    Mutant("top-level keys named <top>.key",
           "src/palsgd/config.py",
           'top = _section("", raw, TOP_KEYS',
           'top = _section("<top>", raw, TOP_KEYS',
           (f"{PARITY}[top-workers]", f"{PARITY}[top-seed]",
            "tests/test_experiments_cli.py::TestCli::test_a_top_level_key_is_named_alike_in_the_file_and_by_its_flag")),
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
