"""Per-layer spans around palsgd's public functions, installed from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that counts calls and accumulates self time: a span's duration minus the time
covered by the traced spans it encloses. A module-level function is replaced
in every palsgd module that holds it, so a name imported with
``from .optimizers import inner_step`` is traced in the importing module too.
Private helpers (``_WeightedAverage``, the trainer's ``record`` closure) are
not wrapped; their time lands in the self time of their caller.
`uninstall()` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

WORKLOAD_CLASSES = ("QuadraticWorkload", "LogisticWorkload", "MlpWorkload")
RNG_METHODS = ("uniform", "uniform_vector", "gaussian", "gaussian_vector",
               "integers", "permutation")

# layer name -> (home module, qualified name) of each traced callable
LAYERS = {
    "config.load": [("config", "load_config"), ("config", "parse_config")],
    "workloads.build": [("config", "RunConfig.build_workload")],
    "workloads.draw": [("workloads", f"{c}.draw_sample") for c in WORKLOAD_CLASSES],
    "vecmath.rng": [("vecmath", f"RngStream.{m}") for m in RNG_METHODS],
    "workloads.gradient": [("workloads", f"{c}.stochastic_gradient") for c in WORKLOAD_CLASSES],
    "workloads.objective": ([("workloads", f"{c}.full_objective") for c in WORKLOAD_CLASSES]
                            + [("workloads", "QuadraticWorkload.suboptimality"),
                               ("workloads", "MlpWorkload.evaluate")]),
    "optimizers.inner_step": [("optimizers", "inner_step")],
    "optimizers.outer_step": [("optimizers", "outer_step")],
    "algorithms.local_step": [("algorithms", "palsgd_local_step")],
    "algorithms.ddp_step": [("algorithms", "ddp_step")],
    "algorithms.sync_round": [("algorithms", "sync_round")],
    "algorithms.consensus_probe": [("algorithms", "consensus_probe")],
    "vecmath.mean_of": [("vecmath", "mean_of")],
    "algorithms.run_training": [("algorithms", "run_training")],
    "cluster.clock": [("cluster", "SimClock.advance_step"), ("cluster", "SimClock.record_allreduce")],
    "metrics.output": [("metrics", "write_metrics_jsonl"), ("metrics", "write_summary"),
                       ("cluster", "export_events_jsonl")],
    "experiments.oracle": [("experiments", "k1_scalar_oracle")],
}

# Exact counts taken from traced calls, on top of each layer's calls and self_s.
COUNTERS = ("cluster.allreduce.calls", "cluster.allreduce.bytes", "metrics.output.bytes",
            "algorithms.mixing_steps", "algorithms.local_steps")


def _count_allreduce(tracer: "Tracer", args, result) -> None:
    tracer.counts["cluster.allreduce.calls"] += 1
    tracer.counts["cluster.allreduce.bytes"] += result.payload_bytes


def _count_output_bytes(tracer: "Tracer", args, result) -> None:
    tracer.counts["metrics.output.bytes"] += os.path.getsize(args[1])


def _count_steps(tracer: "Tracer", args, result) -> None:
    diag = result.diagnostics
    mixing = sum(diag.mixing_steps_per_worker)
    tracer.counts["algorithms.mixing_steps"] += mixing
    tracer.counts["algorithms.local_steps"] += mixing + sum(diag.gradient_steps_per_worker)


AFTER = {
    "SimClock.record_allreduce": _count_allreduce,
    "write_metrics_jsonl": _count_output_bytes,
    "write_summary": _count_output_bytes,
    "export_events_jsonl": _count_output_bytes,
    "run_training": _count_steps,
}


class Tracer:
    """Call counts, self times and exact counters for the layers in LAYERS."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []  # targets this version of palsgd lacks
        self._stack: list[float] = []  # time covered by children, per open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, after):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        importlib.import_module("palsgd")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "palsgd" or n.startswith("palsgd."))]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                home = importlib.import_module(f"palsgd.{module_name}")
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(layer, original, AFTER.get(qualname))
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        return out
