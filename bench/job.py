"""One benchmark job, run in its own process by bench/run.py.

    python3 bench/job.py <spec.json>      (with the repo's src/ on PYTHONPATH)

The job imports palsgd, loads the config file through `load_config`, calls
one public entry point (`run_experiment` or `verify_theory`) with an output
directory, and writes its timings and counts to the spec's `result_path`.
With `"trace": true` the layer wrappers of tracer.py are installed before the
config is loaded and removed after the entry point returns.

The job also times a short fixed calibration loop: once before the entry
call, every CALIB_PERIOD_S during it (from a timer signal, with the time spent
in the handler taken out of the job's time; untraced jobs only) and once
after it. The driver
uses the mean to correct the job's times for the speed the shared machine ran
at during the job.
"""

from __future__ import annotations

import json
import platform
import resource
import signal
import sys
import time

CALIB_PERIOD_S = 0.1


class Calibration:
    """Timings of a fixed loop of small-vector updates, the simulator's usual operation."""

    def __init__(self, numpy):
        self.samples: list[float] = []
        self.in_job_s = 0.0  # time spent sampling while the timer ran
        self._x, self._anchor = numpy.zeros(64), numpy.ones(64)

    def sample(self) -> None:
        x, anchor = self._x, self._anchor
        start = time.perf_counter()
        for _ in range(1500):
            x = x - 0.01 * (x - anchor)
        self.samples.append(time.perf_counter() - start)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.in_job_s += time.perf_counter() - start

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import palsgd

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    cfg = palsgd.load_config(spec["config_path"])
    ready = time.perf_counter()
    calib = Calibration(numpy)
    calib.sample()
    if tracer is None:
        # in a traced job the handler's time would land in an enclosing span
        calib.start_timer()
    job_start = time.perf_counter()
    local_steps = None
    if spec["entry"] == "run":
        _, result = palsgd.run_experiment(cfg, out_dir=spec["out_dir"])
        diag = result.diagnostics
        local_steps = sum(diag.mixing_steps_per_worker) + sum(diag.gradient_steps_per_worker)
    else:
        args = spec["theory_args"]
        palsgd.verify_theory(cfg, out_dir=spec["out_dir"], k_values=tuple(args["k_values"]),
                             n_seeds=args["n_seeds"], h_values=tuple(args["h_values"]),
                             h_probe_steps=args["h_probe_steps"])
    end = time.perf_counter()
    calib.stop_timer()
    calib.sample()
    job_s = end - job_start - calib.in_job_s
    report = {
        # perf_counter is CLOCK_MONOTONIC on Linux, so `ready` is comparable
        # with the driver's spawn time.
        "ready": ready,
        "job_s": job_s,
        "wall_s": (ready - start) + job_s,  # load_config plus the entry call
        "calib_s": calib.samples,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "local_steps": local_steps,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.metrics()
        report["missing_targets"] = tracer.missing
    with open(spec["result_path"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1])
