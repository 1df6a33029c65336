"""Metrics emission: JSONL step records and the end-of-run summary, from the record columns.

Serialization is deterministic (sorted keys, repr-exact floats) so that two
runs of the same config+seed produce byte-identical files.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .algorithms import RECORD_COLUMNS, Diagnostics, TrainResult

RECORD_SCHEMA = 2


def write_metrics_jsonl(diagnostics: Diagnostics, path: str) -> None:
    """One line per record of a one-seed run, written from its columns: the
    record's values, without the eval ones where it was not evaluated."""
    columns = diagnostics.columns
    if columns["train_metric"].ndim != 1:
        raise ValueError(f"metrics.jsonl holds one seed's records; got a batch of "
                         f"{len(columns['train_metric'])} replicas")
    # the keys in the sorted order that json.dumps(obj, sort_keys=True) writes,
    # put once; deleting the eval keys keeps the others in order
    keys = sorted(("schema", *RECORD_COLUMNS[:-1]))
    values = zip(*(repeat(RECORD_SCHEMA) if name == "schema" else columns[name].tolist()
                   for name in keys))
    encode = json.JSONEncoder().encode

    def lines():
        for row, evaluated in zip(values, columns["evaluated"].tolist()):
            obj = dict(zip(keys, row))
            if not evaluated:
                del obj["eval_loss"], obj["eval_acc"]
            yield encode(obj) + "\n"

    with open(path, "w") as fh:
        fh.writelines(lines())


def summarize(result: TrainResult) -> dict:
    columns = result.diagnostics.columns
    metric = columns["train_metric"].tolist()
    summary = {
        "schema": RECORD_SCHEMA,
        "final_loss": metric[-1] if metric else None,
        "best_loss": min(metric, default=None),
        "total_sim_time_s": float(max(result.worker_time)),
        "total_comm_seconds": result.comm_seconds,
        "sync_count": len(result.events),
        "diverged": result.diverged,
    }
    if result.divergence is not None:
        summary["diverged_at_step"] = result.divergence.step
        summary["diverged_worker"] = result.divergence.worker
    evaluated = np.flatnonzero(columns["evaluated"])
    if evaluated.size:
        summary["final_eval_loss"] = float(columns["eval_loss"][evaluated[-1]])
        summary["final_eval_acc"] = float(columns["eval_acc"][evaluated[-1]])
    return summary


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
