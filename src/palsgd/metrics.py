"""Metrics emission: JSONL step records and the end-of-run summary.

Serialization is deterministic (sorted keys, repr-exact floats) so that two
runs of the same config+seed produce byte-identical files.
"""

from __future__ import annotations

import json

from .algorithms import StepRecord, TrainResult

RECORD_SCHEMA = 2


def record_to_obj(rec: StepRecord) -> dict:
    obj = {
        "schema": RECORD_SCHEMA,
        "step": rec.step,
        "sim_time_s": rec.sim_time_s,
        "train_metric": rec.train_metric,
        "consensus_sq": rec.consensus_sq,
        "spread_sq": rec.spread_sq,
        "comm_count": rec.comm_count,
        "comm_seconds": rec.comm_seconds,
    }
    if rec.eval_loss is not None:
        obj["eval_loss"] = rec.eval_loss
    if rec.eval_acc is not None:
        obj["eval_acc"] = rec.eval_acc
    return obj


def dumps_record(rec: StepRecord) -> str:
    return json.dumps(record_to_obj(rec), sort_keys=True)


def write_metrics_jsonl(records: list[StepRecord], path: str) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(dumps_record(rec) + "\n")


def summarize(result: TrainResult) -> dict:
    recs = result.diagnostics.records
    summary = {
        "schema": RECORD_SCHEMA,
        "final_loss": recs[-1].train_metric if recs else None,
        "best_loss": min((r.train_metric for r in recs), default=None),
        "total_sim_time_s": result.clock.global_time,
        "total_comm_seconds": result.clock.comm_seconds,
        "sync_count": len(result.clock.events),
        "diverged": result.diverged,
    }
    if result.diverged and result.divergence is not None:
        summary["diverged_at_step"] = result.divergence.step
        summary["diverged_worker"] = result.divergence.worker
    final_eval = next((r for r in reversed(recs) if r.eval_acc is not None), None)
    if final_eval is not None:
        summary["final_eval_loss"] = final_eval.eval_loss
        summary["final_eval_acc"] = final_eval.eval_acc
    return summary


def write_summary(summary: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
