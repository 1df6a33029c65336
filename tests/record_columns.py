"""Record-column helpers shared by the test modules: run-against-run equality
by bytes, one replica's columns, and a reference metrics.jsonl serializer."""

import json

from palsgd.algorithms import SHARED_COLUMNS
from palsgd.metrics import RECORD_SCHEMA

# a metrics line's values by type; the eval ones only on evaluated records
INT_FIELDS = ("step", "comm_count")
FLOAT_FIELDS = ("sim_time_s", "train_metric", "consensus_sq", "spread_sq", "comm_seconds")
EVAL_FIELDS = ("eval_loss", "eval_acc")


def assert_columns_equal(a: dict, b: dict) -> None:
    """Two runs' record columns, each by dtype, shape and bytes: stricter than
    `==`, since it also tells -0.0 from 0.0 and compares nan bits."""
    assert a.keys() == b.keys()
    for name, column in a.items():
        other = b[name]
        assert (column.dtype, column.shape) == (other.dtype, other.shape), name
        assert column.tobytes() == other.tobytes(), name


def replica_columns(diagnostics, r: int) -> dict:
    """Replica r's columns of a batched run, shaped as a run of its seed alone."""
    return {name: column if name in SHARED_COLUMNS else column[r]
            for name, column in diagnostics.columns.items()}


def reference_metrics_text(columns: dict) -> str:
    """The metrics.jsonl of one seed's columns, built value by value with
    int() and float(), not by the writer's whole-column `tolist`."""
    lines = []
    for i, evaluated in enumerate(columns["evaluated"]):
        obj = {"schema": RECORD_SCHEMA, **{name: int(columns[name][i]) for name in INT_FIELDS}}
        for name in FLOAT_FIELDS + (EVAL_FIELDS if evaluated else ()):
            obj[name] = float(columns[name][i])
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)
