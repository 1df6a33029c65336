"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench

Runs each workload at a tiny size, traced and untraced, and checks that every
metric named in BENCHMARK.json is emitted with its unit, and that the layer
wrappers put back every attribute they replaced.
"""

import json
import sys

import pytest

import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_emits_every_metric(name, trace):
    result, detail = run.measure(name, seed=1, seconds=0, trace=trace, tiny=True)
    assert result["failed"] == 0, detail["jobs"]
    assert result["correct"] and result["attempted"] == (2 if trace else 1)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["algorithms.run_training.calls"]["value"] >= 1
        assert not detail["missing_targets"]


def _palsgd_bindings() -> dict:
    """Every module attribute and class attribute of the loaded palsgd modules."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "palsgd" and not mod_name.startswith("palsgd."):
            continue
        for name, value in vars(module).items():
            out[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__.startswith("palsgd"):
                for attr, member in vars(value).items():
                    out[(mod_name, name, attr)] = member
    return out


def test_uninstall_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import palsgd

    before = _palsgd_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing
        assert palsgd.algorithms.inner_step.__wrapped__ is before[("palsgd.algorithms", "inner_step")]
        during = _palsgd_bindings()
        replaced = {key for key in before if during[key] is not before[key]}
        assert ("palsgd.algorithms", "inner_step") in replaced
        assert ("palsgd.vecmath", "RngStream", "uniform") in replaced
    finally:
        t.uninstall()
    after = _palsgd_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
