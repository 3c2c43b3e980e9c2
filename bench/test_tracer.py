"""Self-check of the benchmark's tracer.  Run: python3 -m pytest bench

* every wrapped function is rebound in every clawham module that imported
  it by name;
* uninstalling puts every original back;
* traced and untraced passes of each workload give identical outputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import pytest  # noqa: E402

import clawham  # noqa: E402
import clawham.engine  # noqa: E402
import clawham.extension  # noqa: E402
import clawham.predicates  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bindings() -> dict:
    """(owner, attribute) -> bound object, for everything the tracer may patch."""
    out = {(mod.__name__, attr): value
           for mod in tracer.clawham_modules() for attr, value in vars(mod).items()}
    out[("FiniteGraph", "__init__")] = clawham.FiniteGraph.__dict__["__init__"]
    out[("GraphPresentation", "extract_ball")] = (
        clawham.GraphPresentation.__dict__["extract_ball"])
    return out


def test_every_binding_is_rebound():
    originals = tracer.layer_functions()
    assert "graph.edge_key" not in originals
    by_id = {id(fn): name for name, fn in originals.items()}
    with tracer.Tracer():
        leftover = [(owner, attr, by_id[id(value)])
                    for (owner, attr), value in bindings().items() if id(value) in by_id]
        assert leftover == []
        assert clawham.engine.apply_path_extension is clawham.extension.apply_path_extension
        assert clawham.engine.apply_path_extension.__wrapped__ is originals[
            "extension.apply_path_extension"]
        assert clawham.engine.claw_at is clawham.predicates.claw_at
        assert clawham.predicates.claw_at.__wrapped__ is originals["predicates.claw_at"]
        assert clawham.finite_hamilton is clawham.extension.finite_hamilton


def test_uninstall_restores_originals():
    before = bindings()
    t = tracer.Tracer()
    t.install()
    assert bindings() != before
    t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_layer_stats_self_and_total_times():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("a", 5.0, 7.0, 0)]
    stats, root_s = tracer.layer_stats(spans, {"a"})
    assert root_s == 10.0
    assert stats["a"] == {"calls": 2, "total_s": 10.0, "self_s": 5.0 + 2.0}
    assert stats["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


# Smaller sizes for each workload, set on the workload classes and modules.
SMALL = {
    "finite-families": {(workloads.FiniteFamilies, "SIZES"):
                        {"P2": (12, 24), "LK": (5,), "ladder": (6,)}},
    "small-sweep": {(workloads.SmallSweep, "SIZES"): (3, 4, 5)},
    "engine-1d": {(workloads, "ENGINE_1D"):
                  (("double-ray-square", 40, 3), ("tripod-line", 40, 3))},
    "engine-2d": {},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_match(name, monkeypatch):
    for (owner, attr), value in SMALL[name].items():
        monkeypatch.setattr(owner, attr, value)
    workload = workloads.WORKLOADS[name](7)
    plain = workload.run_pass().result()
    with tracer.Tracer() as t:
        p = workload.run_pass()
    traced = p.result()
    assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
    assert plain["digest"] == traced["digest"]
    stats, root_s = tracer.layer_stats(t.spans, p.entry_points)
    assert 0.9 * traced["pass_s"] < root_s <= traced["pass_s"]
    top = {"finite-families": "extension.finite_hamilton",
           "small-sweep": "constructions.enumerate_connected_graphs",
           "engine-1d": "engine.run", "engine-2d": "engine.run"}[name]
    assert stats[top]["calls"] >= 1
