"""Checks of the span bookkeeping and of BENCHMARK.json against the tables.

    python3 -m pytest -q perfbench/test_spans.py
"""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def ticking_tracer():
    return spans.Tracer(clock=itertools.count().__next__)


def test_self_time_subtracts_nested_spans():
    tracer = ticking_tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    tracer.wrap("outer", outer_fn)()
    # clock reads: outer 0, inner 1-2, inner 3-4, outer 5
    outer, inner_st = tracer.stats["outer"], tracer.stats["inner"]
    assert (inner_st.calls, inner_st.total_s, inner_st.self_s) == (2, 2, 2)
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 5, 3)


def test_three_levels_partition_the_root():
    tracer = ticking_tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    st = tracer.stats
    assert st["root"].total_s == sum(s.self_s for s in st.values())
    assert st["mid"].self_s == st["mid"].total_s - 1


def test_errors_are_counted_and_reraised():
    tracer = ticking_tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("outer", lambda: tracer.wrap("boom", boom)())()
    assert tracer.stats["boom"].errors == 1
    assert tracer.stats["outer"].errors == 1
    assert tracer.stats["outer"].self_s == tracer.stats["outer"].total_s - 1


def test_counters_and_kept_durations():
    tracer = ticking_tracer()
    tracer.wrap("graphs.dag_extensions", lambda: [1, 2, 3])()
    tracer.wrap("harness.run_pipeline", lambda: None)()
    assert tracer.stats["graphs.dag_extensions"].count == 3
    assert tracer.stats["harness.run_pipeline"].durations == [1]


def test_install_reports_absent_rows_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def f(x):
        return x + 1

    class Backend:
        def complete(self, x):
            return x * 2

        @staticmethod
        def helper(x):
            return -x

    mod.f, mod.Backend = f, Backend
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    table = (("fake_layer", "f", "layer.f"),
             ("fake_layer", "Backend.complete", "layer.complete"),
             ("fake_layer", "Backend.helper", "layer.helper"),
             ("fake_layer", "renamed", "layer.renamed"),
             ("fake_layer", "Gone.complete", "layer.gone"),
             ("no_such_module_here", "f", "layer.missing"))
    tracer = ticking_tracer()
    installed = spans.install(tracer, table)
    assert [row[2] for row in installed.absent] == ["layer.renamed", "layer.gone",
                                                    "layer.missing"]
    assert (mod.f(1), Backend().complete(2), Backend.helper(3)) == (2, 4, -3)
    assert {k: v.calls for k, v in tracer.stats.items()} == {
        "layer.f": 1, "layer.complete": 1, "layer.helper": 1}
    installed.remove()
    assert mod.f is f and Backend.__dict__["complete"].__name__ == "complete"
    assert Backend().complete(2) == 4 and len(tracer.stats) == 3


def test_benchmark_json_lists_the_reported_metrics():
    path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
