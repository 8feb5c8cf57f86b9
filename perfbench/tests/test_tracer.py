"""Quadrature counting of the span tracer.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

# the modules as imported, so that other tests in the same process keep
# the same module objects
NH = {m: importlib.import_module(f"nhgeo.{m}") for m in run.MODULES}


def traced(tracer, fn):
    tracer.begin()
    try:
        value = fn()
    finally:
        tracer.end(1.0)
    return value, tracer.ops[-1]["counts"], tracer.spans[tracer.first:]


def test_nested_quadrature_gets_its_own_spans():
    ex = NH["expr"]
    v = ex.var("v")
    nested = ex.intv(ex.mul(v, ex.intv(v, 0.5)), 0.5)
    tracer = Tracer(NH)
    _, counts, spans = traced(tracer, lambda: ex.evaluate(nested, {"v": 1.0}))
    quads = [i for i, s in enumerate(spans) if s[0] == "numerics.adaptive_simpson"]
    # one outer quadrature, one inner quadrature per outer integrand value
    assert counts["numerics.quad_calls"] == len(quads) > 1
    outer = tracer.first + quads[0]
    assert all(spans[i][4] == outer for i in quads[1:])
    assert counts["numerics.quad_integrand_evals"] > counts["numerics.quad_calls"]


def test_reversed_bounds_count_one_quadrature():
    ex = NH["expr"]
    _, counts, spans = traced(Tracer(NH), lambda: ex.evaluate(
        ex.intv(ex.var("v"), 1.5), {"v": 1.0}))
    assert counts["numerics.quad_calls"] == 1
    assert sum(s[0] == "numerics.adaptive_simpson" for s in spans) == 1


def test_threaded_grid_evaluation_counts_quadrature():
    ex = NH["expr"]
    v = ex.var("v")
    nested = ex.intv(ex.mul(v, ex.intv(v, 0.5)), 0.5)
    cols = {"v": np.linspace(0.6, 1.4, 8)}
    tracer = Tracer(NH)
    serial, one, _ = traced(tracer, lambda: NH["numerics"].evaluate_on_grid(nested, cols, 1))
    pooled, two, spans = traced(tracer, lambda: NH["numerics"].evaluate_on_grid(nested, cols, 2))
    assert np.array_equal(serial, pooled)
    for key in ("numerics.quad_calls", "numerics.quad_integrand_evals"):
        assert two[key] == one[key] > 0
    # quadrature on the pool's threads is timed under grid_eval_s
    assert {s[0] for s in spans} == {"numerics.evaluate_on_grid"}
