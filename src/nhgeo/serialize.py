"""JSON wire formats: recipes in, metrics out.

Expressions are embedded as strings in the toolkit grammar (including the
running-integral form ``intv(f, v0)``), so generated metrics round-trip
through files and stay evaluable.
"""

from __future__ import annotations

import json
from typing import Mapping

from . import expr as ex
from . import generators as gen
from . import ricci_flow as rf
from .geometry import Chart, DMetric, NConnection
from .numerics import Grid


class ConfigError(ValueError):
    """Malformed or inconsistent configuration/recipe input."""


def _need(d: Mapping, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"missing {key!r} in {ctx}")
    return d[key]


def parse_expr(src, allowed, ctx: str) -> ex.Expr:
    if isinstance(src, (int, float)):
        return ex.const(src)
    if not isinstance(src, str):
        raise ConfigError(f"{ctx}: expression must be a string or number")
    try:
        return ex.parse(src, allowed)
    except (ex.ExprSyntaxError, ex.UnknownVariableError) as err:
        raise ConfigError(f"{ctx}: {err}") from None


def grid_from_dict(d: Mapping) -> Grid:
    if not isinstance(d, Mapping) or not d:
        raise ConfigError("grid must map variable names to min/max/count")
    spec = {}
    for name, axis in d.items():
        try:
            spec[name] = (float(axis["min"]), float(axis["max"]), int(axis["count"]))
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"grid axis {name!r} needs min, max, count") from None
    try:
        return Grid.build(spec)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from None


def source_from_dict(d: Mapping | None, allowed) -> gen.Source:
    if not d:
        return gen.Source.vacuum()
    if "lambda" in d and d["lambda"] is not None and "upsilon2" not in d:
        return gen.Source.constant(float(d["lambda"]))
    u2 = parse_expr(d.get("upsilon2", 0), allowed, "source.upsilon2")
    u4 = parse_expr(d.get("upsilon4", 0), allowed, "source.upsilon4")
    lam = d.get("lambda")
    try:
        return gen.Source(u2, u4, None if lam is None else float(lam))
    except ValueError as err:
        raise ConfigError(f"source: {err}") from None


def _signatures(d: Mapping, count: int):
    sig = _need(d, "signatures", "recipe")
    if len(sig) != count or any(s not in (-1, 1) for s in sig):
        raise ConfigError(f"signatures must be {count} values of +-1")
    return tuple(int(s) for s in sig)


def _function_reader(fns: Mapping, allowed):
    """fn(key, default) parses recipe function ``key``; an absent key gives
    the constant ``default``, or a ConfigError when there is none."""
    def fn(key, default=None):
        if key not in fns:
            if default is None:
                raise ConfigError(f"missing function {key!r}")
            return ex.const(default)
        return parse_expr(fns[key], allowed, f"functions.{key}")
    return fn


_GEN_VARS = ("x1", "x2", "x3", "v", "y5")
_GEN_VARS_4D = ("x2", "x3", "v", "y5")


def recipe_from_dict(d: Mapping):
    """Build (family, recipe, source) from a recipe document."""
    family = _need(d, "family", "recipe")
    params = tuple(d.get("params", ()))
    fns = _need(d, "functions", "recipe")

    if family in ("gensol1_5d", "gensol1_4d"):
        allowed = (_GEN_VARS if family == "gensol1_5d" else _GEN_VARS_4D) + params
        fn = _function_reader(fns, allowed)

        ks = ("1", "2", "3")
        recipe = gen.SolutionRecipe5D(
            signatures=_signatures(d, 5),
            g2=fn("g2"), g3=fn("g3"), f=fn("f"), f0=fn("f0", 0.0),
            h0=fn("h0", 1.0), varsigma0=fn("varsigma0", 1.0),
            n1_funcs=tuple(fn(f"n1_{k}", 0.0) for k in ks),
            n2_funcs=tuple(fn(f"n2_{k}", 0.0) for k in ks),
            v0=float(d.get("v0", 0.0)), params=params)
        src = source_from_dict(d.get("source"), allowed)
        return family, recipe, src

    if family == "vacuum_lc":
        allowed = _GEN_VARS_4D + params
        fn = _function_reader(fns, allowed)

        recipe = gen.VacuumLCRecipe(
            signatures=_signatures(d, 4),
            psi=fn("psi"), b=fn("b"), b0=fn("b0", 0.0),
            n2=fn("n2", 0.0), n3=fn("n3", 0.0),
            h0=float(d.get("h0", 1.0)), params=params)
        return family, recipe, gen.Source.vacuum()

    if family == "sourced_lc":
        allowed = _GEN_VARS_4D + params
        fn = _function_reader(fns, allowed)

        src = source_from_dict(d.get("source"), allowed)
        recipe = gen.SourcedLCRecipe(
            signatures=_signatures(d, 4),
            psi=fn("psi"), h4=fn("h4"), h5=fn("h5"),
            n2=fn("n2", 0.0), n3=fn("n3", 0.0), source=src, params=params)
        return family, recipe, src

    raise ConfigError(f"unknown recipe family {family!r}")


def flow_recipe_from_dict(d: Mapping):
    family = _need(d, "family", "flow recipe")
    params = tuple(d.get("params", ()))
    fns = _need(d, "functions", "flow recipe")
    lam = float(d.get("lambda", 0.0))

    if family == "flow_solrf1":
        allowed = _GEN_VARS + ("chi",) + params
        fn = _function_reader(fns, allowed)

        return family, rf.FlowRecipe(
            signatures=_signatures(d, 5),
            varpi=fn("varpi"), h5=fn("h5"), h0fn=fn("h0", 1.0),
            varsigma40=fn("varsigma40", 1.0), n1fn=fn("n1", 0.0),
            n2fn=fn("n2", 0.0), lam=lam, v0=float(d.get("v0", 1.0)),
            params=params)

    if family == "flow_lc":
        allowed = _GEN_VARS_4D + ("chi",) + params
        fn = _function_reader(fns, allowed)

        return family, rf.LCFlowRecipe(
            signatures=_signatures(d, 4),
            psi=fn("psi"), h4=fn("h4"), h5=fn("h5"),
            w2=fn("w2", 0.0), w3=fn("w3", 0.0), n2=fn("n2", 0.0),
            lam=lam, params=params)

    raise ConfigError(f"unknown flow family {family!r}")


def chi_samples_from_dict(d: Mapping) -> tuple:
    spec = d.get("chi")
    if spec is None:
        return (0.0,)
    if isinstance(spec, (list, tuple)):
        return tuple(float(c) for c in spec)
    try:
        lo, hi, count = float(spec["min"]), float(spec["max"]), int(spec["count"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("chi needs min, max, count (or an explicit list)") from None
    if count < 1:
        raise ConfigError("chi count must be >= 1")
    if count == 1:
        return (lo,)
    step = (hi - lo) / (count - 1)
    return tuple(lo + k * step for k in range(count))


# ---------------------------------------------------------------------------
# metric documents
# ---------------------------------------------------------------------------

def metric_to_dict(gm: gen.GeneratedMetric) -> dict:
    return {
        "chart": {"x": list(gm.chart.x_names), "y": list(gm.chart.y_names),
                  "params": list(gm.chart.params)},
        "g": [[ex.to_str(c) for c in row] for row in gm.metric.g],
        "h": [[ex.to_str(c) for c in row] for row in gm.metric.h],
        "N": [[ex.to_str(c) for c in row] for row in gm.nconn.coeff],
        "provenance": gm.provenance,
        "excluded": [ex.to_str(e) for e in gm.excluded],
    }


def metric_from_dict(d: Mapping) -> gen.GeneratedMetric:
    ch = _need(d, "chart", "metric")
    try:
        chart = Chart(tuple(ch["x"]), tuple(ch["y"]), tuple(ch.get("params", ())))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"metric chart: {err}") from None
    allowed = chart.all_names

    def mat(key, rows, cols):
        raw = _need(d, key, "metric")
        if len(raw) != rows or any(len(r) != cols for r in raw):
            raise ConfigError(f"metric block {key!r} must be {rows}x{cols}")
        return tuple(tuple(parse_expr(c, allowed, f"{key}[{i}][{j}]")
                           for j, c in enumerate(row))
                     for i, row in enumerate(raw))

    g = mat("g", chart.n, chart.n)
    h = mat("h", chart.m, chart.m)
    ncoef = mat("N", chart.n, chart.m)
    excluded = tuple(parse_expr(e, allowed, "excluded") for e in d.get("excluded", ()))
    return gen.GeneratedMetric(chart, DMetric(g, h), NConnection(ncoef),
                               dict(d.get("provenance", {})), excluded)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed JSON in {path}: {err}") from None


def dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
