"""JSON wire formats: recipes and command configs in, metrics out.

Every field of a document is read here, once, and typed on reading: a value
of the wrong type, or one that does not convert, is a ConfigError naming the
field, and a null field reads as absent. Expressions are embedded as strings
in the toolkit grammar (including the running-integral form ``intv(f, v0)``),
so generated metrics round-trip through files and stay evaluable.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Mapping

from . import expr as ex
from . import generators as gen
from . import geroch as gr
from . import ricci_flow as rf
from .geometry import Chart, DMetric, NConnection
from .numerics import Grid


class ConfigError(ValueError):
    """Malformed or inconsistent configuration/recipe input."""


# ---------------------------------------------------------------------------
# typed fields
# ---------------------------------------------------------------------------

def _number(v) -> float:
    if isinstance(v, bool) or not math.isfinite(out := float(v)):
        raise ValueError
    return out


def _count(v) -> int:
    if isinstance(v, (bool, float)) or (out := int(v)) < 0:
        raise ValueError
    return out


def _names(v) -> tuple:
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise TypeError
    return tuple(v)


_CHECK_GROUPS = ("ricci", "oracles", "lc")


def _check_groups(v) -> tuple:
    if not (groups := _names(v)) or not set(groups) <= set(_CHECK_GROUPS):
        raise ValueError
    return groups


_EXPECTED = {_number: "a finite number", _count: "a non-negative integer",
             _names: "a list of names", list: "a list", Mapping: "an object",
             _check_groups: f"a non-empty list of {', '.join(map(repr, _CHECK_GROUPS))}",
             str: "a string", (str, Mapping): "a metric document or its path"}
_REQUIRED = object()


def _field(d: Mapping, key: str, kind, ctx: str, default=_REQUIRED):
    """``d[key]`` read by ``kind``: a conversion above, or the type(s) the
    value must have. An absent (or null) field gives ``default``, or a
    ConfigError when there is none."""
    value = d.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"missing {key!r} in {ctx}")
        return default
    try:
        if not isinstance(kind, (type, tuple)):
            return kind(value)
        if isinstance(value, kind):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key!r} in {ctx} must be {_EXPECTED[kind]}, got {value!r}")


def _exprs(d: Mapping, key: str, count: int, allowed, ctx: str, default=_REQUIRED,
           label: str | None = None) -> list:
    """The list ``d[key]`` of ``count`` expressions."""
    raw = _field(d, key, list, ctx, default)
    if len(raw) != count:
        raise ConfigError(f"{key!r} in {ctx} must list {count} expressions, "
                          f"got {len(raw)}")
    return [parse_expr(c, allowed, label or key) for c in raw]


def _bindings(d: Mapping, key: str, ctx: str, params: tuple, grid: Grid) -> dict:
    """The name -> number object ``d[key]``, each name one of the declared
    ``params`` and not an axis of ``grid``."""
    values = _field(d, key, Mapping, ctx, {})
    values = {k: _field(values, k, _number, key) for k in values}
    for k in values:
        if k in grid.names:
            raise ConfigError(f"{k!r} in {key} is a grid axis, not a parameter")
        if k not in params:
            raise ConfigError(f"{k!r} in {key} is not a declared parameter "
                              f"(declared: {', '.join(params) or 'none'})")
    return values


def _positive(d: Mapping, key: str, ctx: str, default: float) -> float:
    value = _field(d, key, _number, ctx, default)
    if not value > 0.0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return value


def _tolerance(d: Mapping, ctx: str, default: float, override=None) -> float:
    """The config's tolerance, or the command line's ``override``, checked
    the same way."""
    return _positive(d if override is None else {"tolerance": override},
                     "tolerance", ctx, default)


def point_from_text(text: str) -> dict:
    """The bindings of ``expr check --at`` ('v=1,x2=0.5'): distinct non-empty
    names, each bound to a finite number."""
    point = {}
    for binding in text.split(","):
        name, _, val = binding.partition("=")
        name = name.strip()
        if not name:
            raise ConfigError(f"--at binding {binding!r} binds no name")
        if name in point:
            raise ConfigError(f"--at binding {binding!r} binds {name!r} again")
        point[name] = _field({name: val}, name, _number, "--at")
    return point


def parse_expr(src, allowed, ctx: str) -> ex.Expr:
    if isinstance(src, (int, float)):
        return ex.const(src)
    if not isinstance(src, str):
        raise ConfigError(f"{ctx}: expression must be a string or number")
    try:
        return ex.parse(src, allowed)
    except (ex.ExprSyntaxError, ex.UnknownVariableError) as err:
        raise ConfigError(f"{ctx}: {err}") from None


def _axis(d: Mapping, ctx: str) -> tuple:
    """(min, max, count) of a grid axis or a chi range."""
    return tuple(_field(d, key, kind, ctx) for key, kind in
                 (("min", _number), ("max", _number), ("count", _count)))


def grid_from_dict(d: Mapping) -> Grid:
    if not isinstance(d, Mapping) or not d:
        raise ConfigError("grid must map variable names to min/max/count")
    spec = {name: _axis(_field(d, name, Mapping, "grid"), f"grid axis {name!r}")
            for name in d}
    try:
        return Grid.build(spec)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from None


def source_from_dict(d: Mapping | None, allowed) -> gen.Source:
    if not d:
        return gen.Source.vacuum()
    lam = _field(d, "lambda", _number, "source", None)
    if lam is not None and "upsilon2" not in d:
        return gen.Source.constant(lam)
    u2 = parse_expr(d.get("upsilon2", 0), allowed, "source.upsilon2")
    u4 = parse_expr(d.get("upsilon4", 0), allowed, "source.upsilon4")
    try:
        return gen.Source(u2, u4, lam)
    except ValueError as err:
        raise ConfigError(f"source: {err}") from None


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

def _signatures(d: Mapping, count: int):
    sig = _field(d, "signatures", object, "recipe")
    if (not isinstance(sig, list) or len(sig) != count
            or any(s not in (-1, 1) for s in sig)):
        raise ConfigError(f"signatures must be {count} values of +-1")
    return tuple(int(s) for s in sig)


class _Functions:
    """The ``functions`` object of a recipe: ``fn(key, default)`` parses
    function ``key``; an absent key gives the constant ``default``, or a
    ConfigError when there is none."""

    def __init__(self, docs: Mapping, allowed):
        self.docs, self.allowed, self.read = docs, allowed, {}

    def __call__(self, key: str, default=None) -> ex.Expr:
        if key not in self.docs:
            if default is None:
                raise ConfigError(f"missing function {key!r}")
            return ex.const(default)
        self.read[key] = parse_expr(self.docs[key], self.allowed, f"functions.{key}")
        return self.read[key]

    def entries(self, family: str, src: gen.Source | None = None) -> tuple:
        """(name, expression) of every function, in document order, then of
        the source terms; a key the family does not read is a ConfigError."""
        if unread := [k for k in self.docs if k not in self.read]:
            raise ConfigError(f"functions.{unread[0]}: family {family!r} "
                              f"reads no function {unread[0]!r}")
        terms = () if src is None else (("source.upsilon2", src.upsilon2),
                                         ("source.upsilon4", src.upsilon4))
        return tuple((f"functions.{k}", self.read[k]) for k in self.docs) + terms


_GEN_VARS = ("x1", "x2", "x3", "v", "y5")
_GEN_VARS_4D = ("x2", "x3", "v", "y5")
_RECIPE_VARS = {"gensol1_5d": _GEN_VARS, "gensol1_4d": _GEN_VARS_4D,
                "vacuum_lc": _GEN_VARS_4D, "sourced_lc": _GEN_VARS_4D}
_FLOW_VARS = {"flow_solrf1": _GEN_VARS + ("chi",), "flow_lc": _GEN_VARS_4D + ("chi",)}


def recipe_from_dict(d: Mapping):
    """Build (family, recipe, source, entries) from a recipe document;
    entries are the (name, expression) pairs of its functions and source
    terms."""
    family = _field(d, "family", str, "recipe")
    params = _field(d, "params", _names, "recipe", ())
    fns = _field(d, "functions", Mapping, "recipe")
    if family not in _RECIPE_VARS:
        raise ConfigError(f"unknown recipe family {family!r}")
    allowed = _RECIPE_VARS[family] + params
    fn = _Functions(fns, allowed)

    if family in ("gensol1_5d", "gensol1_4d"):
        ks = ("1", "2", "3")
        recipe = gen.SolutionRecipe5D(
            signatures=_signatures(d, 5),
            g2=fn("g2"), g3=fn("g3"), f=fn("f"), f0=fn("f0", 0.0),
            h0=fn("h0", 1.0), varsigma0=fn("varsigma0", 1.0),
            n1_funcs=tuple(fn(f"n1_{k}", 0.0) for k in ks),
            n2_funcs=tuple(fn(f"n2_{k}", 0.0) for k in ks),
            v0=_field(d, "v0", _number, "recipe", 0.0), params=params)
        src = source_from_dict(_field(d, "source", Mapping, "recipe", None), allowed)
        return family, recipe, src, fn.entries(family, src)

    if family == "vacuum_lc":
        recipe = gen.VacuumLCRecipe(
            signatures=_signatures(d, 4),
            psi=fn("psi"), b=fn("b"), b0=fn("b0", 0.0),
            n2=fn("n2", 0.0), n3=fn("n3", 0.0),
            h0=_field(d, "h0", _number, "recipe", 1.0), params=params)
        return family, recipe, gen.Source.vacuum(), fn.entries(family)

    src = source_from_dict(_field(d, "source", Mapping, "recipe", None), allowed)
    recipe = gen.SourcedLCRecipe(
        signatures=_signatures(d, 4),
        psi=fn("psi"), h4=fn("h4"), h5=fn("h5"),
        n2=fn("n2", 0.0), n3=fn("n3", 0.0), source=src, params=params)
    return family, recipe, src, fn.entries(family, src)


def flow_recipe_from_dict(d: Mapping):
    """Build (family, recipe, entries) from a flow recipe document."""
    family = _field(d, "family", str, "flow recipe")
    params = _field(d, "params", _names, "flow recipe", ())
    fns = _field(d, "functions", Mapping, "flow recipe")
    lam = _field(d, "lambda", _number, "flow recipe", 0.0)
    if family not in _FLOW_VARS:
        raise ConfigError(f"unknown flow family {family!r}")
    fn = _Functions(fns, _FLOW_VARS[family] + params)

    if family == "flow_solrf1":
        return family, rf.FlowRecipe(
            signatures=_signatures(d, 5),
            varpi=fn("varpi"), h5=fn("h5"), h0fn=fn("h0", 1.0),
            varsigma40=fn("varsigma40", 1.0), n1fn=fn("n1", 0.0),
            n2fn=fn("n2", 0.0), lam=lam,
            v0=_field(d, "v0", _number, "flow recipe", 1.0),
            params=params), fn.entries(family)

    return family, rf.LCFlowRecipe(
        signatures=_signatures(d, 4),
        psi=fn("psi"), h4=fn("h4"), h5=fn("h5"),
        w2=fn("w2", 0.0), w3=fn("w3", 0.0), n2=fn("n2", 0.0),
        lam=lam, params=params), fn.entries(family)


def chi_samples_from_dict(d: Mapping) -> tuple:
    spec = d.get("chi")
    if spec is None:
        return (0.0,)
    if not isinstance(spec, Mapping):
        try:
            if isinstance(spec, list) and spec:
                return tuple(map(_number, spec))
        except (TypeError, ValueError, OverflowError):
            pass
        raise ConfigError("chi needs min, max, count (or an explicit list)")
    lo, hi, count = _axis(spec, "chi")
    if count < 1:
        raise ConfigError("chi count must be >= 1")
    if count == 1:
        return (lo,)
    step = (hi - lo) / (count - 1)
    return tuple(lo + k * step for k in range(count))


# ---------------------------------------------------------------------------
# command configs; ``tolerance`` and ``seed`` are command-line overrides
# ---------------------------------------------------------------------------

GenerateConfig = namedtuple("GenerateConfig",
                            "family recipe source entries grid tol params")
VerifyConfig = namedtuple("VerifyConfig", "metric grid source tol seed checks "
                                          "params oracle_points oracle_tol summary")
FlowConfig = namedtuple("FlowConfig", "family recipe entries grid chis tol")
TransformConfig = namedtuple("TransformConfig", "seed grid tol xi steps")


def _metric_field(d: Mapping, key: str, ctx: str) -> gen.GeneratedMetric:
    """The metric document ``d[key]`` gives inline or by path."""
    doc = _field(d, key, (str, Mapping), ctx)
    return metric_from_dict(load_json(doc) if isinstance(doc, str) else doc)


def generate_config(d: Mapping, tolerance=None) -> GenerateConfig:
    family, recipe, src, entries = recipe_from_dict(d)
    grid = grid_from_dict(_field(d, "grid", object, "recipe"))
    return GenerateConfig(family, recipe, src, entries, grid,
                          _tolerance(d, "recipe", 1e-10, tolerance),
                          _bindings(d, "param_values", "recipe", recipe.params, grid))


def verify_config(d: Mapping, tolerance=None, seed=None) -> VerifyConfig:
    ctx = "verify config"
    gm = _metric_field(d, "metric", ctx)
    grid = grid_from_dict(_field(d, "grid", object, ctx))
    source = source_from_dict(_field(d, "source", Mapping, ctx, None),
                              gm.chart.all_names)
    if (points := _field(d, "oracle_points", _count, ctx, 50)) < 1:
        raise ConfigError(f"oracle_points must be at least 1, got {points}")
    return VerifyConfig(
        gm, grid, source, _tolerance(d, ctx, 1e-8, tolerance),
        _field(d if seed is None else {"seed": seed}, "seed", _count, ctx, 0),
        _field(d, "checks", _check_groups, ctx, ("ricci", "oracles")),
        _bindings(d, "params", ctx, gm.chart.params, grid) or None, points,
        _positive(d, "oracle_tolerance", ctx, 1e-9),
        _field(d, "summary", str, ctx, "") or None)


def flow_config(d: Mapping, tolerance=None) -> FlowConfig:
    family, recipe, entries = flow_recipe_from_dict(d)
    grid = grid_from_dict(_field(d, "grid", object, "flow config"))
    return FlowConfig(family, recipe, entries, grid, chi_samples_from_dict(d),
                      _tolerance(d, "flow config", 1e-7, tolerance))


def _polarizations(d: Mapping, chart: Chart, ctx: str) -> gr.Polarizations:
    n, m, allowed = chart.n, chart.m, chart.all_names
    eta_h = _exprs(d, "eta_h", n, allowed, ctx, [1] * n)
    eta_v = _exprs(d, "eta_v", m, allowed, ctx, [1] * m)
    rows = _field(d, "eta_n", list, ctx, [[1] * m] * n)
    if len(rows) != n or not all(isinstance(r, list) and len(r) == m for r in rows):
        raise ConfigError(f"'eta_n' in {ctx} must list {n} rows of {m} expressions")
    try:
        return gr.Polarizations.build(
            eta_h, eta_v, [[parse_expr(c, allowed, "eta_n") for c in r] for r in rows])
    except gr.ZeroPolarization as err:
        raise ConfigError(f"{ctx}: {err}") from None


def transform_config(d: Mapping, tolerance=None) -> TransformConfig:
    """The seed metric (a 5D seed reduced to its 4D slice), the Killing
    covector and the transform steps of a transform config."""
    ctx = "transform config"
    gm = _metric_field(d, "seed", ctx)
    if gm.chart.dim == 5:
        try:
            gm = gr.drop_trivial_x1(gm)
        except ValueError as err:
            raise ConfigError(f"seed: {err}") from None
    grid = grid_from_dict(_field(d, "grid", object, ctx))
    tol = _tolerance(d, ctx, 1e-8, tolerance)
    allowed, dim = gm.chart.all_names, gm.chart.dim
    xi = (gr.KillingData.build(_exprs(d, "xi", dim, allowed, ctx))
          if _field(d, "xi", list, ctx, None) else None)

    steps_doc = _field(d, "steps", list, ctx, None)
    if steps_doc is None:
        steps_doc = [{"kind": "geroch", "theta": _field(d, "theta", _number, ctx, 0.0),
                      "potentials": _field(d, "potentials", Mapping, ctx)}]
    steps = []
    for k, sd in enumerate(steps_doc):
        where = f"steps[{k}]"
        if not isinstance(sd, Mapping):
            raise ConfigError(f"{where} in {ctx} must be an object, got {sd!r}")
        kind = sd.get("kind", "geroch")
        if kind == "geroch":
            if xi is None:
                raise ConfigError("transform steps need a Killing covector 'xi'")
            pd = _field(sd, "potentials", Mapping, where)
            omega = parse_expr(pd.get("omega", 0), allowed, "potentials.omega")
            pot = gr.GerochPotentials.build(omega, *(
                _exprs(pd, key, dim, allowed, f"{where}.potentials", [0] * dim,
                       f"potentials.{key}") for key in ("alpha", "beta", "mu")))
            steps.append(gr.GerochStep(_field(sd, "theta", _number, where, 0.0), xi, pot))
        elif kind == "deform":
            pd = _field(sd, "polarizations", Mapping, where)
            steps.append(gr.DeformStep(_polarizations(pd, gm.chart,
                                                      f"{where}.polarizations")))
        else:
            raise ConfigError(f"unknown step kind {kind!r}")
    return TransformConfig(gm, grid, tol, xi, steps)


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
    ch = _field(d, "chart", Mapping, "metric")
    try:
        chart = Chart(tuple(ch["x"]), tuple(ch["y"]), tuple(ch.get("params", ())))
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"metric chart: {err}") from None
    allowed = chart.all_names

    def mat(key, rows, cols):
        raw = _field(d, key, list, "metric")
        if len(raw) != rows or any(not isinstance(r, list) or len(r) != cols
                                   for r in raw):
            raise ConfigError(f"metric block {key!r} must be {rows}x{cols}")
        return tuple(tuple(parse_expr(c, allowed, f"{key}[{i}][{j}]")
                           for j, c in enumerate(row))
                     for i, row in enumerate(raw))

    g = mat("g", chart.n, chart.n)
    h = mat("h", chart.m, chart.m)
    ncoef = mat("N", chart.n, chart.m)
    excluded = tuple(parse_expr(e, allowed, "excluded")
                     for e in _field(d, "excluded", list, "metric", ()))
    return gen.GeneratedMetric(chart, DMetric(g, h), NConnection(ncoef),
                               dict(_field(d, "provenance", Mapping, "metric", {})),
                               excluded)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed JSON in {path}: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return doc


def open_output(path: str):
    """``path`` opened for writing text as given; a path that cannot be
    written is a configuration error."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror or err}") from None


def dump_json(path: str, payload: dict) -> None:
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
