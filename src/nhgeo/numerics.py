"""Quadrature, sample grids and residual-norm bookkeeping.

The generator formulas need definite integrals along the anisotropy
coordinate v; everything here is plain adaptive Simpson with a Richardson
error estimate. Residual checks are collected in ResidualReport objects, the
toolkit's universal notion of "this metric solves equation X to tolerance
tau". evaluate_on_grid is the one array evaluator, and names the grid point
of an evaluation error. Grid.evaluate runs it on the sub-grid of the axes the
expressions read (generated metrics never depend on y5, and most reports read
one or two axes) and names the point of the full grid. grid_report is the
only path from expressions to a max-abs ResidualReport; it evaluates a
report's expressions as one program (expr.Program) on the calling thread on
that sub-grid, and the report keeps the values there. A report's points are
a Grid or Points (sampled columns); the point set owns its coordinate
columns, the spreading of sub-grid values to every point and its CSV text
as head-by-tail factors: a report's CSV is one joined block per head point
(a point of a grid's outer half of axes; Points have one head), its head
text before each tail text of its trailer values (the head axes read by the
residuals or placed in a later column).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import expr as ex

__all__ = [
    "Quadrature", "Grid", "SampledGrid", "ResidualReport", "MaxDepthExceeded",
    "GridExclusionError", "adaptive_simpson", "integrate_v",
    "DEFAULT_QUADRATURE", "grid_report",
]


class MaxDepthExceeded(ex.EvalError):
    def __init__(self, a: float, b: float, depth: int):
        super().__init__(
            f"adaptive Simpson did not converge on [{a}, {b}] within depth {depth}")


class GridExclusionError(ValueError):
    """A grid point lies on an excluded locus: ``locus`` is the expression
    and ``point`` the first grid point (C order) within reach of its zeros."""

    def __init__(self, locus: ex.Expr, point: dict):
        self.locus, self.point = locus, point
        super().__init__(
            f"grid point {point} lies on excluded locus {ex.to_str(locus)} = 0")


@dataclass(frozen=True)
class Quadrature:
    """Adaptive Simpson configuration. The returned value carries a Richardson
    error estimate <= abs_tol, or MaxDepthExceeded is raised."""

    abs_tol: float = 1e-12
    max_depth: int = 48


DEFAULT_QUADRATURE = Quadrature()


def _simpson(f, a, fa, m, fm, b, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, m, fm, b, fb, whole, tol, depth, max_depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, fa, lm, flm, m, fm)
    right = _simpson(f, m, fm, rm, frm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= max_depth:
        raise MaxDepthExceeded(a, b, max_depth)
    half = 0.5 * tol
    return (_adaptive(f, a, fa, lm, flm, m, fm, left, half, depth + 1, max_depth)
            + _adaptive(f, m, fm, rm, frm, b, fb, right, half, depth + 1, max_depth))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Definite integral of f over [a, b] (b < a flips the sign)."""
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, q)
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    for v in (fa, fm, fb):
        if not math.isfinite(v):
            raise ex.DomainError(f"integrand is not finite on [{a}, {b}]")
    whole = _simpson(f, a, fa, m, fm, b, fb)
    return _adaptive(f, a, fa, m, fm, b, fb, whole, q.abs_tol, 0, q.max_depth)


def integrate_v(e: ex.Expr, fixed: Mapping[str, float], v0: float, v1: float,
                q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """Integrate an expression in v over [v0, v1] with all other variables
    bound by ``fixed``."""
    env = dict(fixed)

    def f(t: float) -> float:
        env[ex.V_NAME] = t
        return float(ex.evaluate(e, env))

    return adaptive_simpson(f, v0, v1, q)


# ---------------------------------------------------------------------------
# point sets: grids and sampled points
# ---------------------------------------------------------------------------

class Points:
    """Points given by their coordinate columns, the caller's 1-D arrays,
    shared and not copied (the oracle's random samples); a report's values
    on them are at every point, and its text is one block."""

    def __init__(self, cols: Mapping[str, np.ndarray]):
        # ValueError unless there are columns and they share one length
        (self.size,) = {c.size for c in cols.values()}
        self.cols, self.names = cols, tuple(cols)

    def arrays(self) -> Mapping[str, np.ndarray]:
        return self.cols

    def point(self, row: int) -> dict:
        return {n: float(c[row]) for n, c in self.cols.items()}

    def expand(self, values: np.ndarray, reads: frozenset) -> np.ndarray:
        return values

    def coordinate_text(self, columns: Sequence[str]) -> list:
        """Every point's fields under the column layout ``columns``, each
        followed by a comma (blank for a column that is not a coordinate);
        built once per layout, for all the reports on these points."""
        key = tuple(columns)
        if key not in self._texts:
            self._texts[key] = self._text(key)
        return self._texts[key]

    @functools.cached_property
    def _texts(self) -> dict:
        return {}

    def text_factors(self, key: tuple, texts: np.ndarray, reads: frozenset) -> tuple:
        """``(heads, codes, tails)`` as ``Grid.text_factors`` gives them: one
        blank head and one tail list, each point's coordinate text followed
        by its residual text."""
        rows = self.coordinate_text(key)
        return [""], [0], [["", *map(str.__add__, rows, texts.tolist())]]

    def _text(self, key: tuple) -> list:
        """The fields of all points laid out in one list, point after point,
        then joined once and split at a row separator that no float text
        holds."""
        n, width = self.size, len(key) + 1
        pieces = [","] * (width * n)
        for k, c in enumerate(key):
            if c in self.cols:
                pieces[k::width] = _float_texts(self.cols[c], ",").tolist()
        pieces[width - 1::width] = ["\n"] * n
        rows = "".join(pieces).split("\n")
        rows.pop()
        return rows


@dataclass(frozen=True)
class Grid:
    """Cartesian sample grid: per-variable (min, max, count), count >= 2."""

    axes: tuple  # tuple of (name, lo, hi, count)

    def __post_init__(self):
        seen = set()
        for name, lo, hi, count in self.axes:
            if count < 2:
                raise ValueError(f"axis {name!r} needs count >= 2, got {count}")
            if not (hi > lo):
                raise ValueError(f"axis {name!r} needs max > min")
            if name in seen:
                raise ValueError(f"duplicate axis {name!r}")
            seen.add(name)

    @classmethod
    def build(cls, spec: Mapping[str, tuple]) -> "Grid":
        return cls(tuple((name, float(lo), float(hi), int(count))
                         for name, (lo, hi, count) in spec.items()))

    @property
    def names(self) -> tuple:
        return tuple(a[0] for a in self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(a[3] for a in self.axes)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @functools.cached_property
    def _nest(self) -> tuple:
        """(name, values) of every axis, outermost first: the points are
        their product in C order."""
        return tuple((name, np.linspace(lo, hi, n)) for name, lo, hi, n in self.axes)

    def arrays(self) -> Mapping[str, np.ndarray]:
        """Flattened meshgrid columns, deterministic C order; built once per
        grid, read-only."""
        return self._sub(frozenset(self.names))[0]

    def _sub(self, reads: frozenset) -> tuple:
        """The read-only columns of the axes in ``reads`` at the points of
        their sub-grid (C order), and this grid's shape with 1 for every
        axis outside ``reads``; built once per set of names."""
        sub = self._subgrids.get(reads)
        if sub is None:
            nest = [(name, vals) for name, vals in self._nest if name in reads]
            grids = np.meshgrid(*(vals for _, vals in nest), indexing="ij")
            cols = {name: g.reshape(-1) for (name, _), g in zip(nest, grids)}
            for c in cols.values():
                c.flags.writeable = False
            shape = tuple(len(vals) if name in reads else 1 for name, vals in self._nest)
            cols = MappingProxyType({n: cols[n] for n in self.names if n in reads})
            sub = self._subgrids[reads] = cols, shape
        return sub

    @functools.cached_property
    def _subgrids(self) -> dict:
        return {}

    def sampled(self, name: str, samples: Sequence[float]) -> "SampledGrid":
        """This grid once per sample of ``name``; one SampledGrid, so one set
        of columns, per name and sample tuple."""
        samples = tuple(map(float, samples))
        key = (name, np.asarray(samples).tobytes())
        return self._sampled.setdefault(key, SampledGrid(self.axes, name, samples))

    @functools.cached_property
    def _sampled(self) -> dict:
        return {}

    def evaluate(self, e: ex.Expr | Sequence[ex.Expr],
                 extra: Mapping[str, float] | None = None) -> tuple:
        """``(values, reads)``: ``evaluate_on_grid`` of ``e`` on the sub-grid
        of the axes ``reads`` that ``e`` reads, one point per combination of
        their values in this grid's C order (one point when it reads none).

        An ``ex.EvalError`` leaves with the row and the point of this grid:
        the first row with the failing values of the read axes."""
        exprs = [e] if isinstance(e, ex.Expr) else e
        reads = frozenset(self.names).intersection(
            frozenset().union(*(x.free_vars for x in exprs)))
        try:
            return evaluate_on_grid(e, self._sub(reads)[0], extra=extra), reads
        except ex.EvalError as err:
            err.row, err.point = self._point(reads, err.row, extra)
            raise

    def point(self, row: int) -> dict:
        """The coordinates of point ``row`` (C order), in column order."""
        at = np.unravel_index(row, self.shape)
        coords = {name: float(vals[i]) for (name, vals), i in zip(self._nest, at)}
        return {name: coords[name] for name in self.names}

    def _point(self, reads, sub_row, extra):
        """The first row of this grid (C order) at the point ``sub_row`` of
        the sub-grid of ``reads``, unread axes at their first value, and its
        point: the grid columns, then the ``extra`` bindings."""
        at = np.unravel_index(sub_row, self._sub(reads)[1])
        row = int(np.ravel_multi_index(at, self.shape))
        point = self.point(row)
        point.update((k, float(v)) for k, v in (extra or {}).items())
        return row, point

    def expand(self, values: np.ndarray, reads: frozenset) -> np.ndarray:
        """Sub-grid values of ``reads`` at every point of this grid, C order."""
        out = np.empty(self.shape, dtype=values.dtype)
        out[...] = values.reshape(self._sub(reads)[1])
        return out.reshape(-1)

    def check_exclusions(self, exprs: Iterable[ex.Expr], min_abs: float = 1e-9,
                         extra: Mapping[str, float] | None = None) -> None:
        """Raise if any grid point lies within min_abs of an excluded locus
        (an expression whose zero set must be avoided), one locus at a time;
        the point gives the grid columns, then the ``extra`` bindings."""
        for e in exprs:
            vals, reads = self.evaluate(e, extra)
            bad = np.abs(vals) < min_abs
            if np.any(bad):
                _, point = self._point(reads, int(np.argmax(bad)), extra)
                raise GridExclusionError(e, point)

    def text_factors(self, key: tuple, texts: np.ndarray, reads: frozenset) -> tuple:
        """``(heads, codes, tails)``, the CSV text of this grid's points under
        the layout ``key`` with the residual texts ``texts`` of the sub-grid
        of ``reads``: the row of head point h and tail point t is
        ``heads[h] + tails[codes[h]][t + 1]``, each axis value formatted once.

        The nest axes split in half, the outer ones the head axes. heads holds
        every head point's text of the leading columns up to the first
        tail-axis column. The trailer axes are the head axes that ``texts``
        reads or that have a later column; tails holds one list per
        combination of their values: ``""``, then every tail point's text of
        the later columns and its residual text.
        """
        nest, lens, half = self._nest, self.shape, len(self._nest) // 2
        pos = {name: k for k, (name, _) in enumerate(nest)}
        split = next((i for i, c in enumerate(key) if pos.get(c, -1) >= half), len(key))
        trailer = {pos[c] for c in key[split:] if c in pos} | {pos[n] for n in reads}
        rest = [n if k >= half or k in trailer else 1 for k, n in enumerate(lens)]

        def field(c):  # a grid column's texts along its nest axis, else a blank
            if c not in pos:
                return ","
            return np.array([repr(x) + "," for x in nest[pos[c]][1].tolist()],
                            dtype=object).reshape(
                [n if k == pos[c] else 1 for k, n in enumerate(lens)])

        heads = _concat(map(field, key[:split]),
                        [n if k < half else 1 for k, n in enumerate(lens)])
        trailers = math.prod(rest[:half])
        codes = np.broadcast_to(np.arange(trailers).reshape(rest[:half]), lens[:half])
        tails = _concat([*map(field, key[split:]), texts.reshape(self._sub(reads)[1])],
                        rest)
        return (heads.reshape(-1).tolist(), codes.reshape(-1).tolist(),
                [["", *row] for row in tails.reshape(trailers, -1).tolist()])


def _concat(parts: Iterable, shape: Sequence[int]) -> np.ndarray:
    """The elementwise concatenation, in order, of strings and object arrays
    that broadcast to ``shape``, as an array of that shape."""
    return np.broadcast_to(np.asarray(functools.reduce(operator.add, parts, ""),
                                      dtype=object), shape)


@dataclass(frozen=True)
class SampledGrid(Grid):
    """A grid repeated once per sample of one more variable ``name`` (the
    grid x chi points of an evolution family); ``name`` is the last column
    and the outermost axis."""

    name: str
    samples: tuple

    @property
    def names(self) -> tuple:
        return (*super().names, self.name)

    @property
    def shape(self) -> tuple:
        return (len(self.samples), *super().shape)

    @functools.cached_property
    def _nest(self) -> tuple:
        return ((self.name, np.asarray(self.samples)), *Grid(self.axes)._nest)


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Sampled magnitude of an equation's left-minus-right side: ``values``
    at the points of the sub-grid of ``reads`` of a Grid (at every point of
    Points), and ``residuals`` at every point."""

    equation: str
    points: Grid | Points
    values: np.ndarray
    tolerance: float
    reads: frozenset = frozenset()

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        return self.points.expand(self.values, self.reads)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    @property
    def mean_abs(self) -> float:
        return float(np.mean(np.abs(self.residuals))) if self.residuals.size else 0.0

    @property
    def worst_at(self) -> dict | None:
        """Coordinates of the first point with the largest |residual| (None
        when there are no points)."""
        if not self.values.size:
            return None
        return self.points.point(int(np.argmax(np.abs(self.residuals))))

    @property
    def passed(self) -> bool:
        return self.max_abs <= self.tolerance

    @classmethod
    def from_grid(cls, equation: str, points: Grid | Points, values: np.ndarray,
                  tolerance: float, reads: frozenset = frozenset()) -> "ResidualReport":
        vals = np.atleast_1d(np.asarray(values, dtype=float)).reshape(-1)
        return cls(equation, points, vals, float(tolerance), reads)

    def summary_line(self) -> str:
        return f"EQ {self.equation} max={self.max_abs:.6e} pass={self.passed}"

    def summary_dict(self) -> dict:
        return {
            "equation": self.equation,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "points": self.points.size,
            "worst_at": self.worst_at,
        }

    def csv_rows(self, all_columns: Sequence[str]) -> list:
        """The report's CSV text under a fixed column layout, one line per
        point and no line without points; absent coordinates are blank.

        The text is a list of row blocks, one per head point of the point
        set (``text_factors``): each is one join of a tail list with the
        label and head text, so no string holds another head's lines.

        Lines end in CRLF, the label is quoted by the ``csv`` module's rules
        and floats are ``repr`` text: the point set's coordinate text, and
        each distinct float64 bit pattern of the values formatted once (so
        -0.0 and 0.0 keep their own text).
        """
        label = _csv_field(self.equation) + ","
        heads, codes, tails = self.points.text_factors(
            tuple(all_columns), _float_texts(self.values, "\r\n"), self.reads)
        return [(label + h).join(tails[c]) for h, c in zip(heads, codes)]


def _csv_field(text: str) -> str:
    """``text`` as one field of a multi-field CSV row (written with a blank
    second field, because csv writes a lone empty field as ``""``)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def _float_texts(col: np.ndarray, suffix: str) -> np.ndarray:
    """``repr(v) + suffix`` for every value of a float column (an object
    array)."""
    col = np.ascontiguousarray(col, dtype=np.float64)
    _, first, inverse = np.unique(col.view(np.uint64), return_index=True,
                                  return_inverse=True)
    texts = np.array([repr(v) + suffix for v in col[first].tolist()], dtype=object)
    return texts[inverse]


def reports_to_json(reports: Sequence[ResidualReport]) -> str:
    return json.dumps({"reports": [r.summary_dict() for r in reports],
                       "pass": all(r.passed for r in reports)}, indent=2)


def chunk_slices(total: int, jobs: int) -> list:
    """Static partition of range(total) into at most ``jobs`` contiguous slices."""
    jobs = max(1, min(jobs, total)) if total else 1
    step = -(-total // jobs)
    return [slice(i, min(i + step, total)) for i in range(0, total, step)]


def evaluate_on_grid(e: ex.Expr | Sequence[ex.Expr], cols: Mapping[str, np.ndarray],
                     jobs: int = 1,
                     extra: Mapping[str, float] | None = None) -> np.ndarray:
    """Evaluate one expression (1-D result) or a sequence of k expressions
    (``(k, n)`` result, one ``ex.Program`` over their union DAG, so shared
    subtrees and quadratures run once) over flattened grid columns,
    optionally in statically partitioned chunks that each run the program
    (pure evaluation, safe to run concurrently). An ``ex.EvalError`` leaves
    with ``point``, the columns and ``extra`` bindings at its failing row."""
    single = isinstance(e, ex.Expr)
    prog = ex.Program([e] if single else e)
    env = {**cols, **{k: float(v) for k, v in (extra or {}).items()}}
    sizes = [v.size for v in env.values() if isinstance(v, np.ndarray)]
    total = sizes[0] if sizes else 1
    out = np.empty((prog.size, total), dtype=float)
    try:
        if jobs <= 1 or total < 4:
            if total:
                prog.run(env, out)
        else:
            from concurrent.futures import ThreadPoolExecutor

            def work(sl: slice):
                sub = {k: (v[sl] if isinstance(v, np.ndarray) else v)
                       for k, v in env.items()}
                try:
                    prog.run(sub, out[:, sl])
                except ex.EvalError as err:
                    err.row += sl.start
                    raise

            slices = chunk_slices(total, jobs)
            with ThreadPoolExecutor(max_workers=len(slices)) as pool:
                list(pool.map(work, slices))
    except ex.EvalError as err:
        err.point = {k: float(v.flat[err.row]) if isinstance(v, np.ndarray)
                     else float(v) for k, v in env.items()}
        raise
    return out[0] if single else out


def grid_report(label: str, exprs: Iterable[ex.Expr], grid: Grid, tol: float,
                extra: Mapping[str, float] | None = None) -> ResidualReport:
    """Report of max |e| over ``exprs`` at every grid point.

    Structurally zero expressions are skipped; the rest are evaluated as one
    program on the calling thread, on the sub-grid of the axes they read
    (``Grid.evaluate``); the report holds the maxima at its points.
    ``extra`` binds further names for evaluation only.
    """
    live = [e for e in exprs if not (isinstance(e, ex.Const) and e.value == 0.0)]
    rows, reads = grid.evaluate(live, extra)
    vals = np.abs(rows[0]) if live else np.zeros(rows.shape[1])
    for row in rows[1:]:
        np.maximum(vals, np.abs(row), out=vals)
    return ResidualReport.from_grid(label, grid, vals, tol, reads)
