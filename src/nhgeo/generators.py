"""Exact-solution generators for the off-diagonal metric families.

Builds metrics from recipes of generating functions: the generic 5D class,
its 4D reduction, and the Levi-Civita-compatible vacuum and sourced 4D
families. Nothing here solves PDEs; recipes supply candidate functions and
every construction is residual-checked on grids.

The closed-form Ricci oracles at the bottom of the module are the reduced
curvature expressions for the ansatz

    g = e1 dx1^2 + g2 dx2^2 + g3 dx3^2 + h4 (dv + w_i dx^i)^2
        + h5 (dy5 + n_i dx^i)^2,

with a* = da/dv, a-bullet = da/dx2, a' = da/dx3. Their coefficients are
calibrated once against the general curvature engine (see the convention
tests); two coefficients differ from the commonly quoted reduced system,
which is recovered only on restricted coefficient classes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .geometry import (Chart, DMetric, NConnection, SingularMetric, chart_4d,
                       chart_5d, coordinate_metric)
from .numerics import Grid, GridExclusionError, grid_report

__all__ = [
    "DegenerateRecipe", "PhiConstant", "Source", "SolutionRecipe5D",
    "VacuumLCRecipe", "SourcedLCRecipe", "GeneratedMetric", "AuxCoeffs",
    "build_varsigma", "generate_5d", "generate_4d",
    "generate_vacuum_lc", "generate_sourced_lc", "aux_coeffs",
    "closed_r22", "closed_s44", "closed_r4i", "closed_r5i",
]


class DegenerateRecipe(ValueError):
    """A generating function violates its nondegeneracy precondition."""


class PhiConstant(DegenerateRecipe):
    """The v-sector coupling function is constant while a source is present."""


def _d2(e):
    return ex.diff(e, "x2")


def _d3(e):
    return ex.diff(e, "x3")


def _dv(e):
    return ex.diff(e, "v")


def _di(e, name):
    return ex.diff(e, name)


# ---------------------------------------------------------------------------
# sources and recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """Diagonal matter source: upsilon2(x2,x3,v) feeds the v-sector,
    upsilon4(x2,x3) the h-sector; lam is the constant-source shortcut."""

    upsilon2: ex.Expr
    upsilon4: ex.Expr
    lam: float | None = None

    def __post_init__(self):
        if "v" in self.upsilon4.free_vars:
            raise ValueError("h-sector source must not depend on v")

    @classmethod
    def vacuum(cls) -> "Source":
        return cls(ex.ZERO, ex.ZERO)

    @classmethod
    def constant(cls, lam: float) -> "Source":
        return cls(ex.const(lam), ex.const(lam), lam)

    @property
    def v_sector_vanishes(self) -> bool:
        return ex.is_zero(self.upsilon2)


@dataclass(frozen=True)
class SolutionRecipe5D:
    """Generating data for the generic off-diagonal 5D class.

    signatures: (e1..e5) each +-1; g2, g3 solve the 2D h-equation for the
    given source (residual-checked, never solved here); f must have f* != 0
    and f != f0 on every verification grid; n1_funcs/n2_funcs are the two
    integration-function families of the N-coefficient quadrature; v0 is the
    lower limit shared by all v-integrals.
    """

    signatures: tuple
    g2: ex.Expr
    g3: ex.Expr
    f: ex.Expr
    f0: ex.Expr
    h0: ex.Expr
    varsigma0: ex.Expr
    n1_funcs: tuple
    n2_funcs: tuple
    v0: float = 0.0
    params: tuple = ()

    def __post_init__(self):
        if len(self.signatures) != 5 or any(s not in (-1, 1) for s in self.signatures):
            raise ValueError("signatures must be five values of +-1")
        if len(self.n1_funcs) != 3 or len(self.n2_funcs) != 3:
            raise ValueError("need three n_k[1] and three n_k[2] functions")

    def fingerprint(self) -> str:
        blob = json.dumps({
            "sig": list(self.signatures),
            "fns": [ex.to_str(e) for e in
                    (self.g2, self.g3, self.f, self.f0, self.h0, self.varsigma0,
                     *self.n1_funcs, *self.n2_funcs)],
            "v0": self.v0,
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class VacuumLCRecipe:
    """Vacuum family whose canonical and Levi-Civita connections coincide:
    conformally flat h-part e^psi, v-part generated by b(x2,x3,v) with
    b* != 0, constant h0, and v-independent n2, n3."""

    signatures: tuple  # (e2, e3, e4, e5)
    psi: ex.Expr
    b: ex.Expr
    b0: ex.Expr
    n2: ex.Expr
    n3: ex.Expr
    h0: float = 1.0
    params: tuple = ()

    def __post_init__(self):
        if len(self.signatures) != 4 or any(s not in (-1, 1) for s in self.signatures):
            raise ValueError("signatures must be four values of +-1")


@dataclass(frozen=True)
class SourcedLCRecipe:
    """Sourced 4D family: user supplies psi, the v-sector pair (h4, h5) and
    v-independent n2, n3; the mixing coefficients w_i are derived from the
    coupling function phi."""

    signatures: tuple  # (e2, e3, e4, e5)
    psi: ex.Expr
    h4: ex.Expr
    h5: ex.Expr
    n2: ex.Expr
    n3: ex.Expr
    source: Source
    params: tuple = ()

    def __post_init__(self):
        if len(self.signatures) != 4 or any(s not in (-1, 1) for s in self.signatures):
            raise ValueError("signatures must be four values of +-1")


@dataclass(frozen=True)
class GeneratedMetric:
    """A constructed off-diagonal metric plus its provenance and the loci the
    verification grids must avoid (expressions whose zero set is excluded)."""

    chart: Chart
    metric: DMetric
    nconn: NConnection
    provenance: dict = field(default_factory=dict)
    excluded: tuple = ()

    def coordinate_components(self):
        return coordinate_metric(self.metric, self.nconn, self.chart)

    def check_grid(self, grid: Grid, min_abs: float = 1e-9, extra=None):
        """Raise DegenerateRecipe if the grid touches an excluded locus or a
        block of the metric is singular on it."""
        try:
            grid.check_exclusions(self.excluded, min_abs=min_abs, extra=extra)
            self.metric.validate_invertible(grid, extra=extra)
        except (GridExclusionError, SingularMetric) as err:
            raise DegenerateRecipe(str(err)) from None


@dataclass(frozen=True)
class AuxCoeffs:
    """The coupling functions of the reduced v-sector equations, in their
    conventional normalization: phi = ln|h5* / sqrt|h4 h5||, alpha_i = h5*
    d_i phi, beta = h5* phi*, gamma = (3/2) h5*/h5 - h4*/h4."""

    phi: ex.Expr
    alpha2: ex.Expr
    alpha3: ex.Expr
    beta: ex.Expr
    gamma: ex.Expr


def aux_coeffs(h4: ex.Expr, h5: ex.Expr) -> AuxCoeffs:
    phi = ex.ln(ex.abs_(ex.div(_dv(h5), ex.sqrt(ex.abs_(ex.mul(h4, h5))))))
    h5s = _dv(h5)
    return AuxCoeffs(
        phi=phi,
        alpha2=ex.mul(h5s, _d2(phi)),
        alpha3=ex.mul(h5s, _d3(phi)),
        beta=ex.mul(h5s, _dv(phi)),
        gamma=ex.sub(ex.div(ex.mul(3, h5s), ex.mul(2, h5)),
                     ex.div(_dv(h4), h4)),
    )


# ---------------------------------------------------------------------------
# closed-form oracles (engine-calibrated)
# ---------------------------------------------------------------------------

def closed_r22(g2: ex.Expr, g3: ex.Expr) -> ex.Expr:
    """Mixed Ricci component R^2_2 (= R^3_3) of the 2D block, closed form."""
    num = ex.add(
        ex.div(ex.mul(_d2(g2), _d2(g3)), ex.mul(2, g2)),
        ex.div(ex.pow_(_d2(g3), 2), ex.mul(2, g3)),
        ex.neg(_d2(_d2(g3))),
        ex.div(ex.mul(_d3(g2), _d3(g3)), ex.mul(2, g3)),
        ex.div(ex.pow_(_d3(g2), 2), ex.mul(2, g2)),
        ex.neg(_d3(_d3(g2))),
    )
    return ex.div(num, ex.mul(2, g2, g3))


def closed_s44(h4: ex.Expr, h5: ex.Expr) -> ex.Expr:
    """Mixed Ricci component S^4_4 (= S^5_5) of the v-sector, closed form."""
    lnroot = ex.ln(ex.sqrt(ex.abs_(ex.mul(h4, h5))))
    num = ex.sub(ex.mul(_dv(h5), _dv(lnroot)), _dv(_dv(h5)))
    return ex.div(num, ex.mul(2, h4, h5))


def closed_r4i(h4: ex.Expr, h5: ex.Expr, w_i: ex.Expr, xi: str) -> ex.Expr:
    """Mixed Ricci block R_{4i}: (w_i beta - alpha_i) / (2 h5).

    The relative sign between the two terms is fixed by the curvature engine
    (so that R_{4i} = 0 is solved by w_i = d_i phi / phi*).
    """
    aux = aux_coeffs(h4, h5)
    alpha = {"x2": aux.alpha2, "x3": aux.alpha3}.get(xi)
    if alpha is None:
        alpha = ex.mul(_dv(h5), _di(aux.phi, xi))
    return ex.div(ex.sub(ex.mul(w_i, aux.beta), alpha),
                  ex.mul(2, h5))


def closed_r5i(h4: ex.Expr, h5: ex.Expr, n_i: ex.Expr) -> ex.Expr:
    """Mixed Ricci block R_{5i}: -(h5 / 2 h4) [n_i** + gamma_eng n_i*] with
    gamma_eng = (3/2) h5*/h5 - (1/2) h4*/h4 (engine-calibrated damping)."""
    gamma_eng = ex.sub(ex.div(ex.mul(3, _dv(h5)), ex.mul(2, h5)),
                       ex.div(_dv(h4), ex.mul(2, h4)))
    ns = _dv(n_i)
    return ex.mul(ex.neg(ex.div(h5, ex.mul(2, h4))),
                  ex.add(_dv(ns), ex.mul(gamma_eng, ns)))


# ---------------------------------------------------------------------------
# the shared construction: block assembly, phi-mixing, LC selection
# ---------------------------------------------------------------------------

def _assemble(chart: Chart, g_diag, h4: ex.Expr, h5: ex.Expr, w, n,
              provenance: dict, excluded: tuple, grid: Grid | None = None,
              extra=None, min_abs: float = 1e-9) -> GeneratedMetric:
    """The metric with diagonal blocks g_diag and [h4, h5] and N rows
    [w_i, n_i], checked on the grid when one is given."""
    out = GeneratedMetric(chart, DMetric.diagonal(g_diag, [h4, h5]),
                          NConnection.build(list(zip(w, n))),
                          provenance=provenance, excluded=excluded)
    if grid is not None:
        out.check_grid(grid, min_abs=min_abs, extra=extra)
    return out


def _conformal(signatures, psi: ex.Expr) -> list:
    """The conformally flat h-block [e2 e^psi, e3 e^psi] of the 4D families."""
    epsi = ex.exp(psi)
    return [ex.mul(signatures[0], epsi), ex.mul(signatures[1], epsi)]


def _phi_mixing(phi: ex.Expr, grid: Grid, extra=None):
    """The mixing coefficients (w2, w3) with w_i = d_i phi / phi*, or None
    when phi* vanishes on the grid. The probe is numeric: structural zero
    detection is only sufficient, and coupling functions like phi* collapse
    to zero without simplifying to the zero tree."""
    phistar = _dv(phi)
    if ex.is_zero(phistar):
        return None
    vals, _ = grid.evaluate(phistar, extra)
    if np.max(np.abs(vals)) < 1e-12:
        return None
    return ex.div(_d2(phi), phistar), ex.div(_d3(phi), phistar)


def _lc_selection(signatures, psi: ex.Expr, h4: ex.Expr, h5: ex.Expr, w, n,
                  rhs, v_reading: str = "consistent", phi: ex.Expr | None = None):
    """The constraints under which the canonical d-connection of a conformal
    4D family equals its Levi-Civita connection, for the right-hand side rhs
    (0 in vacuum, Upsilon_2 with a source, lam along a flow).

    Returns {label: expressions} in report order: the psi equation, the
    v-sector coupling in the reading ``v_reading`` (left out without the
    coupling function phi), w-compatibility, the n-curl and the h4/h5
    transports.
    """
    if v_reading not in ("consistent", "literal"):
        raise ValueError("v_reading must be 'consistent' or 'literal'")
    e2, e3 = signatures[:2]
    (w2, w3), (n2, n3) = w, n
    h5s = _dv(h5)
    lines = {"psi-equation": [ex.sub(ex.add(ex.mul(e2, _d2(_d2(psi))),
                                            ex.mul(e3, _d3(_d3(psi)))), rhs)]}
    if phi is not None:
        if v_reading == "consistent":
            v_eq = ex.div(ex.mul(h5s, _dv(phi)), ex.mul(2, h4, h5))
        else:
            v_eq = ex.div(ex.mul(h5s, phi), ex.mul(h4, h5))
        lines["v-coupling"] = [ex.sub(v_eq, rhs)]
    pairs = (("x2", w2), ("x3", w3))
    lines.update({
        "w-compat": [ex.add(_d3(w2), ex.neg(_d2(w3)),
                            ex.mul(w3, _dv(w2)), ex.neg(ex.mul(w2, _dv(w3))))],
        "n-curl": [ex.sub(_d3(n2), _d2(n3))],
        "h4-transport": [ex.add(_di(h4, name), ex.neg(ex.mul(wk, _dv(h4))),
                                ex.neg(ex.mul(2, _dv(wk), h4)))
                         for name, wk in pairs],
        "h5-transport": [ex.sub(_di(h5, name), ex.mul(wk, h5s))
                         for name, wk in pairs],
    })
    return lines


# ---------------------------------------------------------------------------
# the generic 5D / 4D generator
# ---------------------------------------------------------------------------

def build_varsigma(recipe: SolutionRecipe5D, src: Source) -> ex.Expr:
    """v-sector conformal factor: varsigma0 - (e4/8) h0^2 * integral of
    Upsilon_2 f* (f - f0) dv from v0. Vacuum sources leave varsigma0."""
    if src.v_sector_vanishes:
        return recipe.varsigma0
    e4 = recipe.signatures[3]
    integrand = ex.mul(src.upsilon2, _dv(recipe.f),
                       ex.sub(recipe.f, recipe.f0))
    return ex.sub(
        recipe.varsigma0,
        ex.mul(e4 / 8.0, ex.pow_(recipe.h0, 2), ex.intv(integrand, recipe.v0)))


def _generate(recipe: SolutionRecipe5D, src: Source, chart: Chart,
              grid: Grid | None, min_abs: float, extra) -> GeneratedMetric:
    """The generic construction on the rows of the chart: x1..x3 in 5D,
    x2, x3 in the 4D reduction."""
    e1, e2, e3, e4, e5 = recipe.signatures
    f = recipe.f
    fstar = _dv(f)
    fdiff = ex.sub(f, recipe.f0)
    varsigma = build_varsigma(recipe, src)

    h4 = ex.mul(e4, ex.pow_(recipe.h0, 2), ex.pow_(fstar, 2),
                ex.abs_(varsigma))
    h5 = ex.mul(e5, ex.pow_(fdiff, 2))

    rows = range(3 - chart.n, 3)
    if src.v_sector_vanishes:
        # varsigma is v-independent: the mixing quadrature degenerates to 0/0
        # and the canonical representative w_i = 0 is taken.
        w = [ex.ZERO for _ in rows]
    else:
        vs_star = _dv(varsigma)
        w = [ex.neg(ex.div(_di(varsigma, f"x{k + 1}"), vs_star)) for k in rows]

    n_integrand = ex.mul(ex.div(ex.pow_(fstar, 2), ex.pow_(fdiff, 3)),
                         varsigma)
    profile = ex.intv(n_integrand, recipe.v0)
    n = [recipe.n1_funcs[k] if ex.is_zero(recipe.n2_funcs[k])
         else ex.add(recipe.n1_funcs[k], ex.mul(recipe.n2_funcs[k], profile))
         for k in rows]
    g_diag = [ex.const(e1), ex.mul(e2, recipe.g2), ex.mul(e3, recipe.g3)]
    return _assemble(
        chart, g_diag[3 - chart.n:], h4, h5, w, n,
        provenance={"family": f"gensol1_{chart.dim}d",
                    "recipe": recipe.fingerprint(),
                    "vacuum_v_sector": src.v_sector_vanishes},
        excluded=(fstar, fdiff, varsigma), grid=grid, extra=extra,
        min_abs=min_abs)


def generate_5d(recipe: SolutionRecipe5D, src: Source,
                grid: Grid | None = None, min_abs: float = 1e-9,
                extra=None) -> GeneratedMetric:
    """Assemble the generic off-diagonal 5D metric for the given recipe."""
    return _generate(recipe, src, chart_5d(recipe.params), grid, min_abs, extra)


def generate_4d(recipe: SolutionRecipe5D, src: Source,
                grid: Grid | None = None, min_abs: float = 1e-9,
                extra=None) -> GeneratedMetric:
    """4D reduction: the same construction with the trivial x1 row dropped.

    All recipe functions must be independent of x1; the k = 2, 3 integration
    functions are kept and the outputs coincide with the 5D ones on shared
    coordinates.
    """
    for e in (recipe.g2, recipe.g3, recipe.f, recipe.f0, recipe.h0,
              recipe.varsigma0, *recipe.n1_funcs[1:], *recipe.n2_funcs[1:]):
        if "x1" in e.free_vars:
            raise DegenerateRecipe("4D reduction requires x1-independent functions")
    return _generate(recipe, src, chart_4d(recipe.params), grid, min_abs, extra)


# ---------------------------------------------------------------------------
# Levi-Civita-compatible 4D families
# ---------------------------------------------------------------------------

def generate_vacuum_lc(recipe: VacuumLCRecipe, grid: Grid, tol: float = 1e-10,
                       extra=None):
    """Vacuum family with coinciding canonical/LC connections.

    Returns the metric and residual reports for the three selection
    constraints: harmonicity of psi, the w-compatibility equation and the
    n-curl equation. Passing all three (the w one holds identically for the
    gradient-type w built here when b0 is compatible) puts the metric in the
    regime where the two connections share coefficients.
    """
    e4, e5 = recipe.signatures[2:]
    bstar = _dv(recipe.b)
    bb = ex.add(recipe.b, recipe.b0)
    h4 = ex.mul(e4, recipe.h0 ** 2, ex.pow_(bstar, 2))
    h5 = ex.mul(e5, ex.pow_(bb, 2))
    w = (ex.div(_d2(bb), bstar), ex.div(_d3(bb), bstar))
    n = (recipe.n2, recipe.n3)
    lines = _lc_selection(recipe.signatures, recipe.psi, h4, h5, w, n, ex.ZERO)
    metric = _assemble(chart_4d(recipe.params),
                       _conformal(recipe.signatures, recipe.psi), h4, h5, w, n,
                       provenance={"family": "vacuum_lc"}, excluded=(bstar,),
                       grid=grid, extra=extra)
    reports = [grid_report(label, lines[key], grid, tol, extra) for label, key in (
        ("psi-harmonic", "psi-equation"), ("w-compat", "w-compat"),
        ("n-curl", "n-curl"))]
    return metric, reports


def generate_sourced_lc(recipe: SourcedLCRecipe, grid: Grid, tol: float = 1e-10,
                        v_reading: str = "consistent", extra=None):
    """Sourced 4D family with derived w_i = d_i phi / phi*.

    Residual reports: the psi equation, the v-sector coupling equation, the
    w-compatibility and n-curl equations, and the two transport conditions
    tying (h4, h5, w) together. The v-sector line has two published readings;
    ``consistent`` (default) uses h5* phi* / (2 h4 h5) = Upsilon_2, which is
    the one compatible with the closed form of S^4_4 and with the vacuum
    limit; ``literal`` uses h5* phi / (h4 h5) = Upsilon_2 as printed.
    """
    h4, h5 = recipe.h4, recipe.h5
    phi = aux_coeffs(h4, h5).phi
    w = _phi_mixing(phi, grid, extra)
    if w is None:
        if not recipe.source.v_sector_vanishes:
            raise PhiConstant(
                "phi* = 0 while the v-sector source is nonzero; "
                "this family needs phi != const")
        w = (ex.ZERO, ex.ZERO)
    n = (recipe.n2, recipe.n3)
    lines = _lc_selection(recipe.signatures, recipe.psi, h4, h5, w, n,
                          recipe.source.upsilon2, v_reading, phi)
    metric = _assemble(chart_4d(recipe.params),
                       _conformal(recipe.signatures, recipe.psi), h4, h5, w, n,
                       provenance={"family": "sourced_lc"},
                       excluded=(h4, h5, _dv(h5)), grid=grid, extra=extra)
    return metric, [grid_report(label, exprs, grid, tol, extra)
                    for label, exprs in lines.items()]
