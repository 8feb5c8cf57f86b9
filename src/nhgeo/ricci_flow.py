"""Parameter-dependent solution families and evolution-equation residuals.

A flow family is a metric whose coefficients carry the evolution parameter
chi symbolically; there is no time stepping anywhere. The residuals of the
normalized evolution system for diagonal d-metrics are

    eq-h:  d_chi g_ii + 2 [R_ii - lam g_ii] + sum_c h_cc d_chi (N_i^c)^2
    eq-v:  d_chi h_aa + 2 (R_aa - lam h_aa)
    eq-off: R_{alpha beta} = 0 for alpha != beta

with R the canonical-connection Ricci tensor in the adapted frame, and the
unnormalized (lam = 0, coordinate-frame, Levi-Civita) residual is kept as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import expr as ex
from .generators import (DegenerateRecipe, GeneratedMetric, _assemble, _conformal,
                         _d2, _d3, _dv, _lc_selection, _phi_mixing, aux_coeffs)
from .geometry import (canonical_dconnection, chart_4d, chart_5d,
                       coordinate_lc_ricci, coordinate_metric, curvature_ricci)
from .numerics import Grid, ResidualReport, grid_report

__all__ = [
    "FlowFamily", "FlowRecipe", "LCFlowRecipe", "NonDiagonalFamily",
    "HorizontalCompatibilityError", "QuadratureCompatibilityError", "flow_residuals",
    "build_flow_solution", "build_lc_flow", "hamilton_residual",
    "flow_residual_components", "hamilton_residual_components",
]

CHI = "chi"


class NonDiagonalFamily(ValueError):
    """The evolution residuals are defined for diagonal d-metric families."""


class HorizontalCompatibilityError(DegenerateRecipe):
    """The conformal h-profile fails its compatibility equation."""

    def __init__(self, report: ResidualReport):
        self.report = report
        super().__init__(
            f"flow recipe violates the h-compatibility equation: "
            f"max residual {report.max_abs:.3e} > {report.tolerance:.1e}")


class QuadratureCompatibilityError(DegenerateRecipe):
    """The v-quadrature C(x2,x3) = h5 * integral is not v-independent."""

    def __init__(self, report: ResidualReport):
        self.report = report
        super().__init__(
            f"flow recipe violates the quadrature-compatibility condition: "
            f"max residual {report.max_abs:.3e} > {report.tolerance:.1e}")


@dataclass(frozen=True)
class FlowFamily:
    """A chi-parametrized metric family with its normalization constant."""

    metric: GeneratedMetric
    lam: float
    chi_samples: tuple

    def __post_init__(self):
        if not self.chi_samples:
            raise ValueError("need at least one chi sample")


def _dchi(e):
    return ex.diff(e, CHI)


# ---------------------------------------------------------------------------
# evolution residuals
# ---------------------------------------------------------------------------

def flow_residual_components(fam: FlowFamily):
    """Symbolic residual tables (eq-h per i, eq-v per a, off-diagonal list)."""
    gm = fam.metric
    chart, g, N = gm.chart, gm.metric, gm.nconn
    if not g.is_block_diagonal():
        raise NonDiagonalFamily("metric blocks must be diagonal")
    conn = canonical_dconnection(g, N, chart)
    ric = curvature_ricci(conn, g, N, chart)
    lam = fam.lam
    n, m = chart.n, chart.m

    eq_h = []
    for i in range(n):
        res = ex.add(_dchi(g.g[i][i]),
                     ex.mul(2, ex.sub(ric.hh(i, i), ex.mul(lam, g.g[i][i]))))
        for c in range(m):
            res = ex.add(res, ex.mul(g.h[c][c],
                                     _dchi(ex.pow_(N.entry(i, c), 2))))
        eq_h.append(res)

    eq_v = [ex.add(_dchi(g.h[a][a]),
                   ex.mul(2, ex.sub(ric.vv(a, a),
                                    ex.mul(lam, g.h[a][a]))))
            for a in range(m)]

    off = []
    d = chart.dim
    for b in range(d):
        for t in range(d):
            if b != t:
                off.append(ric.ricci[b][t])
    return eq_h, eq_v, off


def flow_residuals(fam: FlowFamily, grid: Grid, tol: float = 1e-10,
                   extra=None) -> list:
    """One report per evolution equation, evaluated on grid x the family's
    chi samples. ``extra`` binds any declared parameter names beyond chi."""
    eq_h, eq_v, off = flow_residual_components(fam)
    points = grid.sampled(CHI, fam.chi_samples)
    return [grid_report("evol-h", eq_h, points, tol, extra),
            grid_report("evol-v", eq_v, points, tol, extra),
            grid_report("ricci-offdiag", off, points, tol, extra)]


def hamilton_residual_components(fam: FlowFamily):
    """Coordinate-frame residual table of the unnormalized flow:
    d_chi g_{ab} + 2 Ric(LC)_{ab}."""
    gm = fam.metric
    chart, g, N = gm.chart, gm.metric, gm.nconn
    gcoord = coordinate_metric(g, N, chart)
    ric = coordinate_lc_ricci(g, N, chart)
    d = chart.dim
    return tuple(tuple(ex.add(_dchi(gcoord[a][b]),
                              ex.mul(2, ric[a][b]))
                       for b in range(d)) for a in range(d))


def hamilton_residual(fam: FlowFamily, grid: Grid, tol: float = 1e-10,
                      extra=None) -> ResidualReport:
    comps = hamilton_residual_components(fam)
    return grid_report("hamilton", [c for row in comps for c in row],
                       grid.sampled(CHI, fam.chi_samples), tol, extra)


# ---------------------------------------------------------------------------
# the integrable flow class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowRecipe:
    """Generating data for the chi-parametrized integrable class.

    varpi(x2,x3,chi) > 0 drives the conformal h-part; h5(x2,x3,v) with
    h5* != 0 the v-part; h0fn is the constant-coupling profile (constant for
    vacuum families); n1fn/n2fn(x2,x3,chi) are the N-integration functions;
    lam the normalization constant.
    """

    signatures: tuple  # (e1..e5)
    varpi: ex.Expr
    h5: ex.Expr
    h0fn: ex.Expr
    varsigma40: ex.Expr
    n1fn: ex.Expr
    n2fn: ex.Expr
    lam: float = 0.0
    v0: float = 1.0
    params: tuple = ()

    def __post_init__(self):
        if len(self.signatures) != 5 or any(s not in (-1, 1) for s in self.signatures):
            raise ValueError("signatures must be five values of +-1")


@dataclass(frozen=True)
class LCFlowRecipe:
    """chi-family constrained to evolve through Levi-Civita metrics."""

    signatures: tuple  # (e2, e3, e4, e5)
    psi: ex.Expr
    h4: ex.Expr
    h5: ex.Expr
    w2: ex.Expr
    w3: ex.Expr
    n2: ex.Expr
    lam: float = 0.0
    params: tuple = ()

    def __post_init__(self):
        if len(self.signatures) != 4 or any(s not in (-1, 1) for s in self.signatures):
            raise ValueError("signatures must be four values of +-1")


def build_flow_solution(recipe: FlowRecipe, grid: Grid,
                        chi_samples: Sequence[float],
                        tol: float = 1e-8, extra=None) -> FlowFamily:
    """Assemble the integrable chi-family and check it, and its two
    compatibility equations, on the grid at every chi sample; raises
    DegenerateRecipe / HorizontalCompatibilityError / QuadratureCompatibilityError."""
    e1, e2, e3, e4, e5 = recipe.signatures
    h5 = recipe.h5
    h5s = _dv(h5)
    root5 = ex.sqrt(ex.abs_(h5))
    rstar = _dv(root5)

    h_prof = ex.mul(e4, ex.pow_(recipe.h0fn, 2), ex.pow_(rstar, 2))
    if recipe.lam == 0.0:
        varsigma4 = recipe.varsigma40
    else:
        varsigma4 = ex.sub(
            recipe.varsigma40,
            ex.mul(recipe.lam / 4.0,
                   ex.intv(ex.div(ex.mul(h_prof, h5), h5s), recipe.v0)))
    h4 = ex.mul(h_prof, varsigma4)

    points = grid.sampled(CHI, chi_samples)
    w2, w3 = _phi_mixing(aux_coeffs(h4, h5).phi, points, extra) or (ex.ZERO, ex.ZERO)

    n_integrand = ex.div(h4, ex.pow_(root5, 3))
    if ex.is_zero(recipe.n2fn):
        n2 = recipe.n1fn
    else:
        n2 = ex.add(recipe.n1fn,
                    ex.mul(recipe.n2fn, ex.intv(n_integrand, recipe.v0)))

    metric = _assemble(
        chart_5d((*recipe.params, CHI)),
        [ex.const(e1), ex.mul(e2, recipe.varpi), ex.mul(e3, recipe.varpi)],
        h4, h5, (ex.ZERO, w2, w3), (ex.ZERO, n2, n2),
        provenance={"family": "flow_integrable", "lam": recipe.lam},
        excluded=(h5s, varsigma4, recipe.varpi), grid=points, extra=extra)

    if not ex.is_zero(recipe.n2fn):
        # C(x2,x3) = h5 * indefinite integral of h4/(sqrt|h5|)^3 must be
        # v-independent; with the free per-(x2,x3) integration constant this
        # is equivalent to d_v [ d_v(h5 I) / h5* ] = 0 for the definite I.
        prof = ex.mul(h5, ex.intv(n_integrand, recipe.v0))
        c_resid = _dv(ex.div(_dv(prof), h5s))
        crep = grid_report("quadrature-compat", [c_resid], points, tol, extra)
        if not crep.passed:
            raise QuadratureCompatibilityError(crep)

    lnv = ex.ln(ex.abs_(recipe.varpi))
    rfea1 = ex.add(ex.mul(e2, _d2(_d2(lnv))), ex.mul(e3, _d3(_d3(lnv))),
                   ex.mul(-2.0, recipe.lam),
                   ex.mul(h5, _dchi(ex.pow_(n2, 2))))
    rep = grid_report("h-compat", [rfea1], points, tol, extra)
    if not rep.passed:
        raise HorizontalCompatibilityError(rep)

    return FlowFamily(metric, recipe.lam, points.samples)


def build_lc_flow(recipe: LCFlowRecipe, grid: Grid, chi_samples: Sequence[float],
                  tol: float = 1e-10, v_reading: str = "consistent",
                  extra=None):
    """Assemble the Levi-Civita flow family, checked on the grid at every chi
    sample, and report its selection constraints (the four coupled equations
    plus the two transports)."""
    h4, h5 = recipe.h4, recipe.h5
    w, n = (recipe.w2, recipe.w3), (recipe.n2, recipe.n2)
    points = grid.sampled(CHI, chi_samples)
    lines = _lc_selection(recipe.signatures, recipe.psi, h4, h5, w, n,
                          recipe.lam, v_reading, aux_coeffs(h4, h5).phi)
    metric = _assemble(
        chart_4d((*recipe.params, CHI)), _conformal(recipe.signatures, recipe.psi),
        h4, h5, w, n, provenance={"family": "flow_lc", "lam": recipe.lam},
        excluded=(h4, h5, _dv(h5)), grid=points, extra=extra)
    reports = [grid_report("n-evolution" if label == "n-curl" else label,
                           exprs, points, tol, extra)
               for label, exprs in lines.items()]
    fam = FlowFamily(metric, recipe.lam, points.samples)
    return fam, reports
