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
from . import expr as ex
from .geometry import (Chart, DMetric, NConnection, chart_4d, chart_5d,
                       coordinate_metric)
from .numerics import Grid, GridExclusionError, ResidualReport, grid_report

__all__ = [
    "DegenerateRecipe", "PhiConstant", "Source", "SolutionRecipe5D",
    "VacuumLCRecipe", "SourcedLCRecipe", "GeneratedMetric", "AuxCoeffs",
    "check_h_equation", "build_varsigma", "generate_5d", "generate_4d",
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
    def is_vacuum(self) -> bool:
        return ex.is_zero(self.upsilon2) and ex.is_zero(self.upsilon4)

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
        """Raise DegenerateRecipe if the grid touches an excluded locus."""
        try:
            grid.check_exclusions(self.excluded, min_abs=min_abs, extra=extra)
        except GridExclusionError as err:
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
# the 2D h-sector check
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


def check_h_equation(g2: ex.Expr, g3: ex.Expr, upsilon4: ex.Expr, grid: Grid,
                     tol: float = 1e-10, extra=None) -> ResidualReport:
    """Residual of the 2D equation R^2_2 + Upsilon_4 = 0 on the grid."""
    cols = grid.arrays()
    res = ex.evaluate(ex.add(closed_r22(g2, g3), upsilon4),
                      {**cols, **(extra or {})})
    import numpy as np
    res = np.broadcast_to(np.asarray(res), (grid.size,))
    return ResidualReport.from_grid("h-equation", cols, res, tol)


# ---------------------------------------------------------------------------
# closed-form mixed-sector oracles (engine-calibrated)
# ---------------------------------------------------------------------------

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


def _generator_blocks(recipe: SolutionRecipe5D, src: Source):
    e1, e2, e3, e4, e5 = recipe.signatures
    f = recipe.f
    fstar = _dv(f)
    fdiff = ex.sub(f, recipe.f0)
    varsigma = build_varsigma(recipe, src)

    h4 = ex.mul(e4, ex.pow_(recipe.h0, 2), ex.pow_(fstar, 2),
                ex.abs_(varsigma))
    h5 = ex.mul(e5, ex.pow_(fdiff, 2))

    if src.v_sector_vanishes:
        # varsigma is v-independent: the mixing quadrature degenerates to 0/0
        # and the canonical representative w_i = 0 is taken.
        w = {name: ex.ZERO for name in ("x1", "x2", "x3")}
    else:
        vs_star = _dv(varsigma)
        w = {name: ex.neg(ex.div(_di(varsigma, name), vs_star))
             for name in ("x1", "x2", "x3")}

    n_integrand = ex.mul(ex.div(ex.pow_(fstar, 2), ex.pow_(fdiff, 3)),
                         varsigma)
    profile = ex.intv(n_integrand, recipe.v0)
    n = {}
    for k, name in enumerate(("x1", "x2", "x3")):
        nk1, nk2 = recipe.n1_funcs[k], recipe.n2_funcs[k]
        if ex.is_zero(nk2):
            n[name] = nk1
        else:
            n[name] = ex.add(nk1, ex.mul(nk2, profile))
    return varsigma, fstar, fdiff, h4, h5, w, n


def generate_5d(recipe: SolutionRecipe5D, src: Source,
                grid: Grid | None = None, min_abs: float = 1e-9,
                extra=None) -> GeneratedMetric:
    """Assemble the generic off-diagonal 5D metric for the given recipe."""
    e1, e2, e3, e4, e5 = recipe.signatures
    chart = chart_5d(recipe.params)
    varsigma, fstar, fdiff, h4, h5, w, n = _generator_blocks(recipe, src)
    g = DMetric.diagonal([ex.const(e1), ex.mul(e2, recipe.g2),
                          ex.mul(e3, recipe.g3)], [h4, h5])
    N = NConnection.build([[w["x1"], n["x1"]], [w["x2"], n["x2"]],
                           [w["x3"], n["x3"]]])
    out = GeneratedMetric(
        chart, g, N,
        provenance={"family": "gensol1_5d", "recipe": recipe.fingerprint(),
                    "vacuum_v_sector": src.v_sector_vanishes},
        excluded=(fstar, fdiff, varsigma))
    if grid is not None:
        out.check_grid(grid, min_abs=min_abs, extra=extra)
    return out


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
    e1, e2, e3, e4, e5 = recipe.signatures
    chart = chart_4d(recipe.params)
    varsigma, fstar, fdiff, h4, h5, w, n = _generator_blocks(recipe, src)
    g = DMetric.diagonal([ex.mul(e2, recipe.g2),
                          ex.mul(e3, recipe.g3)], [h4, h5])
    N = NConnection.build([[w["x2"], n["x2"]], [w["x3"], n["x3"]]])
    out = GeneratedMetric(
        chart, g, N,
        provenance={"family": "gensol1_4d", "recipe": recipe.fingerprint(),
                    "vacuum_v_sector": src.v_sector_vanishes},
        excluded=(fstar, fdiff, varsigma))
    if grid is not None:
        out.check_grid(grid, min_abs=min_abs, extra=extra)
    return out


# ---------------------------------------------------------------------------
# Levi-Civita-compatible 4D families
# ---------------------------------------------------------------------------

def vanishes_on_grid(e: ex.Expr, grid: Grid, extra=None, eps: float = 1e-12) -> bool:
    """Numeric probe: the expression is zero everywhere on the grid.

    Structural zero detection is only sufficient; coupling functions like
    phi* collapse to zero without simplifying to the zero tree.
    """
    import numpy as np
    if ex.is_zero(e):
        return True
    vals = ex.evaluate(e, {**grid.arrays(), **(extra or {})})
    return bool(np.max(np.abs(np.asarray(vals))) < eps)


def generate_vacuum_lc(recipe: VacuumLCRecipe, grid: Grid, tol: float = 1e-10,
                       extra=None):
    """Vacuum family with coinciding canonical/LC connections.

    Returns the metric and residual reports for the three selection
    constraints: harmonicity of psi, the w-compatibility equation and the
    n-curl equation. Passing all three (the w one holds identically for the
    gradient-type w built here when b0 is compatible) puts the metric in the
    regime where the two connections share coefficients.
    """
    e2, e3, e4, e5 = recipe.signatures
    chart = chart_4d(recipe.params)
    b, b0 = recipe.b, recipe.b0
    bstar = _dv(b)
    bb = ex.add(b, b0)

    h4 = ex.mul(e4, recipe.h0 ** 2, ex.pow_(bstar, 2))
    h5 = ex.mul(e5, ex.pow_(bb, 2))
    w2 = ex.div(_d2(bb), bstar)
    w3 = ex.div(_d3(bb), bstar)

    epsi = ex.exp(recipe.psi)
    g = DMetric.diagonal([ex.mul(e2, epsi),
                          ex.mul(e3, epsi)], [h4, h5])
    N = NConnection.build([[w2, recipe.n2], [w3, recipe.n3]])
    metric = GeneratedMetric(chart, g, N,
                             provenance={"family": "vacuum_lc"},
                             excluded=(bstar,))
    metric.check_grid(grid, extra=extra)

    harmonic = ex.add(ex.mul(e2, _d2(_d2(recipe.psi))),
                      ex.mul(e3, _d3(_d3(recipe.psi))))
    w_compat = ex.add(_d3(w2), ex.neg(_d2(w3)),
                      ex.mul(w3, _dv(w2)), ex.neg(ex.mul(w2, _dv(w3))))
    n_curl = ex.sub(_d3(recipe.n2), _d2(recipe.n3))
    cols = grid.arrays()
    reports = [grid_report(label, [e], cols, tol, extra) for label, e in (
        ("psi-harmonic", harmonic), ("w-compat", w_compat), ("n-curl", n_curl))]
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
    if v_reading not in ("consistent", "literal"):
        raise ValueError("v_reading must be 'consistent' or 'literal'")
    e2, e3, e4, e5 = recipe.signatures
    chart = chart_4d(recipe.params)
    h4, h5 = recipe.h4, recipe.h5
    h5s = _dv(h5)
    aux = aux_coeffs(h4, h5)
    phistar = _dv(aux.phi)
    sourced = not recipe.source.v_sector_vanishes

    if vanishes_on_grid(phistar, grid, extra):
        if sourced:
            raise PhiConstant(
                "phi* = 0 while the v-sector source is nonzero; "
                "this family needs phi != const")
        w2 = w3 = ex.ZERO
    else:
        w2 = ex.div(_d2(aux.phi), phistar)
        w3 = ex.div(_d3(aux.phi), phistar)

    epsi = ex.exp(recipe.psi)
    g = DMetric.diagonal([ex.mul(e2, epsi),
                          ex.mul(e3, epsi)], [h4, h5])
    N = NConnection.build([[w2, recipe.n2], [w3, recipe.n3]])
    metric = GeneratedMetric(chart, g, N,
                             provenance={"family": "sourced_lc"},
                             excluded=(h4, h5, h5s))
    metric.check_grid(grid, extra=extra)

    ups2 = recipe.source.upsilon2
    psi_eq = ex.sub(ex.add(ex.mul(e2, _d2(_d2(recipe.psi))),
                           ex.mul(e3, _d3(_d3(recipe.psi)))), ups2)
    if v_reading == "consistent":
        v_eq = ex.sub(ex.div(ex.mul(h5s, phistar), ex.mul(2, h4, h5)), ups2)
    else:
        v_eq = ex.sub(ex.div(ex.mul(h5s, aux.phi), ex.mul(h4, h5)), ups2)
    w_compat = ex.add(_d3(w2), ex.neg(_d2(w3)),
                      ex.mul(w3, _dv(w2)), ex.neg(ex.mul(w2, _dv(w3))))
    n_curl = ex.sub(_d3(recipe.n2), _d2(recipe.n3))
    transport4 = {}
    for name, wk in (("x2", w2), ("x3", w3)):
        transport4[name] = ex.add(_di(h4, name), ex.neg(ex.mul(wk, _dv(h4))),
                                  ex.neg(ex.mul(2, _dv(wk), h4)))
    transport5 = {name: ex.sub(_di(h5, name), ex.mul(wk, h5s))
                  for name, wk in (("x2", w2), ("x3", w3))}

    cols = grid.arrays()
    reports = [grid_report(label, exprs, cols, tol, extra) for label, exprs in (
        ("psi-equation", [psi_eq]),
        ("v-coupling", [v_eq]),
        ("w-compat", [w_compat]),
        ("n-curl", [n_curl]),
        ("h4-transport", [transport4["x2"], transport4["x3"]]),
        ("h5-transport", [transport5["x2"], transport5["x3"]]),
    )]
    return metric, reports
