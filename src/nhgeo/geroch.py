"""One-parameter transforms of vacuum metrics with a Killing symmetry,
polarization deformations, and their superpositions.

Everything here is holonomic 4D tensor algebra in the coordinate frame: the
full off-diagonal metric is assembled, the Levi-Civita connection drives the
Killing and potential residual checks, and the transform itself is pure
pointwise algebra on the metric and the user-supplied potential covectors.
The toolkit never solves the potential equations; candidate potentials are
residual-checked and the transform refuses to run on unchecked input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .generators import GeneratedMetric
from .geometry import (Chart, DMetric, NConnection, SingularMetric,
                       coordinate_christoffels, coordinate_metric,
                       coordinate_metric_inverse, sym_inverse, _sym_det)
from .numerics import Grid, GridExclusionError, ResidualReport, grid_report

__all__ = [
    "KillingData", "GerochPotentials", "Polarizations", "FrameMatrices",
    "GerochStep", "DeformStep", "PotentialsNotVerified",
    "DegenerateDenominator", "SignatureMismatch", "ZeroPolarization",
    "NonDiagonalBlocks",
    "coordinate_setup", "killing_residual", "geroch_residuals", "apply_geroch",
    "solve_vielbein",
    "nonholonomic_deform", "apply_chain", "superpose", "drop_trivial_x1",
    "dmetric_from_coordinate",
]


class PotentialsNotVerified(RuntimeError):
    """The transform was asked to run without (passing) potential checks."""


class DegenerateDenominator(ex.EvalError):
    pass


class SignatureMismatch(ValueError):
    pass


class ZeroPolarization(ValueError):
    pass


class NonDiagonalBlocks(ValueError):
    """A polarization deformation of a metric whose blocks are not diagonal."""


@dataclass(frozen=True)
class KillingData:
    """Covector components xi_alpha in the coordinate frame."""

    xi: tuple

    @classmethod
    def build(cls, comps) -> "KillingData":
        return cls(tuple(ex.as_expr(c) for c in comps))


@dataclass(frozen=True)
class GerochPotentials:
    """Candidate potentials (omega, alpha_t, beta_t, mu_t) for the transform.

    The norm potential lambda_G = xi . xi is always computed from the metric;
    beta_t enters only the transform formula, the printed system gives it no
    independent equation.
    """

    omega: ex.Expr
    alpha: tuple
    beta: tuple
    mu: tuple

    @classmethod
    def build(cls, omega, alpha, beta, mu) -> "GerochPotentials":
        return cls(ex.as_expr(omega),
                   tuple(ex.as_expr(c) for c in alpha),
                   tuple(ex.as_expr(c) for c in beta),
                   tuple(ex.as_expr(c) for c in mu))


@dataclass(frozen=True)
class Polarizations:
    """Componentwise multipliers (no index summation): g_i -> eta_h[i] g_i,
    h_a -> eta_v[a] h_a, N_i^a -> eta_n[i][a] N_i^a."""

    eta_h: tuple
    eta_v: tuple
    eta_n: tuple

    @classmethod
    def build(cls, eta_h, eta_v, eta_n) -> "Polarizations":
        out = cls(tuple(ex.as_expr(e) for e in eta_h),
                  tuple(ex.as_expr(e) for e in eta_v),
                  tuple(tuple(ex.as_expr(e) for e in row) for row in eta_n))
        for name in ("eta_h", "eta_v"):
            if any(ex.is_zero(e) for e in getattr(out, name)):
                raise ZeroPolarization(f"diagonal polarizations in {name} must be nonzero")
        return out

    @classmethod
    def identity(cls, n: int, m: int) -> "Polarizations":
        return cls(tuple(ex.ONE for _ in range(n)),
                   tuple(ex.ONE for _ in range(m)),
                   tuple(tuple(ex.ONE for _ in range(m)) for _ in range(n)))


# ---------------------------------------------------------------------------
# coordinate-frame machinery
# ---------------------------------------------------------------------------

def drop_trivial_x1(gm: GeneratedMetric) -> GeneratedMetric:
    """Reduce a 5D metric with a trivial x1 row to its 4D slice."""
    chart = gm.chart
    if chart.dim == 4:
        return gm
    if chart.dim != 5 or chart.x_names[0] != "x1":
        raise ValueError("expected the standard 5D chart")
    g = gm.metric
    if not isinstance(g.g[0][0], ex.Const):
        raise ValueError("g_11 must be a constant +-1 for the trivial embedding")
    for j in range(1, 3):
        if not (ex.is_zero(g.g[0][j]) and ex.is_zero(g.g[j][0])):
            raise ValueError("x1 row of the metric must be trivial")
    if any(not ex.is_zero(gm.nconn.entry(0, a)) for a in range(2)):
        raise ValueError("x1 row of the N-coefficients must vanish")
    deps = set()
    for row in (*g.g, *g.h, *gm.nconn.coeff):
        for e in row:
            deps |= e.free_vars
    if "x1" in deps:
        raise ValueError("coefficients depend on x1; the slice is not trivial")
    chart4 = Chart(chart.x_names[1:], chart.y_names, chart.params)
    g4 = DMetric(tuple(tuple(g.g[i][j] for j in (1, 2)) for i in (1, 2)), g.h)
    n4 = NConnection(gm.nconn.coeff[1:])
    return GeneratedMetric(chart4, g4, n4, dict(gm.provenance), gm.excluded)


def coordinate_setup(gm: GeneratedMetric):
    """(chart, coordinate metric, its inverse, Christoffel symbols) of a
    metric: what the Killing check, the potential checks and the transform
    share. Build it once per metric and pass it to each as ``setup``."""
    chart = gm.chart
    g = coordinate_metric(gm.metric, gm.nconn, chart)
    ginv = coordinate_metric_inverse(gm.metric, gm.nconn, chart)
    christ = coordinate_christoffels(g, ginv, chart)
    return chart, g, ginv, christ


def _nabla_covector(comps, christ, chart):
    d = chart.dim
    names = chart.coord_names
    return [[ex.sub(ex.diff(comps[b], names[a]),
                    ex.add(*(ex.mul(christ[c][a][b], comps[c])
                             for c in range(d))))
             for b in range(d)] for a in range(d)]


def _raise_index(comps, ginv, d):
    return [ex.add(*(ex.mul(ginv[a][b], comps[b]) for b in range(d)))
            for a in range(d)]


def _perm_sign(p) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def killing_residual(gm: GeneratedMetric, xi: KillingData, grid: Grid,
                     tol: float = 1e-10, setup=None) -> ResidualReport:
    """max over the grid of |nabla_a xi_b + nabla_b xi_a| (all components)."""
    chart, g, ginv, christ = setup or coordinate_setup(gm)
    d = chart.dim
    nx = _nabla_covector(xi.xi, christ, chart)
    comps = [ex.add(nx[a][b], nx[b][a])
             for a in range(d) for b in range(a, d)]
    return grid_report("killing", comps, grid, tol)


def geroch_residuals(gm: GeneratedMetric, xi: KillingData, pot: GerochPotentials,
                     grid: Grid, tol: float = 1e-10, setup=None) -> list:
    """Residual reports for the three potential equations and the two
    algebraic constraints tying (omega, alpha, mu) to the Killing covector."""
    chart, g, ginv, christ = setup or coordinate_setup(gm)
    d = chart.dim
    if d != 4:
        raise ValueError("potential checks are defined for 4D metrics; "
                         "use drop_trivial_x1 for the 5D embedding")
    names = chart.coord_names
    nx = _nabla_covector(xi.xi, christ, chart)
    xi_up = _raise_index(xi.xi, ginv, d)
    lam_g = ex.add(*(ex.mul(xi_up[a], xi.xi[a]) for a in range(d)))

    # (nabla xi)^{c t} with both indices raised
    nx_up = [[ex.add(*(ex.mul(ginv[c][a], ginv[t][b], nx[a][b])
                       for a in range(d) for b in range(d)))
              for t in range(d)] for c in range(d)]

    sqrtdet = ex.sqrt(ex.abs_(_sym_det(g)))

    # F_ab = eps_{abct} (nabla xi)^{ct}
    F = [[ex.ZERO] * d for _ in range(d)]
    for p in itertools.permutations(range(d)):
        a, b, c, t = p
        s = _perm_sign(p)
        term = ex.mul(s, sqrtdet, nx_up[c][t])
        F[a][b] = ex.add(F[a][b], term)

    # eq 1: nabla_a omega = eps_{abct} xi^b (nabla xi)^{ct}
    eq1 = []
    for a in range(d):
        rhs = ex.ZERO
        for p in itertools.permutations(range(d)):
            if p[0] != a:
                continue
            _, b, c, t = p
            rhs = ex.add(rhs, ex.mul(_perm_sign(p), sqrtdet, xi_up[b], nx_up[c][t]))
        eq1.append(ex.sub(ex.diff(pot.omega, names[a]), rhs))

    # eq 2: d_[a alpha_b] = (1/2) F_ab
    eq2 = []
    for a in range(d):
        for b in range(a + 1, d):
            curl = ex.mul(0.5, ex.sub(ex.diff(pot.alpha[b], names[a]),
                                      ex.diff(pot.alpha[a], names[b])))
            eq2.append(ex.sub(curl, ex.mul(0.5, F[a][b])))

    # eq 3: d_[a mu_b] = 2 lam_g nabla_a xi_b + omega F_ab
    eq3 = []
    for a in range(d):
        for b in range(a + 1, d):
            curl = ex.mul(0.5, ex.sub(ex.diff(pot.mu[b], names[a]),
                                      ex.diff(pot.mu[a], names[b])))
            rhs = ex.add(ex.mul(2, lam_g, nx[a][b]), ex.mul(pot.omega, F[a][b]))
            eq3.append(ex.sub(curl, rhs))

    alg1 = ex.sub(pot.omega,
                  ex.add(*(ex.mul(xi_up[a], pot.alpha[a])
                           for a in range(d))))
    alg2 = ex.sub(
        ex.add(*(ex.mul(xi_up[a], pot.mu[a]) for a in range(d))),
        ex.add(ex.pow_(lam_g, 2), ex.pow_(pot.omega, 2), -1))

    return [grid_report(label, exprs, grid, tol) for label, exprs in (
        ("twist-gradient", eq1),
        ("alpha-curl", eq2),
        ("mu-curl", eq3),
        ("omega-algebraic", [alg1]),
        ("mu-algebraic", [alg2]),
    )]


def _snap(e: ex.Expr, eps: float = 1e-13) -> ex.Expr:
    """Collapse float-noise constants left over from exact cancellations."""
    if isinstance(e, ex.Const) and abs(e.value) < eps:
        return ex.ZERO
    return e


def dmetric_from_coordinate(table, chart: Chart) -> tuple:
    """Recover (g_ij, h_ab, N_i^a) from full coordinate components."""
    n, m = chart.n, chart.m
    h = tuple(tuple(_snap(table[n + a][n + b]) for b in range(m))
              for a in range(m))
    hinv = sym_inverse(h)
    N = []
    for i in range(n):
        row = []
        for a in range(m):
            row.append(_snap(ex.add(*(ex.mul(hinv[a][b], table[i][n + b])
                                      for b in range(m)))))
        N.append(tuple(row))
    g = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = table[i][j]
            for a in range(m):
                for b in range(m):
                    acc = ex.sub(acc, ex.mul(N[i][a], N[j][b], h[a][b]))
            row.append(_snap(acc))
        g.append(tuple(row))
    return DMetric(tuple(g), h), NConnection(tuple(N))


def apply_geroch(gm: GeneratedMetric, xi: KillingData, pot: GerochPotentials,
                 theta: float, checks: Sequence[ResidualReport] | None = None,
                 grid: Grid | None = None, denom_eps: float = 1e-9,
                 setup=None) -> GeneratedMetric:
    """One-parameter transform of a vacuum seed with Killing covector xi.

    ``checks`` must be the (passing) reports from geroch_residuals for this
    seed and potentials; the transform refuses to run otherwise.
    """
    if checks is None:
        raise PotentialsNotVerified(
            "run geroch_residuals first and pass its reports as checks=")
    failing = [r.equation for r in checks if not r.passed]
    if failing:
        raise PotentialsNotVerified(f"potential checks failed: {failing}")

    chart, g, ginv, _ = setup or coordinate_setup(gm)
    d = chart.dim
    if d != 4:
        raise ValueError("the transform is defined for 4D metrics; "
                         "use drop_trivial_x1 for the 5D embedding")
    xi_up = _raise_index(xi.xi, ginv, d)
    lam_g = ex.add(*(ex.mul(xi_up[a], xi.xi[a]) for a in range(d)))

    ct, st = math.cos(theta), math.sin(theta)
    den = ex.add(ex.pow_(ex.sub(ex.mul(ct, ex.ONE),
                                ex.mul(st, pot.omega)), 2),
                 ex.mul(st * st, ex.pow_(lam_g, 2)))
    if grid is not None:
        try:
            grid.check_exclusions([den], min_abs=denom_eps)
        except GridExclusionError as err:
            raise DegenerateDenominator(
                f"transform denominator vanishes at grid point {err.point}") from None
    lam_tilde = ex.div(lam_g, den)

    s2t = math.sin(2.0 * theta)
    mu = [ex.add(ex.div(xi.xi[t], lam_tilde),
                 ex.mul(s2t, pot.alpha[t]),
                 ex.neg(ex.mul(st * st, pot.beta[t])))
          for t in range(d)]

    scale = ex.div(lam_g, lam_tilde)
    out = []
    for a in range(d):
        row = []
        for b in range(d):
            core = ex.sub(g[a][b], ex.div(ex.mul(xi.xi[a], xi.xi[b]), lam_g))
            row.append(ex.add(ex.mul(scale, core),
                              ex.mul(lam_tilde, mu[a], mu[b])))
        out.append(tuple(row))

    dmet, nconn = dmetric_from_coordinate(out, chart)
    prov = {"family": "geroch",
            "seed": gm.provenance.get("family", "unknown"),
            "theta": theta}
    return GeneratedMetric(chart, dmet, nconn, prov, gm.excluded)


# ---------------------------------------------------------------------------
# vielbeins
# ---------------------------------------------------------------------------

def _factor_block(mat: np.ndarray, signs: Sequence[int], eps: float = 1e-12):
    """Lower-triangular A with mat = A diag(signs) A^T; pivot signs must
    match the requested flat signature."""
    k = mat.shape[0]
    A = np.zeros((k, k))
    for i in range(k):
        acc = mat[i, i] - sum(signs[j] * A[i, j] ** 2 for j in range(i))
        if abs(acc) < eps:
            raise SingularMetric("zero pivot in frame factorization")
        if (acc > 0) != (signs[i] > 0):
            raise SignatureMismatch(
                f"pivot {i} has sign {np.sign(acc):+.0f}, requested {signs[i]:+d}")
        A[i, i] = math.sqrt(abs(acc))
        for r in range(i + 1, k):
            s = mat[r, i] - sum(signs[j] * A[r, j] * A[i, j] for j in range(i))
            A[r, i] = s / (signs[i] * A[i, i])
    return A


@dataclass(frozen=True)
class FrameMatrices:
    """Pointwise frame factorizations: primary(point) returns A with
    g(point) = A eta A^T (block-triangular, the N-block mixing the h-rows
    into the v-columns); frame(point) = A^{-1} carries the -N_j^b block of
    the adapted frame. deformed/b_tilde cover a second (transformed) metric."""

    chart: Chart
    flat_signature: tuple
    primary: Callable
    deformed: Callable | None = None

    def frame(self, point) -> np.ndarray:
        return np.linalg.inv(self.primary(point))

    def b_tilde(self, point) -> np.ndarray:
        if self.deformed is None:
            raise ValueError("no deformed metric attached")
        return self.deformed(point) @ np.linalg.inv(self.primary(point))


def _block_factor_fn(gm: GeneratedMetric, flat_signature):
    chart = gm.chart
    n, m = chart.n, chart.m
    sig_h = tuple(flat_signature[:n])
    sig_v = tuple(flat_signature[n:])

    def factor(point) -> np.ndarray:
        gmat = np.array([[float(ex.evaluate(gm.metric.g[i][j], point))
                          for j in range(n)] for i in range(n)])
        hmat = np.array([[float(ex.evaluate(gm.metric.h[a][b], point))
                          for b in range(m)] for a in range(m)])
        nmat = np.array([[float(ex.evaluate(gm.nconn.entry(i, a), point))
                          for a in range(m)] for i in range(n)])
        P = _factor_block(gmat, sig_h)
        R = _factor_block(hmat, sig_v)
        A = np.zeros((n + m, n + m))
        A[:n, :n] = P
        A[:n, n:] = nmat @ R
        A[n:, n:] = R
        return A

    return factor


def solve_vielbein(gm: GeneratedMetric, flat_signature: Sequence[int],
                   deformed: GeneratedMetric | None = None) -> FrameMatrices:
    """Factor the metric against the flat signature, blockwise.

    primary(point) @ diag(flat) @ primary(point).T reproduces the coordinate
    metric at the point; SingularMetric / SignatureMismatch are raised per
    point when the blocks degenerate or the requested signature cannot fit.
    """
    chart = gm.chart
    sig = tuple(int(s) for s in flat_signature)
    if len(sig) != chart.dim or any(s not in (-1, 1) for s in sig):
        raise ValueError("flat signature must list +-1 per dimension")
    dfn = _block_factor_fn(deformed, sig) if deformed is not None else None
    return FrameMatrices(chart, sig, _block_factor_fn(gm, sig), dfn)


# ---------------------------------------------------------------------------
# deformations and superpositions
# ---------------------------------------------------------------------------

def nonholonomic_deform(check: GeneratedMetric,
                        pol: Polarizations) -> GeneratedMetric:
    """Componentwise polarization of a diagonal-block metric; no summation."""
    chart = check.chart
    n, m = chart.n, chart.m
    if not check.metric.is_block_diagonal():
        raise NonDiagonalBlocks("polarization deformations need diagonal blocks")
    if len(pol.eta_h) != n or len(pol.eta_v) != m or len(pol.eta_n) != n:
        raise ValueError("polarization shape does not match the chart")
    g = DMetric.diagonal(
        [ex.mul(pol.eta_h[i], check.metric.g[i][i]) for i in range(n)],
        [ex.mul(pol.eta_v[a], check.metric.h[a][a]) for a in range(m)])
    N = NConnection.build(
        [[ex.mul(pol.eta_n[i][a], check.nconn.entry(i, a))
          for a in range(m)] for i in range(n)])
    prov = {"family": "deformed", "seed": check.provenance.get("family", "unknown")}
    return GeneratedMetric(chart, g, N, prov, check.excluded)


@dataclass(frozen=True)
class GerochStep:
    theta: float
    xi: KillingData
    potentials: GerochPotentials
    label: str = "geroch"


@dataclass(frozen=True)
class DeformStep:
    polarizations: Polarizations
    label: str = "deform"


def apply_chain(seed: GeneratedMetric, steps: Sequence, grid: Grid,
                tol: float = 1e-8, setup=None) -> tuple:
    """Left-to-right application of transform steps; each transform step
    re-verifies its potentials against the current metric. Returns the final
    metric and the potential-check reports of all transform steps, in order.
    ``setup`` is the seed's coordinate_setup, when the caller has built it."""
    current = seed
    reports = []
    for k, step in enumerate(steps):
        if isinstance(step, GerochStep):
            setup = setup or coordinate_setup(current)
            checks = geroch_residuals(current, step.xi, step.potentials, grid,
                                      tol, setup=setup)
            reports.extend(checks)
            current = apply_geroch(current, step.xi, step.potentials, step.theta,
                                   checks=checks, grid=grid, setup=setup)
        elif isinstance(step, DeformStep):
            try:
                current = nonholonomic_deform(current, step.polarizations)
            except NonDiagonalBlocks as err:
                raise NonDiagonalBlocks(f"steps[{k}]: {err}") from None
        else:
            raise TypeError(f"unknown transform step {type(step).__name__}")
        setup = None  # it belonged to the metric before this step
    return current, reports


def superpose(seed: GeneratedMetric, steps: Sequence, grid: Grid,
              tol: float = 1e-8) -> GeneratedMetric:
    """apply_chain, with the ordered parameter list of the chain recorded in
    the provenance."""
    current, _ = apply_chain(seed, steps, grid, tol)
    chain = [{"kind": "geroch", "theta": step.theta}
             if isinstance(step, GerochStep) else {"kind": "deform"}
             for step in steps]
    prov = dict(current.provenance)
    prov["chain"] = chain or [{"kind": "identity"}]
    return GeneratedMetric(current.chart, current.metric, current.nconn,
                           prov, current.excluded)
