"""N-adapted tensor engine: frames, anholonomy, canonical d-connection,
Levi-Civita decomposition, torsion, curvature and the compatibility checks.

Conventions (frozen by the convention tests in tests/test_geometry.py):

* A chart splits coordinates u = (x^i, y^a) with n horizontal and m vertical
  directions, n >= 2, m >= 1.
* The N-elongated frame is e_i = d/dx^i - N_i^a d/dy^a, e_a = d/dy^a, with
  dual e^i = dx^i, e^a = dy^a + N_i^a dx^i.
* Anholonomy: [e_alpha, e_beta] = W^gamma_{alpha beta} e_gamma, and the
  h-h block is recorded as Omega^a_{ij} = e_i(N_j^a) - e_j(N_i^a)
  (so W^a_{ij} = -Omega^a_{ij}; torsion then satisfies T^a_{ij} = Omega^a_{ij}).
* A connection is one immutable nested tuple Gamma[c][b][a] =
  <e^c, D_{e_a} e_b> over global indices (h-directions 0..n-1, v-directions
  n..n+m-1): canonical_dconnection and lc_decomposition return it, torsion
  and curvature_ricci read it.
* Ricci is contracted so that the round 2-sphere has positive Ricci; the
  mixed blocks R_{ia} and R_{ai} are kept separate (the canonical
  d-connection has a nonsymmetric Ricci tensor in general).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import expr as ex
from .numerics import Grid, GridExclusionError, grid_report

__all__ = [
    "Chart", "NConnection", "DMetric", "Anholonomy", "DTorsion", "RicciD",
    "SingularMetric",
    "anholonomy", "canonical_dconnection", "lc_decomposition", "torsion",
    "curvature_ricci", "check_lc_compatibility", "coordinate_metric",
    "coordinate_metric_inverse", "coordinate_christoffels",
    "coordinate_lc_ricci", "frame_matrix", "inverse_frame_matrix",
    "sym_inverse", "kronecker",
]

ZERO = ex.ZERO


class SingularMetric(ex.EvalError):
    pass


# ---------------------------------------------------------------------------
# charts, N-connections, d-metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Coordinate names for the h/v splitting plus free parameter names."""

    x_names: tuple
    y_names: tuple
    params: tuple = ()

    def __post_init__(self):
        if len(self.x_names) < 2:
            raise ValueError("need n >= 2 horizontal coordinates")
        if len(self.y_names) < 1:
            raise ValueError("need m >= 1 vertical coordinates")
        names = (*self.x_names, *self.y_names, *self.params)
        if len(set(names)) != len(names):
            raise ValueError(f"coordinate/parameter names not unique: {names}")

    @property
    def n(self):
        return len(self.x_names)

    @property
    def m(self):
        return len(self.y_names)

    @property
    def dim(self):
        return self.n + self.m

    @property
    def coord_names(self):
        return (*self.x_names, *self.y_names)

    @property
    def all_names(self):
        return (*self.x_names, *self.y_names, *self.params)

    def name(self, alpha: int) -> str:
        return self.coord_names[alpha]


def chart_5d(params: Sequence[str] = ()) -> Chart:
    """The standard 5D splitting (x1, x2, x3 | v, y5)."""
    return Chart(("x1", "x2", "x3"), ("v", "y5"), tuple(params))


def chart_4d(params: Sequence[str] = ()) -> Chart:
    """The 4D reduction (x2, x3 | v, y5)."""
    return Chart(("x2", "x3"), ("v", "y5"), tuple(params))


def _as_expr_matrix(rows) -> tuple:
    return tuple(tuple(ex.as_expr(c) for c in row) for row in rows)


@dataclass(frozen=True)
class NConnection:
    """Coefficients N_i^a as an n x m table of expressions."""

    coeff: tuple

    @classmethod
    def build(cls, rows) -> "NConnection":
        return cls(_as_expr_matrix(rows))

    @classmethod
    def zero(cls, chart: Chart) -> "NConnection":
        return cls(tuple(tuple(ZERO for _ in range(chart.m))
                         for _ in range(chart.n)))

    def entry(self, i: int, a: int) -> ex.Expr:
        return self.coeff[i][a]


@dataclass(frozen=True)
class DMetric:
    """Block metric: symmetric g_ij on the h-subspace, h_ab on the v-subspace."""

    g: tuple
    h: tuple

    @classmethod
    def build(cls, g_rows, h_rows) -> "DMetric":
        g = _as_expr_matrix(g_rows)
        h = _as_expr_matrix(h_rows)
        for mat, label in ((g, "g"), (h, "h")):
            k = len(mat)
            if any(len(row) != k for row in mat):
                raise ValueError(f"{label} block is not square")
        return cls(g, h)

    @classmethod
    def diagonal(cls, g_diag, h_diag) -> "DMetric":
        g = tuple(tuple(ex.as_expr(g_diag[i]) if i == j else ZERO
                        for j in range(len(g_diag))) for i in range(len(g_diag)))
        h = tuple(tuple(ex.as_expr(h_diag[a]) if a == b else ZERO
                        for b in range(len(h_diag))) for a in range(len(h_diag)))
        return cls(g, h)

    @property
    def n(self):
        return len(self.g)

    @property
    def m(self):
        return len(self.h)

    def g_inv(self) -> tuple:
        return sym_inverse(self.g)

    def h_inv(self) -> tuple:
        return sym_inverse(self.h)

    def is_block_diagonal(self) -> bool:
        def off(mat):
            k = len(mat)
            return any(not ex.is_zero(mat[i][j])
                       for i in range(k) for j in range(k) if i != j)
        return not off(self.g) and not off(self.h)

    def validate_invertible(self, grid: Grid, extra=None, eps: float = 1e-12):
        """Raise SingularMetric, naming the block and the grid point, if a
        block determinant vanishes on the grid. Determinants holding running
        integrals, or names that neither the grid nor ``extra`` bind, are not
        checked."""
        bound = {*grid.names, *(extra or ())}
        dets = {label: d for label, d in (("g", _sym_det(self.g)), ("h", _sym_det(self.h)))
                if d.free_vars <= bound and not ex.has_integral(d)}
        try:
            grid.check_exclusions(dets.values(), min_abs=eps, extra=extra)
        except GridExclusionError as err:
            label = next(k for k, d in dets.items() if d is err.locus)
            raise SingularMetric(f"{label}-block determinant {ex.to_str(err.locus)} "
                                 f"vanishes at grid point {err.point}") from None


def kronecker(i: int, j: int) -> ex.Expr:
    return ex.ONE if i == j else ZERO


def _sym_det(mat) -> ex.Expr:
    k = len(mat)
    if k == 1:
        return mat[0][0]
    if k == 2:
        return ex.sub(ex.mul(mat[0][0], mat[1][1]), ex.mul(mat[0][1], mat[1][0]))
    det = ZERO
    for j in range(k):
        minor = [[mat[r][c] for c in range(k) if c != j] for r in range(1, k)]
        term = ex.mul(mat[0][j], _sym_det(minor))
        det = ex.add(det, term if j % 2 == 0 else ex.neg(term))
    return det


def sym_inverse(mat) -> tuple:
    """Adjugate inverse of a small symbolic matrix (diagonal fast path)."""
    k = len(mat)
    if all(ex.is_zero(mat[i][j]) for i in range(k) for j in range(k) if i != j):
        return tuple(tuple(ex.div(1, mat[i][i]) if i == j else ZERO
                           for j in range(k)) for i in range(k))
    det = _sym_det(mat)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            minor = [[mat[r][c] for c in range(k) if c != i]
                     for r in range(k) if r != j]
            cof = _sym_det(minor)
            if (i + j) % 2 == 1:
                cof = ex.neg(cof)
            row.append(ex.div(cof, det))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# frames and derivatives
# ---------------------------------------------------------------------------

def elongated(chart: Chart, N: NConnection, e: ex.Expr, alpha: int) -> ex.Expr:
    """Directional derivative along the adapted frame vector e_alpha."""
    n = chart.n
    if alpha >= n:
        return ex.diff(e, chart.y_names[alpha - n])
    i = alpha
    out = ex.diff(e, chart.x_names[i])
    for a in range(chart.m):
        Nia = N.entry(i, a)
        if not ex.is_zero(Nia):
            out = ex.sub(out, ex.mul(Nia, ex.diff(e, chart.y_names[a])))
    return out


def frame_matrix(chart: Chart, N: NConnection) -> tuple:
    """A[alpha][bar_alpha] with e_alpha = A[alpha][bar] d/du^bar (delta, -N)."""
    n, m, d = chart.n, chart.m, chart.dim
    rows = []
    for al in range(d):
        row = []
        for bar in range(d):
            if al < n:
                row.append(kronecker(al, bar) if bar < n
                           else ex.neg(N.entry(al, bar - n)))
            else:
                row.append(kronecker(al, bar))
        rows.append(tuple(row))
    return tuple(rows)


def inverse_frame_matrix(chart: Chart, N: NConnection) -> tuple:
    """Inverse of frame_matrix (delta, +N block)."""
    n, d = chart.n, chart.dim
    rows = []
    for al in range(d):
        row = []
        for bar in range(d):
            if al < n and bar >= n:
                row.append(N.entry(al, bar - n))
            else:
                row.append(kronecker(al, bar))
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# anholonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Anholonomy:
    """w[i][a][b] = dN_i^b/dy^a and omega[a][i][j] = e_i(N_j^a) - e_j(N_i^a)."""

    w: tuple
    omega: tuple


def anholonomy(chart: Chart, N: NConnection) -> Anholonomy:
    n, m = chart.n, chart.m
    w = tuple(tuple(tuple(ex.diff(N.entry(i, b), chart.y_names[a])
                          for b in range(m)) for a in range(m)) for i in range(n))
    omega = []
    for a in range(m):
        block = []
        for i in range(n):
            row = []
            for j in range(n):
                row.append(ex.sub(
                    elongated(chart, N, N.entry(j, a), i),
                    elongated(chart, N, N.entry(i, a), j)))
            block.append(tuple(row))
        omega.append(tuple(block))
    return Anholonomy(w, tuple(omega))


def full_anholonomy_table(chart: Chart, anh: Anholonomy) -> dict:
    """Sparse W^gamma_{alpha beta} with [e_alpha, e_beta] = W^gamma e_gamma."""
    n, m = chart.n, chart.m
    W: dict = {}
    for a in range(m):
        for i in range(n):
            for j in range(n):
                val = anh.omega[a][j][i]  # W^a_{ij} = Omega^a_{ji}
                if not ex.is_zero(val):
                    W[(n + a, i, j)] = val
    for i in range(n):
        for a in range(m):
            for b in range(m):
                val = anh.w[i][a][b]
                if not ex.is_zero(val):
                    W[(n + b, i, n + a)] = val
                    W[(n + b, n + a, i)] = ex.neg(val)
    return W


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

def _freeze3(table) -> tuple:
    return tuple(tuple(tuple(row) for row in plane) for plane in table)


def _christoffel(mat, inv, D, i, j, k) -> ex.Expr:
    """(1/2) inv^{ir} (D_k mat_jr + D_j mat_kr - D_r mat_jk) of the metric
    block ``mat`` with inverse ``inv``, for the derivative ``D(expr, index)``."""
    acc = ZERO
    for r in range(len(mat)):
        if ex.is_zero(inv[i][r]):
            continue
        term = ex.add(D(mat[j][r], k), D(mat[k][r], j), ex.neg(D(mat[j][k], r)))
        acc = ex.add(acc, ex.mul(inv[i][r], term))
    return ex.mul(0.5, acc)


def _v_transport(g: DMetric, N: NConnection, chart: Chart, k, b, c) -> ex.Expr:
    """e_k(h_bc) - h_dc dN_k^d/dy^b - h_db dN_k^d/dy^c: the v-metric
    transported along the h-direction k."""
    t = elongated(chart, N, g.h[b][c], k)
    for dd in range(chart.m):
        t = ex.sub(t, ex.mul(g.h[dd][c], ex.diff(N.entry(k, dd), chart.y_names[b])))
        t = ex.sub(t, ex.mul(g.h[dd][b], ex.diff(N.entry(k, dd), chart.y_names[c])))
    return t


def canonical_dconnection(g: DMetric, N: NConnection, chart: Chart) -> tuple:
    """The unique metric-compatible d-connection with vanishing h(hh)- and
    v(vv)-torsion, built from [g_ij, h_ab, N_i^a], as the table
    Gamma[c][b][a]. Its blocks are L^i_jk = Gamma[i][j][k], L^a_bk =
    Gamma[n+a][n+b][k], C^i_jc = Gamma[i][j][n+c] and C^a_bc =
    Gamma[n+a][n+b][n+c]; the mixed blocks vanish because a d-connection
    preserves the splitting."""
    n, m, d = chart.n, chart.m, chart.dim
    ginv = g.g_inv()
    hinv = g.h_inv()

    def e(expr, alpha):
        return elongated(chart, N, expr, alpha)

    def dy(expr, a):
        return ex.diff(expr, chart.y_names[a])

    G = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                G[i][j][k] = _christoffel(g.g, ginv, e, i, j, k)
    for a in range(m):
        for b in range(m):
            for k in range(n):
                inner = ZERO
                for c in range(m):
                    if ex.is_zero(hinv[a][c]):
                        continue
                    inner = ex.add(inner, ex.mul(hinv[a][c],
                                                 _v_transport(g, N, chart, k, b, c)))
                G[n + a][n + b][k] = ex.add(dy(N.entry(k, a), b), ex.mul(0.5, inner))
    for i in range(n):
        for j in range(n):
            for c in range(m):
                acc = ZERO
                for k in range(n):
                    if ex.is_zero(ginv[i][k]):
                        continue
                    acc = ex.add(acc, ex.mul(ginv[i][k], dy(g.g[j][k], c)))
                G[i][j][n + c] = ex.mul(0.5, acc)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                G[n + a][n + b][n + c] = _christoffel(g.h, hinv, dy, a, b, c)
    return _freeze3(G)


# ---------------------------------------------------------------------------
# coordinate-frame metric, Christoffel symbols and the LC decomposition
# ---------------------------------------------------------------------------

def coordinate_metric(g: DMetric, N: NConnection, chart: Chart) -> tuple:
    """The generic off-diagonal coordinate components equivalent to (g, h, N)."""
    n, m, d = chart.n, chart.m, chart.dim
    out = [[ZERO] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            acc = g.g[i][j]
            for a in range(m):
                for b in range(m):
                    acc = ex.add(acc, ex.mul(N.entry(i, a), N.entry(j, b), g.h[a][b]))
            out[i][j] = acc
    for i in range(n):
        for a in range(m):
            acc = ZERO
            for e_ in range(m):
                acc = ex.add(acc, ex.mul(N.entry(i, e_), g.h[e_][a]))
            out[i][n + a] = acc
            out[n + a][i] = acc
    for a in range(m):
        for b in range(m):
            out[n + a][n + b] = g.h[a][b]
    return tuple(tuple(row) for row in out)


def coordinate_metric_inverse(g: DMetric, N: NConnection, chart: Chart) -> tuple:
    """Closed-form block inverse of the off-diagonal coordinate metric."""
    n, m, d = chart.n, chart.m, chart.dim
    ginv = g.g_inv()
    hinv = g.h_inv()
    out = [[ZERO] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            out[i][j] = ginv[i][j]
    for i in range(n):
        for a in range(m):
            acc = ZERO
            for k in range(n):
                acc = ex.add(acc, ex.mul(ginv[i][k], N.entry(k, a)))
            acc = ex.neg(acc)
            out[i][n + a] = acc
            out[n + a][i] = acc
    for a in range(m):
        for b in range(m):
            acc = hinv[a][b]
            for k in range(n):
                for l in range(n):
                    acc = ex.add(acc, ex.mul(ginv[k][l], N.entry(k, a), N.entry(l, b)))
            out[n + a][n + b] = acc
    return tuple(tuple(row) for row in out)


def coordinate_christoffels(gcoord, ginv, chart: Chart):
    """Gamma[c][a][b] = (1/2) g^{ct} (d_a g_{tb} + d_b g_{ta} - d_t g_{ab})."""
    d = chart.dim
    names = chart.coord_names

    dg = [[[ex.diff(gcoord[t][b], names[a]) for a in range(d)]
           for b in range(d)] for t in range(d)]

    out = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for c in range(d):
        for a in range(d):
            for b in range(a, d):
                acc = ZERO
                for t in range(d):
                    if ex.is_zero(ginv[c][t]):
                        continue
                    term = ex.add(dg[t][b][a], dg[t][a][b], ex.neg(dg[a][b][t]))
                    acc = ex.add(acc, ex.mul(ginv[c][t], term))
                val = ex.mul(0.5, acc)
                out[c][a][b] = val
                out[c][b][a] = val
    return out


def lc_decomposition(g: DMetric, N: NConnection, chart: Chart) -> tuple:
    """Levi-Civita connection written in the adapted frame, as the table
    Gamma[c][b][a] with all eight blocks filled.

    Computed from the coordinate Christoffel symbols by the exact frame
    transform (the printed block formulas are recovered numerically and
    checked in the test suite; the transform itself is unambiguous).
    """
    d = chart.dim
    names = chart.coord_names
    gcoord = coordinate_metric(g, N, chart)
    ginv = coordinate_metric_inverse(g, N, chart)
    christ = coordinate_christoffels(gcoord, ginv, chart)
    A = frame_matrix(chart, N)
    Ainv = inverse_frame_matrix(chart, N)

    # Gamma[c][b][a] = sum_{abar, gbar} A[a][abar] Ainv[gbar][c]
    #                  (d_{abar} A[b][gbar] + sum_bbar A[b][bbar] christ[gbar][abar][bbar])
    G = [[[ZERO] * d for _ in range(d)] for _ in range(d)]
    for c in range(d):
        for b in range(d):
            for a in range(d):
                acc = ZERO
                for abar in range(d):
                    Aa = A[a][abar]
                    if ex.is_zero(Aa):
                        continue
                    for gbar in range(d):
                        Ag = Ainv[gbar][c]
                        if ex.is_zero(Ag):
                            continue
                        inner = ex.diff(A[b][gbar], names[abar])
                        for bbar in range(d):
                            Ab = A[b][bbar]
                            if ex.is_zero(Ab):
                                continue
                            inner = ex.add(inner, ex.mul(Ab, christ[gbar][abar][bbar]))
                        if ex.is_zero(inner):
                            continue
                        acc = ex.add(acc, ex.mul(Aa, Ag, inner))
                G[c][b][a] = acc
    return _freeze3(G)


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DTorsion:
    """The five d-torsion blocks; antisymmetries hold by construction."""

    t_hhh: tuple  # T^i_jk
    t_hhv: tuple  # T^i_ja  (T^i_aj = -T^i_ja)
    t_vhh: tuple  # T^a_ji
    t_vvh: tuple  # T^a_bi  (= T^a_ib)
    t_vvv: tuple  # T^a_bc

    def all_components(self):
        for blk in (self.t_hhh, self.t_hhv, self.t_vhh, self.t_vvh, self.t_vvv):
            for plane in blk:
                for row in plane:
                    yield from row


def torsion(G: tuple, N: NConnection, chart: Chart) -> DTorsion:
    """d-torsion of the canonical d-connection table G[c][b][a]."""
    n, m = chart.n, chart.m
    anh = anholonomy(chart, N)
    t_hhh = tuple(tuple(tuple(ex.sub(G[i][j][k], G[i][k][j])
                              for k in range(n)) for j in range(n)) for i in range(n))
    t_hhv = tuple(tuple(tuple(G[i][j][n + a] for a in range(m))
                        for j in range(n)) for i in range(n))
    t_vhh = tuple(tuple(tuple(anh.omega[a][j][i] for i in range(n))
                        for j in range(n)) for a in range(m))
    t_vvh = tuple(tuple(tuple(
        ex.sub(ex.diff(N.entry(i, a), chart.y_names[b]), G[n + a][n + b][i])
        for i in range(n)) for b in range(m)) for a in range(m))
    t_vvv = tuple(tuple(tuple(ex.sub(G[n + a][n + b][n + c], G[n + a][n + c][n + b])
                              for c in range(m)) for b in range(m)) for a in range(m))
    return DTorsion(t_hhh, t_hhv, t_vhh, t_vvh, t_vvv)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RicciD:
    """Ricci tensor of a connection in the adapted frame, with the scalar and
    Einstein blocks. The full (n+m)^2 table keeps R_{ia} and R_{ai} separate."""

    ricci: tuple     # [beta][gamma], lower indices, adapted frame
    scalar: ex.Expr
    einstein: tuple  # E_{beta gamma} = R_{beta gamma} - (1/2) g_{beta gamma} R
    chart: Chart

    def hh(self, i, j):
        return self.ricci[i][j]

    def ha(self, i, a):
        return self.ricci[i][self.chart.n + a]

    def ah(self, a, i):
        return self.ricci[self.chart.n + a][i]

    def vv(self, a, b):
        return self.ricci[self.chart.n + a][self.chart.n + b]

    def mixed_h(self, g: DMetric, i, j):
        """R^i_j = g^{ik} R_kj (no sum convention surprises: plain contraction)."""
        ginv = g.g_inv()
        return ex.add(*(ex.mul(ginv[i][k], self.ricci[k][j])
                        for k in range(self.chart.n)))

    def mixed_v(self, g: DMetric, a, b):
        hinv = g.h_inv()
        n = self.chart.n
        return ex.add(*(ex.mul(hinv[a][c], self.ricci[n + c][n + b])
                        for c in range(self.chart.m)))


def curvature_ricci(G: tuple, g: DMetric, N: NConnection, chart: Chart) -> RicciD:
    """Ricci tensor of a connection table G[c][b][a] in the adapted frame.

    Componentwise curvature of the connection one-form including the frame
    commutation terms; contraction order and overall sign are pinned by the
    convention test against the 2D conformal closed form.
    """
    d = chart.dim
    anh = anholonomy(chart, N)
    W = full_anholonomy_table(chart, anh)

    def e(expr, alpha):
        return elongated(chart, N, expr, alpha)

    # contracted traces Tr[a] = sum_alpha Gamma^alpha_{a alpha}
    trace = [ex.add(*(G[al][b][al] for al in range(d))) for b in range(d)]

    ric = [[ZERO] * d for _ in range(d)]
    for b in range(d):
        for t in range(d):
            acc = ZERO
            for al in range(d):
                # e_alpha(Gamma^alpha_{b t}) - e_t(Gamma^alpha_{b alpha})
                acc = ex.add(acc, e(G[al][b][t], al))
            acc = ex.sub(acc, e(trace[b], t))
            for mu in range(d):
                Gmbt = G[mu][b][t]
                if not ex.is_zero(Gmbt):
                    acc = ex.add(acc, ex.mul(Gmbt, trace[mu]))
                for al in range(d):
                    p = ex.mul(G[mu][b][al], G[al][mu][t])
                    if not ex.is_zero(p):
                        acc = ex.sub(acc, p)
            for al in range(d):
                for mu in range(d):
                    Wm = W.get((mu, al, t))
                    if Wm is None:
                        continue
                    p = ex.mul(G[al][b][mu], Wm)
                    if not ex.is_zero(p):
                        acc = ex.sub(acc, p)
            ric[b][t] = acc

    n = chart.n
    ginv = g.g_inv()
    hinv = g.h_inv()
    scalar = ZERO
    for i in range(n):
        for j in range(n):
            scalar = ex.add(scalar, ex.mul(ginv[i][j], ric[i][j]))
    for a in range(chart.m):
        for bb in range(chart.m):
            scalar = ex.add(scalar, ex.mul(hinv[a][bb], ric[n + a][n + bb]))

    gfull = [[ZERO] * d for _ in range(d)]
    for i in range(n):
        for j in range(n):
            gfull[i][j] = g.g[i][j]
    for a in range(chart.m):
        for bb in range(chart.m):
            gfull[n + a][n + bb] = g.h[a][bb]
    einstein = tuple(tuple(
        ex.sub(ric[bE][tE], ex.mul(0.5, gfull[bE][tE], scalar))
        for tE in range(d)) for bE in range(d))

    return RicciD(tuple(tuple(row) for row in ric), scalar, einstein, chart)


def coordinate_lc_ricci(g: DMetric, N: NConnection, chart: Chart) -> tuple:
    """Levi-Civita Ricci tensor in the coordinate frame (holonomic formula)."""
    d = chart.dim
    names = chart.coord_names
    gcoord = coordinate_metric(g, N, chart)
    ginv = coordinate_metric_inverse(g, N, chart)
    christ = coordinate_christoffels(gcoord, ginv, chart)
    trace = [ex.add(*(christ[al][b][al] for al in range(d)))
             for b in range(d)]
    ric = [[ZERO] * d for _ in range(d)]
    for b in range(d):
        for t in range(b, d):
            acc = ZERO
            for al in range(d):
                acc = ex.add(acc, ex.diff(christ[al][b][t], names[al]))
            acc = ex.sub(acc, ex.diff(trace[b], names[t]))
            for mu in range(d):
                if not ex.is_zero(christ[mu][b][t]):
                    acc = ex.add(acc, ex.mul(christ[mu][b][t], trace[mu]))
                for al in range(d):
                    p = ex.mul(christ[mu][b][al], christ[al][mu][t])
                    if not ex.is_zero(p):
                        acc = ex.sub(acc, p)
            ric[b][t] = ric[t][b] = acc
    return tuple(tuple(row) for row in ric)


def adapted_from_coordinate(table, chart: Chart, N: NConnection) -> tuple:
    """Transform a (0,2) coordinate tensor to the adapted frame."""
    d = chart.dim
    A = frame_matrix(chart, N)
    out = [[ZERO] * d for _ in range(d)]
    for al in range(d):
        for be in range(d):
            acc = ZERO
            for ab in range(d):
                if ex.is_zero(A[al][ab]):
                    continue
                for bb in range(d):
                    if ex.is_zero(A[be][bb]):
                        continue
                    acc = ex.add(acc, ex.mul(A[al][ab], A[be][bb], table[ab][bb]))
            out[al][be] = acc
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# compatibility checks
# ---------------------------------------------------------------------------

def check_lc_compatibility(G, g: DMetric, N: NConnection, chart: Chart, grid: Grid,
                           tol: float = 1e-12, extra=None) -> list:
    """Three residual reports whose joint passing certifies that the canonical
    d-connection ``G`` (the table of ``canonical_dconnection(g, N, chart)``)
    and the Levi-Civita connection share their coefficients (and the induced
    torsion vanishes): the frame distribution integrates to a foliation, the
    canonical C^i_jb block vanishes, and the v-metric is covariantly constant
    along the mixing directions."""
    n, m = chart.n, chart.m
    anh = anholonomy(chart, N)

    omega_comps = [anh.omega[a][i][j]
                   for a in range(m) for i in range(n) for j in range(n)]
    rep1 = grid_report("foliation(Omega)", omega_comps, grid, tol, extra)

    chb = [G[i][j][n + b] for i in range(n) for j in range(n) for b in range(m)]
    rep2 = grid_report("mixing(C^i_kb)", chb, grid, tol, extra)

    comps = [_v_transport(g, N, chart, k, b, c)
             for k in range(n) for b in range(m) for c in range(m)]
    rep3 = grid_report("v-metric transport", comps, grid, tol, extra)
    return [rep1, rep2, rep3]
