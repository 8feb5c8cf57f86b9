"""Tensor engine: frames, connections, torsion, curvature.

The convention tests at the top freeze the sign/ordering choices of the
engine against hand-computable oracles (flat space, conformal 2D blocks,
round spheres); everything downstream relies on them.
"""

import functools

import numpy as np
import pytest

from nhgeo import expr as ex
from nhgeo import geometry as geo
from nhgeo.numerics import Grid

from conftest import expr_children, max_abs_at, random_points

X2, X3, V = ex.var("x2"), ex.var("x3"), ex.var("v")
C5 = geo.chart_5d()
PTS = random_points(C5.all_names, k=12, lo=0.6, hi=1.4, seed=5)


def flat_metric():
    return geo.DMetric.diagonal([1, 1, 1], [1, -1])


def generic_ansatz():
    """Fully generic smooth ansatz data (x2, x3, v dependence everywhere)."""
    g2 = ex.mul(ex.exp(X2), ex.add(1, ex.mul(0.3, X3 ** 2)))
    g3 = ex.add(1, ex.mul(0.2, X2 ** 2), ex.mul(0.1, X3))
    h4 = ex.add(1, ex.mul(0.5, V ** 2), ex.mul(0.2, X2), ex.mul(0.1, X3, V))
    h5 = ex.add(2, ex.mul(0.3, V), ex.mul(0.1, X3, V ** 2), ex.mul(0.2, X2, V))
    w2 = ex.add(ex.mul(0.2, V, X2), ex.mul(0.05, X3))
    w3 = ex.add(ex.mul(0.1, V ** 2), ex.mul(0.1, X2, X3))
    n2 = ex.add(ex.mul(0.3, V ** 2, X3), ex.mul(0.2, X2))
    n3 = ex.add(ex.mul(0.05, V ** 3), ex.mul(0.1, X3, V))
    g = geo.DMetric.diagonal([1, g2, g3], [h4, h5])
    N = geo.NConnection.build([[0, 0], [w2, n2], [w3, n3]])
    return g, N


@functools.lru_cache(maxsize=None)
def generic_canonical():
    g, N = generic_ansatz()
    conn = geo.canonical_dconnection(g, N, C5)
    ric = geo.curvature_ricci(conn, g, N, C5)
    return g, N, conn, ric


@functools.lru_cache(maxsize=None)
def generic_lc():
    g, N, _, _ = generic_canonical()
    return geo.lc_decomposition(g, N, C5)


class TestChart:
    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            geo.Chart(("x1",), ("v",))
        with pytest.raises(ValueError):
            geo.Chart(("x1", "x2"), ())

    def test_unique_names(self):
        with pytest.raises(ValueError):
            geo.Chart(("x1", "x2"), ("x2",))

    def test_standard_charts(self):
        assert C5.n == 3 and C5.m == 2 and C5.dim == 5
        c4 = geo.chart_4d(("chi",))
        assert c4.coord_names == ("x2", "x3", "v", "y5")
        assert "chi" in c4.all_names


class TestAnholonomy:
    def test_vanishes_for_zero_n(self):
        anh = geo.anholonomy(C5, geo.NConnection.zero(C5))
        assert all(ex.is_zero(anh.omega[a][i][j])
                   for a in range(2) for i in range(3) for j in range(3))
        assert all(ex.is_zero(anh.w[i][a][b])
                   for i in range(3) for a in range(2) for b in range(2))

    def test_vertical_derivative_coefficient(self):
        # N_2^4 = v: the v-derivative coefficient W_24^4 is 1
        N = geo.NConnection.build([[0, 0], [V, 0], [0, 0]])
        anh = geo.anholonomy(C5, N)
        assert ex.same_tree(anh.w[1][0][0], ex.ONE)

    def test_omega_sign_convention(self):
        # frozen: Omega^a_ij = e_i(N_j^a) - e_j(N_i^a)
        N = geo.NConnection.build([[0, 0], [X3, 0], [0, 0]])
        anh = geo.anholonomy(C5, N)
        assert ex.evaluate(anh.omega[0][1][2], PTS[0]) == -1.0
        assert ex.evaluate(anh.omega[0][2][1], PTS[0]) == 1.0

    def test_omega_antisymmetry(self):
        g, N = generic_ansatz()
        anh = geo.anholonomy(C5, N)
        for a in range(2):
            for i in range(3):
                for j in range(3):
                    s = ex.add(anh.omega[a][i][j], anh.omega[a][j][i])
                    assert max_abs_at(s, PTS[:4]) < 1e-14


class TestCanonicalConnection:
    def test_flat_constant_metric(self):
        conn = geo.canonical_dconnection(flat_metric(), geo.NConnection.zero(C5), C5)
        for plane in conn:
            for row in plane:
                for c in row:
                    assert ex.is_zero(c)

    def test_one_immutable_table(self):
        # Gamma[c][b][a] over global indices; a d-connection keeps the
        # splitting, so its mixed blocks (c and b in different subspaces) vanish
        _, _, conn, _ = generic_canonical()
        assert isinstance(conn, tuple) and len(conn) == 5
        assert all(isinstance(row, tuple) and len(row) == 5
                   for plane in conn for row in plane)
        for c in range(5):
            for b in range(5):
                if (c < 3) != (b < 3):
                    assert all(ex.is_zero(x) for x in conn[c][b])

    def test_conformal_h_block(self):
        # g2 = g3 = e^psi: L^2_22 = psi_x2/2, L^2_33 = -psi_x2/2, L^2_23 = psi_x3/2
        psi = ex.add(X2, ex.mul(2, X3))
        g = geo.DMetric.diagonal([1, ex.exp(psi), ex.exp(psi)], [1, 1])
        conn = geo.canonical_dconnection(g, geo.NConnection.zero(C5), C5)
        p = PTS[0]
        assert ex.evaluate(conn[1][1][1], p) == pytest.approx(0.5)
        assert ex.evaluate(conn[1][2][2], p) == pytest.approx(-0.5)
        assert ex.evaluate(conn[1][1][2], p) == pytest.approx(1.0)

    def test_v_block_coefficient(self):
        # h44 = h4(v): C^4_44 = h4* / (2 h4)
        h4 = ex.add(1, V ** 2)
        g = geo.DMetric.diagonal([1, 1, 1], [h4, 1])
        conn = geo.canonical_dconnection(g, geo.NConnection.zero(C5), C5)
        expected = ex.div(ex.diff(h4, "v"), ex.mul(2, h4))
        assert max_abs_at(ex.sub(conn[3][3][3], expected), PTS) < 1e-15

    def test_h_symmetry(self):
        g, N, conn, _ = generic_canonical()
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    d = ex.sub(conn[i][j][k], conn[i][k][j])
                    assert max_abs_at(d, PTS[:4]) < 1e-13

    def test_metric_compatibility(self):
        # numerically D g = 0 for the canonical connection on generic data
        g, N, G, _ = generic_canonical()
        gfull = [[ex.ZERO] * 5 for _ in range(5)]
        for i in range(3):
            for j in range(3):
                gfull[i][j] = g.g[i][j]
        for a in range(2):
            for b in range(2):
                gfull[3 + a][3 + b] = g.h[a][b]
        comps = []
        for al in range(5):
            for be in range(5):
                for ga in range(5):
                    t = geo.elongated(C5, N, gfull[be][ga], al)
                    for mu in range(5):
                        t = ex.sub(t, ex.mul(G[mu][be][al], gfull[mu][ga]))
                        t = ex.sub(t, ex.mul(G[mu][ga][al], gfull[be][mu]))
                    comps.append(t)
        worst = max(abs(v) for p in PTS[:3] for v in ex.evaluate_many(comps, p))
        assert worst < 1e-9


class TestLCDecomposition:
    def test_vanishes_for_block_constant(self):
        lc = geo.lc_decomposition(flat_metric(), geo.NConnection.zero(C5), C5)
        for plane in lc:
            for row in plane:
                for c in row:
                    assert max_abs_at(c, PTS[:2]) < 1e-15

    def test_h_block_coincides_with_canonical(self):
        g, N, conn, _ = generic_canonical()
        lc = generic_lc()
        worst = max(max_abs_at(ex.sub(lc[i][j][k], conn[i][j][k]), PTS[:4])
                    for i in range(3) for j in range(3) for k in range(3))
        assert worst < 1e-12

    def test_v_block_coincides_with_canonical(self):
        g, N, conn, _ = generic_canonical()
        lc = generic_lc()
        worst = max(max_abs_at(ex.sub(lc[3 + a][3 + b][3 + c],
                                      conn[3 + a][3 + b][3 + c]), PTS[:4])
                    for a in range(2) for b in range(2) for c in range(2))
        assert worst < 1e-12

    def test_coordinate_inverse_identity(self):
        g, N = generic_ansatz()
        gc = geo.coordinate_metric(g, N, C5)
        gi = geo.coordinate_metric_inverse(g, N, C5)
        for a in range(5):
            for b in range(5):
                t = ex.sub(ex.add(*(ex.mul(gc[a][k], gi[k][b]) for k in range(5))),
                           geo.kronecker(a, b))
                assert max_abs_at(t, PTS[:3]) < 1e-12

    def test_coordinate_lc_is_metric_compatible(self):
        g, N = generic_ansatz()
        gc = geo.coordinate_metric(g, N, C5)
        gi = geo.coordinate_metric_inverse(g, N, C5)
        chr_ = geo.coordinate_christoffels(gc, gi, C5)
        names = C5.coord_names
        comps = []
        for al in range(5):
            for be in range(5):
                for ga in range(5):
                    t = ex.diff(gc[be][ga], names[al])
                    for mu in range(5):
                        t = ex.sub(t, ex.mul(chr_[mu][al][be], gc[mu][ga]))
                        t = ex.sub(t, ex.mul(chr_[mu][al][ga], gc[be][mu]))
                    comps.append(t)
        worst = max(abs(v) for p in PTS[:2] for v in ex.evaluate_many(comps, p))
        assert worst < 1e-12


class TestTorsion:
    def test_flat_canonical_torsion_free(self):
        conn = geo.canonical_dconnection(flat_metric(), geo.NConnection.zero(C5), C5)
        tor = geo.torsion(conn, geo.NConnection.zero(C5), C5)
        assert all(ex.is_zero(c) or max_abs_at(c, PTS[:2]) < 1e-15
                   for c in tor.all_components())

    def test_canonical_identities(self):
        # T^i_jk = 0 and T^a_bc = 0 hold identically for the canonical tables
        g, N, conn, _ = generic_canonical()
        tor = geo.torsion(conn, N, C5)
        for blk in (tor.t_hhh, tor.t_vvv):
            for plane in blk:
                for row in plane:
                    for c in row:
                        assert max_abs_at(c, PTS[:4]) < 1e-13

    def test_vhh_block_is_anholonomy(self):
        g, N, conn, _ = generic_canonical()
        tor = geo.torsion(conn, N, C5)
        anh = geo.anholonomy(C5, N)
        for a in range(2):
            for j in range(3):
                for i in range(3):
                    assert ex.same_tree(tor.t_vhh[a][j][i], anh.omega[a][j][i])

    def test_vvh_block_composes_with_connection(self):
        # N_2^4 = v, constant h-block: T^4_42 = dN_2^4/dv - L^4_42 = 1 - L^4_42
        N = geo.NConnection.build([[0, 0], [V, 0], [0, 0]])
        g = flat_metric()
        conn = geo.canonical_dconnection(g, N, C5)
        tor = geo.torsion(conn, N, C5)
        expected = ex.sub(1, conn[3][3][1])
        assert max_abs_at(ex.sub(tor.t_vvh[0][0][1], expected), PTS[:4]) < 1e-15


class TestCurvature:
    def test_flat_ricci_vanishes(self):
        N0 = geo.NConnection.zero(C5)
        g = flat_metric()
        ric = geo.curvature_ricci(geo.canonical_dconnection(g, N0, C5), g, N0, C5)
        pts = random_points(C5.all_names, k=100, seed=9)
        worst = max(max_abs_at(ric.ricci[b][t], pts)
                    for b in range(5) for t in range(5))
        assert worst < 1e-12

    def test_harmonic_conformal_block_is_ricci_flat(self):
        N0 = geo.NConnection.zero(C5)
        g = geo.DMetric.diagonal([1, ex.exp(X2), ex.exp(X2)], [1, 1])
        ric = geo.curvature_ricci(geo.canonical_dconnection(g, N0, C5), g, N0, C5)
        assert max_abs_at(ric.mixed_h(g, 1, 1), PTS) < 1e-13

    def test_sign_convention_conformal_oracle(self):
        # frozen: g2 = g3 = e^{x2^2} gives R^2_2 = R^3_3 = -e^{-x2^2}
        N0 = geo.NConnection.zero(C5)
        g = geo.DMetric.diagonal([1, ex.exp(X2 ** 2), ex.exp(X2 ** 2)], [1, 1])
        ric = geo.curvature_ricci(geo.canonical_dconnection(g, N0, C5), g, N0, C5)
        for p in PTS[:6]:
            oracle = -np.exp(-p["x2"] ** 2)
            assert ex.evaluate(ric.mixed_h(g, 1, 1), p) == pytest.approx(
                oracle, rel=1e-12)
            assert ex.evaluate(ric.mixed_h(g, 2, 2), p) == pytest.approx(
                oracle, rel=1e-12)

    def test_round_sphere_block(self):
        # v-block a^2 (dv^2 + sin^2 v dy5^2): Ricci = (1/a^2) h
        a2 = 10.0 / 3.0
        N0 = geo.NConnection.zero(C5)
        g = geo.DMetric.diagonal([1, 1, 1], [a2, ex.mul(a2, ex.sin(V) ** 2)])
        ric = geo.curvature_ricci(geo.canonical_dconnection(g, N0, C5), g, N0, C5)
        for p in PTS[:4]:
            assert ex.evaluate(ric.vv(0, 0), p) == pytest.approx(1.0, rel=1e-12)
            assert ex.evaluate(ric.vv(1, 1), p) == pytest.approx(
                np.sin(p["v"]) ** 2, rel=1e-12)

    def test_scalar_contraction_identity(self):
        g, N, _, ric = generic_canonical()
        ginv, hinv = g.g_inv(), g.h_inv()
        acc = ex.ZERO
        for i in range(3):
            for j in range(3):
                acc = ex.add(acc, ex.mul(ginv[i][j], ric.ricci[i][j]))
        for a in range(2):
            for b in range(2):
                acc = ex.add(acc, ex.mul(hinv[a][b], ric.ricci[3 + a][3 + b]))
        assert max_abs_at(ex.sub(ric.scalar, acc), PTS[:4]) < 1e-12

    def test_einstein_identity(self):
        g, N, _, ric = generic_canonical()
        gfull = [[ex.ZERO] * 5 for _ in range(5)]
        for i in range(3):
            for j in range(3):
                gfull[i][j] = g.g[i][j]
        for a in range(2):
            for b in range(2):
                gfull[3 + a][3 + b] = g.h[a][b]
        for b in range(5):
            for t in range(5):
                d = ex.sub(ric.einstein[b][t],
                           ex.sub(ric.ricci[b][t],
                                  ex.mul(0.5, gfull[b][t], ric.scalar)))
                assert max_abs_at(d, PTS[:3]) < 1e-12

    def test_mixed_blocks_kept_separate(self):
        g, N, _, ric = generic_canonical()
        # the canonical Ricci tensor is nonsymmetric: R_{i4} != R_{4i} here
        d = ex.sub(ric.ha(1, 0), ric.ah(0, 1))
        assert max_abs_at(d, PTS[:6]) > 1e-4

    @staticmethod
    def lean_lc_metric():
        """Lean but structurally complete data: w and n both active, x- and
        v-dependence in every sector."""
        g = geo.DMetric.diagonal(
            [1, ex.exp(X2), ex.add(1, ex.mul(0.2, X3))],
            [ex.add(1, ex.mul(0.5, V ** 2)), ex.add(2, ex.mul(0.3, X2, V))])
        N = geo.NConnection.build(
            [[0, 0], [ex.mul(0.2, V, X2), ex.mul(0.3, V ** 2)],
             [0, ex.mul(0.1, X3)]])
        return g, N

    def test_lc_engine_matches_coordinate_computation(self):
        g, N = self.lean_lc_metric()
        lc = geo.lc_decomposition(g, N, C5)
        ric_frame = geo.curvature_ricci(lc, g, N, C5)
        ric_coord = geo.coordinate_lc_ricci(g, N, C5)
        ric_trans = geo.adapted_from_coordinate(ric_coord, C5, N)
        comps = [ex.sub(ric_frame.ricci[b][t], ric_trans[b][t])
                 for b in range(5) for t in range(5)]
        worst = max(abs(v) for p in PTS[:3] for v in ex.evaluate_many(comps, p))
        assert worst < 1e-11

    def test_lc_ricci_dag_keeps_sharing(self):
        # The builders share subtrees instead of copying them: the frame
        # Ricci of the lean metric is ~3.8k node objects. Copying the tables
        # (simplify() returns a copy) multiplies that ~30x without adding a
        # distinct node, and defeats the memos keyed on object identity.
        g, N = self.lean_lc_metric()
        ric = geo.curvature_ricci(geo.lc_decomposition(g, N, C5), g, N, C5)
        seen = set()
        stack = [e for row in ric.ricci for e in row]
        while stack:
            e = stack.pop()
            if id(e) not in seen:
                seen.add(id(e))
                stack.extend(expr_children(e))
        assert len(seen) < 20_000


class TestClosedFormOracles:
    """Engine agreement with the reduced closed forms on generic data.

    These freeze the engine-calibrated coefficients of the mixed-sector
    reductions (the w-term sign in the R_{4i} form and the h4-damping factor
    1/2 in the R_{5i} form).
    """

    def setup_method(self):
        from nhgeo import generators as gen
        self.gen = gen
        self.g, self.N, _, self.ric = generic_canonical()
        self.h4 = self.g.h[0][0]
        self.h5 = self.g.h[1][1]

    def test_h_sector(self):
        closed = self.gen.closed_r22(self.g.g[1][1], self.g.g[2][2])
        assert max_abs_at(ex.sub(self.ric.mixed_h(self.g, 1, 1), closed), PTS) < 1e-12
        assert max_abs_at(ex.sub(self.ric.mixed_h(self.g, 2, 2), closed), PTS) < 1e-12

    def test_v_sector(self):
        closed = self.gen.closed_s44(self.h4, self.h5)
        assert max_abs_at(ex.sub(self.ric.mixed_v(self.g, 0, 0), closed), PTS) < 1e-12
        assert max_abs_at(ex.sub(self.ric.mixed_v(self.g, 1, 1), closed), PTS) < 1e-12

    def test_mixing_sector(self):
        for i, xi in ((1, "x2"), (2, "x3")):
            closed = self.gen.closed_r4i(self.h4, self.h5,
                                         self.N.entry(i, 0), xi)
            assert max_abs_at(ex.sub(self.ric.ah(0, i), closed), PTS) < 1e-12

    def test_rotation_sector(self):
        for i in (1, 2):
            closed = self.gen.closed_r5i(self.h4, self.h5, self.N.entry(i, 1))
            assert max_abs_at(ex.sub(self.ric.ah(1, i), closed), PTS) < 1e-12


class TestLCCompatibility:
    def grid(self):
        return Grid.build({n: (0.6, 1.4, 3) for n in C5.coord_names})

    def test_trivial_structure_passes(self):
        g = geo.DMetric.diagonal([1, ex.exp(X2), 1], [ex.add(1, V ** 2), 1])
        N0 = geo.NConnection.zero(C5)
        reports = geo.check_lc_compatibility(geo.canonical_dconnection(g, N0, C5),
                                             g, N0, C5, self.grid(), tol=1e-12)
        assert all(r.passed for r in reports)

    def test_nonintegrable_n_fails_first_report(self):
        g = flat_metric()
        N = geo.NConnection.build([[0, 0], [X3, 0], [0, 0]])
        reports = geo.check_lc_compatibility(geo.canonical_dconnection(g, N, C5),
                                             g, N, C5, self.grid(), tol=1e-12)
        assert not reports[0].passed
        assert reports[0].max_abs == pytest.approx(1.0)

    def test_torsion_vanishing_when_reports_pass(self):
        # h depends on v only and N = 0: all three reports pass and every
        # torsion block of the canonical connection vanishes, with the
        # canonical and LC coefficient tables agreeing componentwise
        g = geo.DMetric.diagonal([1, ex.exp(X2), 1], [ex.add(1, V ** 2), V ** 2])
        N0 = geo.NConnection.zero(C5)
        conn = geo.canonical_dconnection(g, N0, C5)
        reports = geo.check_lc_compatibility(conn, g, N0, C5, self.grid(), tol=1e-12)
        assert all(r.passed for r in reports)
        tor = geo.torsion(conn, N0, C5)
        assert all(max_abs_at(c, PTS[:3]) < 1e-12 for c in tor.all_components())
        lc = geo.lc_decomposition(g, N0, C5)
        comps = [ex.sub(conn[a][b][c], lc[a][b][c])
                 for a in range(5) for b in range(5) for c in range(5)]
        worst = max(abs(v) for p in PTS[:3] for v in ex.evaluate_many(comps, p))
        assert worst < 1e-12


class TestMetricValidation:
    def test_invertibility_check(self):
        grid = Grid.build({n: (0.5, 1.5, 3) for n in C5.coord_names})
        good = geo.DMetric.diagonal([1, ex.exp(X2), 1], [1 + V ** 2, 1])
        good.validate_invertible(grid)
        bad = geo.DMetric.diagonal([1, 1, 1], [ex.sub(V, 1), 1])  # h4(1) = 0
        with pytest.raises(geo.SingularMetric, match="h-block") as err:
            bad.validate_invertible(grid)
        assert "grid point" in str(err.value) and "'v': 1.0" in str(err.value)

    def test_invertibility_check_leaves_integrals_and_unbound_names(self):
        grid = Grid.build({n: (0.5, 1.5, 3) for n in C5.coord_names})
        # both determinants vanish at v = 1, but neither is checked: one
        # holds a running integral, the other a name the grid does not bind
        metric = geo.DMetric.diagonal([1, 1, ex.mul(ex.var("p"), ex.sub(V, 1))],
                                      [ex.intv(ex.ONE, 1.0), 1])
        metric.validate_invertible(grid)
        with pytest.raises(geo.SingularMetric, match="g-block"):
            metric.validate_invertible(grid, extra={"p": 1.0})


class TestSympyOracle:
    """Coordinate Christoffels and Ricci against an independent oracle: sympy
    assembles the coordinate metric from (g, h, N) and differentiates it;
    numpy does the point algebra (inverse, Gamma, d Gamma, Ricci)."""

    C4 = geo.chart_4d()

    @staticmethod
    def metric_strings(seed):
        """A random 4D metric: off-diagonal g and h blocks, every entry x-
        or v-dependent, and all four N entries nonzero, so every coordinate
        component is."""
        c = [repr(float(x)) for x in np.random.default_rng(seed).uniform(0.1, 0.4, 13)]
        g01 = f"{c[11]}*x3"
        h01 = f"{c[12]}*v*x2"
        g = [[f"exp({c[0]}*x2)*(1 + {c[1]}*x3)", g01],
             [g01, f"1 + {c[2]}*x2^2 + {c[3]}*v"]]
        h = [[f"1 + {c[4]}*v^2 + {c[5]}*x2", h01], [h01, f"2 + {c[6]}*x3*v"]]
        N = [[f"{c[7]}*v*x2", f"{c[8]}*v^2"], [f"{c[9]}*x3", f"{c[10]}*x2*v"]]
        return g, h, N

    @staticmethod
    def oracle(strings, names, points):
        """(Gamma[c][a][b], R[b][t]) at each point."""
        sp = pytest.importorskip("sympy")
        syms = sp.symbols(names)
        env = dict(zip(names, syms))
        g, h, N = [sp.Matrix([[sp.sympify(s.replace("^", "**"), locals=env)
                               for s in row] for row in rows]) for rows in strings]
        G = sp.Matrix(sp.BlockMatrix([[g + N * h * N.T, N * h], [h * N.T, h]]))
        d = len(names)
        dG = [G.applyfunc(lambda e, x=x: e.diff(x)) for x in syms]
        ddG = [[dG[k].applyfunc(lambda e, x=x: e.diff(x)) for x in syms]
               for k in range(d)]
        fG = sp.lambdify(syms, G, "numpy")
        fdG = sp.lambdify(syms, dG, "numpy")
        fddG = sp.lambdify(syms, ddG, "numpy")
        out = []
        for p in points:
            at = [p[n] for n in names]
            Gi = np.linalg.inv(np.asarray(fG(*at), dtype=float))
            d1 = np.asarray(fdG(*at), dtype=float)         # d1[k, a, b] = d_k G_ab
            d2 = np.asarray(fddG(*at), dtype=float)        # d2[k, l, a, b]
            # lowered symbols [t, a, b] = (d_a G_tb + d_b G_ta - d_t G_ab) / 2
            low = 0.5 * (d1.transpose(1, 0, 2) + d1.transpose(1, 2, 0) - d1)
            dlow = 0.5 * (d2.transpose(0, 2, 1, 3) + d2.transpose(0, 2, 3, 1) - d2)
            gam = np.einsum("ct,tab->cab", Gi, low)
            dGi = -np.einsum("cs,ksu,ut->kct", Gi, d1, Gi)
            dgam = (np.einsum("kct,tab->kcab", dGi, low)
                    + np.einsum("ct,ktab->kcab", Gi, dlow))
            # R_bt = d_a Gamma^a_bt - d_t Gamma^a_ba
            #        + Gamma^m_bt Gamma^a_ma - Gamma^m_ba Gamma^a_mt
            ric = (np.einsum("aabt->bt", dgam) - np.einsum("taba->bt", dgam)
                   + np.einsum("mbt,ama->bt", gam, gam)
                   - np.einsum("mba,amt->bt", gam, gam))
            out.append((gam, ric))
        return out

    @pytest.mark.parametrize("seed", [3, 14, 15])
    def test_christoffels_and_ricci(self, seed):
        strings = self.metric_strings(seed)
        names = self.C4.coord_names
        pts = random_points(names, k=3, lo=0.6, hi=1.4, seed=seed)
        want = self.oracle(strings, names, pts)
        g, h, N = [[[ex.parse(s, names) for s in row] for row in rows]
                   for rows in strings]
        dm, nc = geo.DMetric.build(g, h), geo.NConnection.build(N)
        C4 = self.C4
        gamma = geo.coordinate_christoffels(geo.coordinate_metric(dm, nc, C4),
                                            geo.coordinate_metric_inverse(dm, nc, C4), C4)
        ricci = geo.coordinate_lc_ricci(dm, nc, self.C4)
        d = self.C4.dim
        cols = {n: np.array([p[n] for p in pts]) for n in names}
        k = len(pts)

        def at_points(exprs, shape):
            vals = ex.evaluate_many(exprs, cols)
            return np.array([np.broadcast_to(v, (k,)) for v in vals]).T.reshape(
                k, *shape)

        got_gam = at_points([gamma[c][a][b] for c in range(d) for a in range(d)
                             for b in range(d)], (d, d, d))
        got_ric = at_points([ricci[b][t] for b in range(d) for t in range(d)], (d, d))
        for j, (gam, ric) in enumerate(want):
            for got, ref in ((got_gam[j], gam), (got_ric[j], ric)):
                assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-9
            assert np.max(np.abs(ric)) > 1e-3  # the oracle sees real curvature
