"""Evolution families: fixed points, the integrable flow class, the
Levi-Civita flow family, and the unnormalized cross-check."""

import pytest

from nhgeo import expr as ex
from nhgeo import generators as gen
from nhgeo import geometry as geo
from nhgeo import ricci_flow as rf
from nhgeo.numerics import Grid

from conftest import max_abs_at, random_points

X2, X3, V, CHI = ex.var("x2"), ex.var("x3"), ex.var("v"), ex.var("chi")

GRID4 = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
GRID5 = Grid.build({n: (0.5, 1.5, 3) for n in ("x1", "x2", "x3", "v", "y5")})
CHIS = (0.0, 0.5, 1.0)


def sphere_product_family(lam=0.3, shrink=None):
    """Product of two round spheres of radius 1/sqrt(lam); with ``shrink``
    the whole metric carries the factor (1 - 2 lam chi)."""
    a2 = 1.0 / lam
    scale = ex.ONE if shrink is None else ex.sub(1, ex.mul(2 * lam, CHI))
    chart = geo.chart_4d(("chi",))
    g = geo.DMetric.diagonal(
        [ex.mul(scale, a2), ex.mul(scale, a2, ex.sin(X2) ** 2)],
        [ex.mul(scale, a2), ex.mul(scale, a2, ex.sin(V) ** 2)])
    gm = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart),
                             provenance={"family": "einstein-product"})
    return rf.FlowFamily(gm, lam if shrink is None else 0.0, CHIS)


class TestFlowResiduals:
    def test_flat_static_family(self):
        chart = geo.chart_4d(("chi",))
        g = geo.DMetric.diagonal([1, 1], [1, -1])
        fam = rf.FlowFamily(gen.GeneratedMetric(chart, g,
                                                geo.NConnection.zero(chart)),
                            0.0, CHIS)
        reports = rf.flow_residuals(fam, GRID4, tol=1e-12)
        assert all(r.passed for r in reports)

    def test_einstein_fixed_point(self):
        fam = sphere_product_family(lam=0.3)
        reports = rf.flow_residuals(fam, GRID4, tol=1e-10)
        assert all(r.passed for r in reports)

    def test_normalization_difference_is_2_lambda_g(self):
        fam = sphere_product_family(lam=0.3)
        gm = fam.metric
        eq_h, eq_v, _ = rf.flow_residual_components(fam)
        ham = rf.hamilton_residual_components(fam)
        gcoord = geo.coordinate_metric(gm.metric, gm.nconn, gm.chart)
        pts = random_points(gm.chart.all_names, k=6, seed=51)
        for idx, res in enumerate(eq_h + eq_v):
            diff = ex.sub(ex.sub(ham[idx][idx], res),
                          ex.mul(2 * fam.lam, gcoord[idx][idx]))
            assert max_abs_at(diff, pts) < 1e-12

    def test_nondiagonal_family_rejected(self):
        chart = geo.chart_4d(("chi",))
        g = geo.DMetric.build([[1, ex.mul(0.1, X2)], [ex.mul(0.1, X2), 1]],
                              [[1, 0], [0, 1]])
        fam = rf.FlowFamily(gen.GeneratedMetric(chart, g,
                                                geo.NConnection.zero(chart)),
                            0.0, CHIS)
        with pytest.raises(rf.NonDiagonalFamily):
            rf.flow_residuals(fam, GRID4)


class TestBuildFlowSolution:
    def recipe(self, **overrides):
        base = dict(signatures=(1, 1, 1, 1, 1), varpi=ex.exp(X2), h5=V ** 2,
                    h0fn=ex.ONE, varsigma40=ex.ONE, n1fn=ex.mul(0.2, X2),
                    n2fn=ex.ZERO, lam=0.0, v0=1.0)
        base.update(overrides)
        return rf.FlowRecipe(**base)

    def test_vacuum_family_passes_evolution_residuals(self):
        fam = rf.build_flow_solution(self.recipe(), GRID5, CHIS)
        reports = rf.flow_residuals(fam, GRID5, tol=1e-7)
        assert all(r.passed for r in reports)

    def test_unit_h_profile(self):
        # h5 = v^2, h[0] = 1, lam = 0: h4 = ((|v|)*)^2 = 1 on v > 0
        fam = rf.build_flow_solution(self.recipe(), GRID5, CHIS)
        h4 = fam.metric.metric.h[0][0]
        for p in random_points(fam.metric.chart.all_names, k=5, seed=53):
            assert ex.evaluate(h4, p) == pytest.approx(1.0, abs=1e-12)

    def test_incompatible_conformal_profile_rejected(self):
        with pytest.raises(rf.HorizontalCompatibilityError):
            rf.build_flow_solution(self.recipe(varpi=ex.exp(X2 ** 2)),
                                   GRID5, CHIS)

    def test_incompatible_quadrature_profile_rejected(self):
        # sqrt|h5| = e^{v/2} is not linear in v, so no choice of integration
        # function keeps h5 * integral v-independent
        with pytest.raises(rf.QuadratureCompatibilityError):
            rf.build_flow_solution(self.recipe(h5=ex.exp(V), n1fn=ex.ZERO,
                                               n2fn=ex.mul(0.1, CHI)),
                                   GRID5, CHIS, tol=1e-8)

    def test_chi_dependent_rotation_violates_h_equation(self):
        # h5 = v^2 passes the quadrature compatibility (sqrt h5 linear in v)
        # but a chi-dependent n[2] feeds v-dependence into the h-equation
        with pytest.raises(rf.HorizontalCompatibilityError):
            rf.build_flow_solution(self.recipe(n1fn=ex.ZERO,
                                               n2fn=ex.mul(0.1, CHI)),
                                   GRID5, CHIS, tol=1e-8)

    def test_static_rotation_family(self):
        # chi-independent n[2]: the full static family with v-dependent
        # N-coefficients still passes every evolution residual
        fam = rf.build_flow_solution(self.recipe(n1fn=ex.ZERO, n2fn=ex.ONE),
                                     GRID5, CHIS)
        n2 = fam.metric.nconn.entry(1, 1)
        assert "v" in n2.free_vars
        reports = rf.flow_residuals(fam, GRID5, tol=1e-8)
        assert all(r.passed for r in reports)


class TestBuildLCFlow:
    def vacuum_pair(self):
        # from the compatible-profile family: b = v, h0 = 1
        return ex.ONE, V ** 2

    def test_static_limit(self):
        h4, h5 = self.vacuum_pair()
        recipe = rf.LCFlowRecipe(signatures=(1, 1, 1, 1), psi=X2, h4=h4, h5=h5,
                                 w2=ex.ZERO, w3=ex.ZERO, n2=ex.const(0.3),
                                 lam=0.0)
        fam, reports = rf.build_lc_flow(recipe, GRID4, CHIS)
        assert all(r.passed for r in reports)
        gm = fam.metric
        conn = geo.canonical_dconnection(gm.metric, gm.nconn, gm.chart)
        lc_reports = geo.check_lc_compatibility(conn, gm.metric, gm.nconn,
                                                gm.chart, GRID4, tol=1e-10,
                                                extra={"chi": 0.5})
        assert all(r.passed for r in lc_reports)
        flow_reports = rf.flow_residuals(fam, GRID4, tol=1e-8)
        assert all(r.passed for r in flow_reports)

    def test_linear_profile_any_chi_dependence_passes_first_line(self):
        h4, h5 = self.vacuum_pair()
        recipe = rf.LCFlowRecipe(signatures=(1, 1, 1, 1),
                                 psi=ex.mul(X2, ex.add(1, ex.mul(0.5, CHI))),
                                 h4=h4, h5=h5, w2=ex.ZERO, w3=ex.ZERO,
                                 n2=ex.ZERO, lam=0.0)
        _, reports = rf.build_lc_flow(recipe, GRID4, CHIS)
        by_name = {r.equation: r for r in reports}
        assert by_name["psi-equation"].passed

    def test_incompatible_n_evolution_fails_fourth_line(self):
        h4, h5 = self.vacuum_pair()
        recipe = rf.LCFlowRecipe(signatures=(1, 1, 1, 1), psi=X2, h4=h4, h5=h5,
                                 w2=ex.ZERO, w3=ex.ZERO,
                                 n2=ex.mul(X2, ex.mul(0.7, CHI)), lam=0.0)
        _, reports = rf.build_lc_flow(recipe, GRID4, CHIS)
        by_name = {r.equation: r for r in reports}
        assert not by_name["n-evolution"].passed
        # residual is n2' - n2-bullet = -0.7 chi, maximal at chi = 1
        assert by_name["n-evolution"].max_abs == pytest.approx(0.7)

    def test_unknown_v_reading_rejected(self):
        h4, h5 = self.vacuum_pair()
        recipe = rf.LCFlowRecipe(signatures=(1, 1, 1, 1), psi=X2, h4=h4, h5=h5,
                                 w2=ex.ZERO, w3=ex.ZERO, n2=ex.ZERO, lam=0.0)
        with pytest.raises(ValueError, match="v_reading"):
            rf.build_lc_flow(recipe, GRID4, CHIS, v_reading="bogus")
        _, literal = rf.build_lc_flow(recipe, GRID4, CHIS, v_reading="literal")
        _, consistent = rf.build_lc_flow(recipe, GRID4, CHIS)
        coupling = [{r.equation: r for r in reps}["v-coupling"].max_abs
                    for reps in (literal, consistent)]
        assert coupling[0] != coupling[1]

    def test_lc_flow_has_vanishing_torsion_per_slice(self):
        h4, h5 = self.vacuum_pair()
        recipe = rf.LCFlowRecipe(signatures=(1, 1, 1, 1), psi=X2, h4=h4, h5=h5,
                                 w2=ex.ZERO, w3=ex.ZERO, n2=ex.const(0.2),
                                 lam=0.0)
        fam, _ = rf.build_lc_flow(recipe, GRID4, CHIS)
        gm = fam.metric
        conn = geo.canonical_dconnection(gm.metric, gm.nconn, gm.chart)
        tor = geo.torsion(conn, gm.nconn, gm.chart)
        for chi in CHIS:
            pts = random_points(gm.chart.coord_names, k=4, seed=61)
            for p in pts:
                p["chi"] = chi
            worst = max(max_abs_at(c, pts) for c in tor.all_components())
            assert worst < 1e-10


class TestHamilton:
    def test_static_ricci_flat_family(self):
        chart = geo.chart_4d(("chi",))
        g = geo.DMetric.diagonal([1, 1], [1, 1])
        fam = rf.FlowFamily(gen.GeneratedMetric(chart, g,
                                                geo.NConnection.zero(chart)),
                            0.0, CHIS)
        rep = rf.hamilton_residual(fam, GRID4, tol=1e-12)
        assert rep.passed

    def test_shrinking_round_family(self):
        fam = sphere_product_family(lam=0.3, shrink=True)
        rep = rf.hamilton_residual(fam, GRID4, tol=1e-10)
        assert rep.passed

    def test_difference_from_normalized_flow(self):
        fam = sphere_product_family(lam=0.3)
        flow = rf.flow_residuals(fam, GRID4, tol=1e-10)
        ham = rf.hamilton_residual(fam, GRID4, tol=1.0)
        # the static Einstein family passes the normalized system while the
        # unnormalized residual is exactly 2 lam g in magnitude
        assert all(r.passed for r in flow)
        a2 = 1.0 / 0.3
        assert ham.max_abs == pytest.approx(2 * 0.3 * a2, rel=1e-12)
