"""Solution generators: the generic 5D/4D class and the LC-compatible
families, with their residual reports and soundness regimes."""

import numpy as np
import pytest

from nhgeo import expr as ex
from nhgeo import generators as gen
from nhgeo import geometry as geo
from nhgeo.numerics import Grid

from conftest import max_abs_at, random_points

X2, X3, V = ex.var("x2"), ex.var("x3"), ex.var("v")
C5 = geo.chart_5d()

GRID5 = Grid.build({n: (0.5, 1.5, 3) for n in ("x1", "x2", "x3", "v")})
GRID4 = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
PTS5 = random_points(C5.all_names, k=10, lo=0.6, hi=1.4, seed=23)


def criterion_recipe(**overrides):
    base = dict(signatures=(1, 1, 1, 1, 1), g2=ex.exp(X2), g3=ex.exp(X2),
                f=V, f0=ex.ZERO, h0=ex.ONE, varsigma0=ex.ONE,
                n1_funcs=(ex.ZERO,) * 3, n2_funcs=(ex.ONE,) * 3, v0=1.0)
    base.update(overrides)
    return gen.SolutionRecipe5D(**base)


def engine_ricci(gm):
    conn = geo.canonical_dconnection(gm.metric, gm.nconn, gm.chart)
    return geo.curvature_ricci(conn, gm.metric, gm.nconn, gm.chart)


def max_ricci(gm, points):
    ric = engine_ricci(gm)
    d = gm.chart.dim
    comps = [ric.ricci[b][t] for b in range(d) for t in range(d)]
    return max(abs(v) for p in points for v in ex.evaluate_many(comps, p))


def h_equation(g2, g3, upsilon4, grid=GRID4):
    """R^2_2 + Upsilon_4 of the closed form on the grid."""
    return ex.evaluate(ex.add(gen.closed_r22(g2, g3), upsilon4), grid.arrays())


class TestHEquation:
    def test_harmonic_profile_passes(self):
        res = h_equation(ex.exp(X2), ex.exp(X2), ex.ZERO)
        assert np.max(np.abs(res)) <= 1e-10

    def test_flat_passes(self):
        res = h_equation(ex.ONE, ex.ONE, ex.ZERO)
        assert np.max(np.abs(res)) == 0.0

    def test_nonharmonic_fails_with_known_magnitude(self):
        res = h_equation(ex.exp(X2 ** 2), ex.exp(X2 ** 2), ex.ZERO)
        assert np.max(np.abs(res)) > 1e-10
        x2s = GRID4.arrays()["x2"]
        assert np.max(np.abs(res)) == pytest.approx(float(np.max(np.exp(-x2s ** 2))),
                                                    rel=1e-12)


class TestBuildVarsigma:
    def test_vacuum_leaves_integration_function(self):
        recipe = criterion_recipe(varsigma0=ex.add(1, X2))
        vs = gen.build_varsigma(recipe, gen.Source.vacuum())
        assert ex.same_tree(vs, recipe.varsigma0)

    def test_closed_form_linear_f(self):
        # f = v, f0 = 0, h0 = 1, e4 = 1, Upsilon2 = 8, varsigma0 = 1, v0 = 0:
        # varsigma = 1 - v^2/2
        recipe = criterion_recipe(v0=0.0)
        src = gen.Source(ex.const(8.0), ex.ZERO)
        vs = gen.build_varsigma(recipe, src)
        for v in (0.25, 0.8, 1.3):
            assert ex.evaluate(vs, {"x1": 1, "x2": 1, "x3": 1, "v": v}) == \
                pytest.approx(1 - v ** 2 / 2, abs=1e-10)

    def test_v_derivative_is_integrand(self):
        # fundamental theorem at the base point, checked against a finite
        # difference of the quadrature itself
        recipe = criterion_recipe(f=ex.add(V, ex.mul(0.2, V ** 2)), v0=0.5)
        src = gen.Source(ex.add(1, ex.mul(0.5, X2)), ex.ZERO)
        vs = gen.build_varsigma(recipe, src)
        dvs = ex.diff(vs, "v")
        p = {"x1": 1.0, "x2": 0.7, "x3": 1.2, "v": 0.5}
        e4, h0 = 1.0, 1.0
        f, f0 = recipe.f, recipe.f0
        expected = -(e4 / 8.0) * h0 ** 2 * ex.evaluate(
            ex.mul(src.upsilon2, ex.diff(f, "v"), ex.sub(f, f0)), p)
        assert ex.evaluate(dvs, p) == pytest.approx(expected, rel=1e-12)
        h = 1e-6
        up = ex.evaluate(vs, {**p, "v": 0.5 + h})
        dn = ex.evaluate(vs, {**p, "v": 0.5 - h})
        assert (up - dn) / (2 * h) == pytest.approx(expected, rel=1e-6)


class TestGenerate5D:
    def test_reference_closed_forms(self):
        gm = gen.generate_5d(criterion_recipe(), gen.Source.vacuum(), grid=GRID5)
        p = {"x1": 1.0, "x2": 0.7, "x3": 1.2, "v": 1.3, "y5": 1.0}
        assert ex.evaluate(gm.metric.h[0][0], p) == 1.0
        assert ex.evaluate(gm.metric.h[1][1], p) == pytest.approx(1.3 ** 2)
        for i in range(3):
            assert ex.is_zero(gm.nconn.entry(i, 0))  # vacuum mixing
            assert ex.evaluate(gm.nconn.entry(i, 1), p) == pytest.approx(
                0.5 * (1 - 1.3 ** -2), abs=1e-10)

    def test_constant_n_when_second_family_vanishes(self):
        recipe = criterion_recipe(n1_funcs=(ex.mul(0.3, X2),) * 3,
                                  n2_funcs=(ex.ZERO,) * 3)
        gm = gen.generate_5d(recipe, gen.Source.vacuum())
        for i in range(3):
            assert "v" not in gm.nconn.entry(i, 1).free_vars

    def test_engine_ricci_vanishes_on_grid(self):
        gm = gen.generate_5d(criterion_recipe(), gen.Source.vacuum(), grid=GRID5)
        assert max_ricci(gm, PTS5) < 1e-10

    def test_degenerate_recipe_rejected(self):
        with pytest.raises(gen.DegenerateRecipe):
            gen.generate_5d(criterion_recipe(f0=V), gen.Source.vacuum(),
                            grid=GRID5)

    def test_vacuum_soundness_generic_f_without_rotation(self):
        # arbitrary generating function, n_k v-independent: exact vacuum
        recipe = criterion_recipe(
            f=ex.add(V, ex.mul(0.3, X2, V ** 2)),
            f0=ex.mul(0.1, X3),
            n1_funcs=(ex.mul(0.2, X2), X3, ex.ZERO),
            n2_funcs=(ex.ZERO,) * 3)
        gm = gen.generate_5d(recipe, gen.Source.vacuum(), grid=GRID5)
        assert max_ricci(gm, PTS5) < 1e-10

    def test_vacuum_soundness_linear_f_with_rotation(self):
        # v-dependent n_k stays exact when f is linear in v (the v-block
        # coefficient h4 is then v-independent)
        recipe = criterion_recipe(
            f=ex.mul(ex.add(1, ex.mul(0.2, X2)), V),
            n2_funcs=(ex.ONE, ex.mul(0.5, X3), ex.ZERO))
        gm = gen.generate_5d(recipe, gen.Source.vacuum(), grid=GRID5)
        assert max_ricci(gm, PTS5) < 1e-10

    def test_h_sector_source_soundness(self):
        # Upsilon4-only source: engine Ricci matches the diagonal layout
        ups4 = ex.exp(ex.neg(X2 ** 2))
        src = gen.Source(ex.ZERO, ups4)
        recipe = criterion_recipe(g2=ex.exp(X2 ** 2), g3=ex.exp(X2 ** 2))
        gm = gen.generate_5d(recipe, src, grid=GRID5)
        ric = engine_ricci(gm)
        g = gm.metric
        checks = [ex.add(ric.mixed_h(g, 1, 1), ups4),
                  ex.add(ric.mixed_h(g, 2, 2), ups4),
                  ric.mixed_h(g, 0, 0),
                  ric.mixed_v(g, 0, 0), ric.mixed_v(g, 1, 1)]
        checks += [ric.ah(a, i) for a in range(2) for i in range(3)]
        checks += [ric.ha(i, a) for a in range(2) for i in range(3)]
        assert max(max_abs_at(c, PTS5[:6]) for c in checks) < 1e-10

    def test_v_sector_source_actual_value(self):
        # With a nonzero v-sector source the construction is a first-order
        # approximation: the engine value of S^4_4 for the generated family
        # is exactly -Upsilon2 / (16 varsigma^2), not -Upsilon2 (see the
        # decisions ledger). This freezes the honest behavior.
        lam2 = 0.4
        src = gen.Source(ex.const(lam2), ex.ZERO)
        recipe = criterion_recipe(v0=0.0)
        gm = gen.generate_5d(recipe, src)
        vs = gen.build_varsigma(recipe, src)
        ric = engine_ricci(gm)
        s44 = ric.mixed_v(gm.metric, 0, 0)
        expected = ex.neg(ex.div(lam2, ex.mul(16, ex.pow_(vs, 2))))
        pts = [p for p in PTS5 if abs(ex.evaluate(vs, p)) > 0.2]
        assert pts
        assert max(abs(ex.evaluate(ex.sub(s44, expected), p)) for p in pts) < 1e-9

    def test_w_formula_identity(self):
        # beta * w_i + alpha_i = 0 pointwise for sourced recipes (constant h0)
        src = gen.Source(ex.mul(0.5, ex.add(1, ex.mul(0.3, X2))), ex.ZERO)
        recipe = criterion_recipe(v0=0.0)
        gm = gen.generate_5d(recipe, src)
        h4, h5 = gm.metric.h[0][0], gm.metric.h[1][1]
        aux = gen.aux_coeffs(h4, h5)
        for i, alpha in ((1, aux.alpha2), (2, aux.alpha3)):
            w_i = gm.nconn.entry(i, 0)
            ident = ex.add(ex.mul(aux.beta, w_i), alpha)
            assert max_abs_at(ident, PTS5[:6]) < 1e-9

    def test_n_formula_identity(self):
        # n_k** + gamma n_k* = 0 pointwise with the conventional gamma
        src = gen.Source(ex.mul(0.5, ex.add(1, ex.mul(0.3, X2))), ex.ZERO)
        recipe = criterion_recipe(v0=0.0)
        gm = gen.generate_5d(recipe, src)
        h4, h5 = gm.metric.h[0][0], gm.metric.h[1][1]
        gamma = gen.aux_coeffs(h4, h5).gamma
        for k in range(3):
            n_k = gm.nconn.entry(k, 1)
            ns = ex.diff(n_k, "v")
            ident = ex.add(ex.diff(ns, "v"), ex.mul(gamma, ns))
            assert max_abs_at(ident, PTS5[:6]) < 1e-8


class TestGenerate4D:
    def test_reduction_matches_5d_on_shared_coordinates(self):
        recipe = criterion_recipe()
        gm5 = gen.generate_5d(recipe, gen.Source.vacuum())
        gm4 = gen.generate_4d(recipe, gen.Source.vacuum())
        assert gm4.chart.dim == 4
        pts = random_points(("x2", "x3", "v", "y5"), k=6, seed=31)
        for i4, i5 in ((0, 1), (1, 2)):
            assert max_abs_at(ex.sub(gm4.metric.g[i4][i4],
                                     gm5.metric.g[i5][i5]), pts) < 1e-14
            for a in range(2):
                assert max_abs_at(ex.sub(gm4.nconn.entry(i4, a),
                                         gm5.nconn.entry(i5, a)), pts) < 1e-12
        for a in range(2):
            assert max_abs_at(ex.sub(gm4.metric.h[a][a], gm5.metric.h[a][a]),
                              pts) < 1e-14

    def test_flat_recipe_gives_flat_metric(self):
        recipe = criterion_recipe(g2=ex.ONE, g3=ex.ONE,
                                  n2_funcs=(ex.ZERO,) * 3)
        gm4 = gen.generate_4d(recipe, gen.Source.vacuum())
        assert max_ricci(gm4, random_points(gm4.chart.all_names, k=5,
                                            seed=33)) < 1e-13

    def test_h_sector_source_cross_check(self):
        # the 4D h-block residual coincides with the standalone 2D check
        ups4 = ex.exp(ex.neg(X2 ** 2))
        recipe = criterion_recipe(g2=ex.exp(X2 ** 2), g3=ex.exp(X2 ** 2))
        gm4 = gen.generate_4d(recipe, gen.Source(ex.ZERO, ups4))
        ric = engine_ricci(gm4)
        closed = h_equation(gm4.metric.g[0][0], gm4.metric.g[1][1], ups4)
        r22 = ric.mixed_h(gm4.metric, 0, 0)
        cols = GRID4.arrays()
        engine_res = np.asarray(ex.evaluate(ex.add(r22, ups4), cols))
        assert np.max(np.abs(engine_res - closed)) < 1e-12

    def test_x1_dependence_rejected(self):
        recipe = criterion_recipe(g2=ex.exp(ex.var("x1")))
        with pytest.raises(gen.DegenerateRecipe):
            gen.generate_4d(recipe, gen.Source.vacuum())


class TestVacuumLC:
    def test_reference_family_passes_everything(self):
        recipe = gen.VacuumLCRecipe(signatures=(1, 1, 1, 1), psi=X2, b=V,
                                    b0=ex.ZERO, n2=ex.ZERO, n3=ex.ZERO)
        gm, reports = gen.generate_vacuum_lc(recipe, GRID4)
        assert all(r.passed for r in reports)
        conn = geo.canonical_dconnection(gm.metric, gm.nconn, gm.chart)
        lc_reports = geo.check_lc_compatibility(conn, gm.metric, gm.nconn,
                                                gm.chart, GRID4, tol=1e-12)
        assert all(r.passed for r in lc_reports)
        lc = geo.lc_decomposition(gm.metric, gm.nconn, gm.chart)
        ric = geo.curvature_ricci(lc, gm.metric, gm.nconn, gm.chart)
        comps = [ric.ricci[b][t] for b in range(4) for t in range(4)]
        pts = random_points(gm.chart.all_names, k=8, seed=37)
        assert max(abs(v) for p in pts for v in ex.evaluate_many(comps, p)) < 1e-8

    def test_zero_profile_is_trivial(self):
        recipe = gen.VacuumLCRecipe(signatures=(1, 1, 1, 1), psi=ex.ZERO, b=V,
                                    b0=ex.ZERO, n2=ex.ZERO, n3=ex.ZERO)
        gm, reports = gen.generate_vacuum_lc(recipe, GRID4)
        assert all(r.passed for r in reports)
        assert max_ricci(gm, random_points(gm.chart.all_names, k=5,
                                           seed=41)) < 1e-12

    def test_incompatible_n_fails_third_report(self):
        recipe = gen.VacuumLCRecipe(signatures=(1, 1, 1, 1), psi=X2, b=V,
                                    b0=ex.ZERO, n2=X3, n3=ex.ZERO)
        _, reports = gen.generate_vacuum_lc(recipe, GRID4)
        by_name = {r.equation: r for r in reports}
        assert not by_name["n-curl"].passed
        assert by_name["n-curl"].max_abs == pytest.approx(1.0)

    def test_degenerate_profile_rejected(self):
        recipe = gen.VacuumLCRecipe(signatures=(1, 1, 1, 1), psi=X2,
                                    b=X2, b0=ex.ZERO, n2=ex.ZERO, n3=ex.ZERO)
        with pytest.raises(gen.DegenerateRecipe):
            gen.generate_vacuum_lc(recipe, GRID4)  # b* = 0


def sourced_pair(lam, c=1.0):
    """Closed-form v-sector pair solving the coupling equation: h5 = v^2 and
    h4 = 1/(c + lam v^2) (from integrating the first-order relation)."""
    return ex.div(1, ex.add(c, ex.mul(lam, V ** 2))), V ** 2


class TestSourcedLC:
    def test_vacuum_limit_reduces_to_lc_family(self):
        b = V
        h4 = ex.ONE       # h0 = 1, b* = 1
        h5 = V ** 2       # (b + 0)^2
        recipe = gen.SourcedLCRecipe(signatures=(1, 1, 1, 1), psi=ex.ZERO,
                                     h4=h4, h5=h5, n2=ex.ZERO, n3=ex.ZERO,
                                     source=gen.Source.vacuum())
        gm, reports = gen.generate_sourced_lc(recipe, GRID4)
        assert all(r.passed for r in reports)

    def test_constant_source_closed_form_pair(self):
        lam = 0.25
        h4, h5 = sourced_pair(lam)
        recipe = gen.SourcedLCRecipe(
            signatures=(1, 1, 1, 1), psi=ex.mul(lam / 2.0, X2 ** 2),
            h4=h4, h5=h5, n2=ex.ZERO, n3=ex.ZERO,
            source=gen.Source.constant(lam))
        gm, reports = gen.generate_sourced_lc(recipe, GRID4)
        by_name = {r.equation: r for r in reports}
        assert by_name["psi-equation"].passed
        assert by_name["v-coupling"].passed
        assert all(r.passed for r in reports)
        # the engine value of the v-sector matches the source exactly here
        ric = engine_ricci(gm)
        s44 = ric.mixed_v(gm.metric, 0, 0)
        pts = random_points(gm.chart.all_names, k=6, seed=43)
        assert max_abs_at(ex.add(s44, lam), pts) < 1e-10

    def test_mismatched_pair_fails_coupling(self):
        lam = 0.25
        recipe = gen.SourcedLCRecipe(
            signatures=(1, 1, 1, 1), psi=ex.mul(lam / 2.0, X2 ** 2),
            h4=ex.add(1, V ** 2), h5=V ** 2, n2=ex.ZERO, n3=ex.ZERO,
            source=gen.Source.constant(lam))
        _, reports = gen.generate_sourced_lc(recipe, GRID4)
        by_name = {r.equation: r for r in reports}
        assert not by_name["v-coupling"].passed

    def test_literal_reading_flag(self):
        lam = 0.25
        h4, h5 = sourced_pair(lam)
        recipe = gen.SourcedLCRecipe(
            signatures=(1, 1, 1, 1), psi=ex.mul(lam / 2.0, X2 ** 2),
            h4=h4, h5=h5, n2=ex.ZERO, n3=ex.ZERO,
            source=gen.Source.constant(lam))
        _, consistent = gen.generate_sourced_lc(recipe, GRID4,
                                                v_reading="consistent")
        _, literal = gen.generate_sourced_lc(recipe, GRID4, v_reading="literal")
        cn = {r.equation: r for r in consistent}
        ln = {r.equation: r for r in literal}
        assert cn["v-coupling"].passed
        assert not ln["v-coupling"].passed  # the printed reading is not
        # compatible with this (exact) pair

    def test_phi_constant_with_source_rejected(self):
        recipe = gen.SourcedLCRecipe(
            signatures=(1, 1, 1, 1), psi=ex.ZERO,
            h4=ex.ONE, h5=V ** 2, n2=ex.ZERO, n3=ex.ZERO,
            source=gen.Source.constant(0.25))
        with pytest.raises(gen.PhiConstant):
            gen.generate_sourced_lc(recipe, GRID4)


class TestParametricFamilies:
    """Recipe fields may depend on a declared parameter vector; fixing the
    parameters must land back on an exact solution for every value."""

    def test_theta_dependent_vacuum_recipe(self):
        th1, th2 = ex.var("theta1"), ex.var("theta2")
        recipe = gen.SolutionRecipe5D(
            signatures=(1, 1, 1, 1, 1),
            g2=ex.exp(ex.mul(X2, ex.add(1, ex.mul(0.2, th1)))),
            g3=ex.exp(ex.mul(X2, ex.add(1, ex.mul(0.2, th1)))),
            f=ex.add(V, ex.mul(th2, X2, V ** 2)), f0=ex.ZERO,
            h0=ex.ONE, varsigma0=ex.ONE,
            n1_funcs=(ex.mul(th1, X3), ex.ZERO, ex.ZERO),
            n2_funcs=(ex.ZERO,) * 3, v0=1.0,
            params=("theta1", "theta2"))
        gm = gen.generate_5d(recipe, gen.Source.vacuum())
        assert gm.chart.params == ("theta1", "theta2")
        for th in ((0.0, 0.1), (0.7, 0.3), (-0.4, 0.2)):
            pts = random_points(gm.chart.coord_names, k=4, lo=0.7, hi=1.3,
                                seed=97)
            for p in pts:
                p["theta1"], p["theta2"] = th
            assert max_ricci(gm, pts) < 1e-10

    def test_theta_dependent_lc_flow_family(self):
        # one-parameter family of static evolution solutions: every theta
        # slice passes the selection system and the evolution residuals
        # (a chi-evolving conformal factor would pass the printed selection
        # lines but feed d_chi e^psi into the evolution equation, so the
        # exact family is parametric-in-theta, static-in-chi)
        from nhgeo import ricci_flow as rf
        th1 = ex.var("theta1")
        grid = GRID4
        recipe = rf.LCFlowRecipe(
            signatures=(1, 1, 1, 1),
            psi=ex.mul(X2, ex.add(1, ex.mul(0.3, th1))),
            h4=ex.ONE, h5=V ** 2, w2=ex.ZERO, w3=ex.ZERO,
            n2=ex.mul(0.2, th1), lam=0.0, params=("theta1",))
        for theta in (0.0, 0.5, 1.0):
            fam, reports = rf.build_lc_flow(recipe, grid, (0.0, 0.5, 1.0),
                                            extra={"theta1": theta})
            assert all(r.passed for r in reports)
            flow_reports = rf.flow_residuals(fam, grid, tol=1e-8,
                                             extra={"theta1": theta})
            assert all(r.passed for r in flow_reports)


class TestSignatures:
    """Any signature pattern is admitted; the generators and engine work
    componentwise in the block coefficients."""

    def test_vacuum_class_with_negative_v_signature(self):
        rec = criterion_recipe(signatures=(1, 1, 1, -1, 1))
        gm = gen.generate_5d(rec, gen.Source.vacuum(), grid=GRID5)
        p = PTS5[0]
        assert ex.evaluate(gm.metric.h[0][0], p) == -1.0
        assert max_ricci(gm, PTS5[:6]) < 1e-10

    def test_wave_type_conformal_block(self):
        # eps2 = 1, eps3 = -1: psi = x2^2 + x3^2 solves the selection line
        # (second derivatives cancel across the signature split)
        rec = gen.VacuumLCRecipe(signatures=(1, -1, 1, 1),
                                 psi=ex.add(X2 ** 2, X3 ** 2), b=V,
                                 b0=ex.ZERO, n2=ex.ZERO, n3=ex.ZERO)
        gm, reports = gen.generate_vacuum_lc(rec, GRID4)
        assert all(r.passed for r in reports)
        lc = geo.lc_decomposition(gm.metric, gm.nconn, gm.chart)
        ric = geo.curvature_ricci(lc, gm.metric, gm.nconn, gm.chart)
        comps = [ric.ricci[a][b] for a in range(4) for b in range(4)]
        pts = random_points(gm.chart.all_names, k=6, seed=113)
        assert max(abs(v) for p in pts
                   for v in ex.evaluate_many(comps, p)) < 1e-10
