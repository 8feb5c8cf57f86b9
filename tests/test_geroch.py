"""Killing checks, one-parameter transforms, vielbeins, deformations."""

import math

import numpy as np
import pytest

from nhgeo import expr as ex
from nhgeo import generators as gen
from nhgeo import geometry as geo
from nhgeo import geroch as gr
from nhgeo.numerics import Grid

from conftest import max_abs_at, random_points

X2, X3, V = ex.var("x2"), ex.var("x3"), ex.var("v")
GRID4 = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
PTS4 = random_points(("x2", "x3", "v", "y5"), k=8, lo=0.6, hi=1.4, seed=71)

XI = (0.7, 0.2, 0.0, 0.4)
LAM_G = sum(x * x for x in XI)


def flat_seed():
    chart = geo.chart_4d()
    g = geo.DMetric.diagonal([1, 1], [1, 1])
    return gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart),
                               provenance={"family": "flat"})


def flat_xi():
    return gr.KillingData.build(list(XI))


def flat_potentials(omega=0.0):
    c = (LAM_G ** 2 + omega ** 2 - 1.0) / LAM_G
    return gr.GerochPotentials.build(
        omega, [omega * x / LAM_G for x in XI], [0, 0, 0, 0],
        [c * x for x in XI])


def lc_ricci_max(gm, points):
    ric = geo.coordinate_lc_ricci(gm.metric, gm.nconn, gm.chart)
    d = gm.chart.dim
    comps = [ric[a][b] for a in range(d) for b in range(d)]
    return max(abs(v) for p in points for v in ex.evaluate_many(comps, p))


class TestKillingResidual:
    def test_generated_metric_vertical_symmetry(self):
        # any metric of the working ansatz is independent of y5; the covector
        # dual to the y5 frame direction is Killing
        recipe = gen.SolutionRecipe5D(
            signatures=(1, 1, 1, 1, 1), g2=ex.exp(X2), g3=ex.exp(X2),
            f=V, f0=ex.ZERO, h0=ex.ONE, varsigma0=ex.ONE,
            n1_funcs=(ex.ZERO,) * 3, n2_funcs=(ex.ONE,) * 3, v0=1.0)
        gm5 = gen.generate_5d(recipe, gen.Source.vacuum())
        gc = gm5.coordinate_components()
        xi = gr.KillingData.build([gc[a][4] for a in range(5)])
        grid5 = Grid.build({n: (0.5, 1.5, 3)
                            for n in ("x1", "x2", "x3", "v", "y5")})
        rep = gr.killing_residual(gm5, xi, grid5, tol=1e-10)
        assert rep.passed

    def test_flat_constant_covector(self):
        rep = gr.killing_residual(flat_seed(), flat_xi(), GRID4, tol=1e-12)
        assert rep.passed

    def test_linear_covector_fails_with_residual_two(self):
        xi = gr.KillingData.build([X2, 0, 0, 0])
        rep = gr.killing_residual(flat_seed(), xi, GRID4, tol=1e-10)
        assert not rep.passed
        assert rep.max_abs == pytest.approx(2.0)


class TestGerochResiduals:
    def test_flat_constant_potentials_pass(self):
        reports = gr.geroch_residuals(flat_seed(), flat_xi(), flat_potentials(),
                                      GRID4, tol=1e-10)
        assert all(r.passed for r in reports)

    def test_nonconstant_twist_fails_gradient_equation(self):
        pot = flat_potentials()
        bad = gr.GerochPotentials(X2, pot.alpha, pot.beta, pot.mu)
        reports = gr.geroch_residuals(flat_seed(), flat_xi(), bad, GRID4,
                                      tol=1e-10)
        by_name = {r.equation: r for r in reports}
        assert not by_name["twist-gradient"].passed
        assert by_name["twist-gradient"].max_abs == pytest.approx(1.0)

    def test_algebraic_twist_mismatch_reported_exactly(self):
        pot = flat_potentials()
        bad = gr.GerochPotentials(ex.const(0.3), pot.alpha, pot.beta, pot.mu)
        reports = gr.geroch_residuals(flat_seed(), flat_xi(), bad, GRID4,
                                      tol=1e-10)
        by_name = {r.equation: r for r in reports}
        assert by_name["omega-algebraic"].max_abs == pytest.approx(0.3)


class TestApplyGeroch:
    def test_requires_checks(self):
        with pytest.raises(gr.PotentialsNotVerified):
            gr.apply_geroch(flat_seed(), flat_xi(), flat_potentials(), 0.3)

    def test_refuses_failing_checks(self):
        pot = flat_potentials()
        bad = gr.GerochPotentials(X2, pot.alpha, pot.beta, pot.mu)
        checks = gr.geroch_residuals(flat_seed(), flat_xi(), bad, GRID4)
        with pytest.raises(gr.PotentialsNotVerified):
            gr.apply_geroch(flat_seed(), flat_xi(), bad, 0.3, checks=checks)

    def test_zero_angle_identity(self):
        seed = flat_seed()
        checks = gr.geroch_residuals(seed, flat_xi(), flat_potentials(), GRID4)
        out = gr.apply_geroch(seed, flat_xi(), flat_potentials(), 0.0,
                              checks=checks, grid=GRID4)
        ga, gb = seed.coordinate_components(), out.coordinate_components()
        worst = max(max_abs_at(ex.sub(ga[a][b], gb[a][b]), PTS4)
                    for a in range(4) for b in range(4))
        assert worst < 1e-12

    def test_closed_form_scaling_without_twist(self):
        # omega = 0, alpha = beta = 0: the transform is conformal on the
        # xi-orthogonal part with factor lam/lam_tilde
        seed = flat_seed()
        pot = flat_potentials()
        checks = gr.geroch_residuals(seed, flat_xi(), pot, GRID4)
        theta = 0.7
        out = gr.apply_geroch(seed, flat_xi(), pot, theta, checks=checks,
                              grid=GRID4)
        fac = math.cos(theta) ** 2 + LAM_G ** 2 * math.sin(theta) ** 2
        lam_tilde = LAM_G / fac
        gc = out.coordinate_components()
        for a in range(4):
            for b in range(4):
                flat = 1.0 if a == b else 0.0
                expected = fac * (flat - XI[a] * XI[b] / LAM_G) \
                    + XI[a] * XI[b] / lam_tilde
                assert max_abs_at(ex.sub(gc[a][b], expected), PTS4[:3]) < 1e-12

    def test_small_angle_continuity(self):
        seed = flat_seed()
        pot = flat_potentials(omega=0.2)
        checks = gr.geroch_residuals(seed, flat_xi(), pot, GRID4)
        theta = 1e-4
        out = gr.apply_geroch(seed, flat_xi(), pot, theta, checks=checks,
                              grid=GRID4)
        ga, gb = seed.coordinate_components(), out.coordinate_components()
        worst = max(max_abs_at(ex.sub(ga[a][b], gb[a][b]), PTS4[:3])
                    for a in range(4) for b in range(4))
        assert 0.0 < worst < 5e-3  # O(theta)

    def test_vacuum_preservation(self):
        seed = flat_seed()
        pot = flat_potentials()
        checks = gr.geroch_residuals(seed, flat_xi(), pot, GRID4, tol=1e-10)
        for theta in (0.1, 0.7):
            out = gr.apply_geroch(seed, flat_xi(), pot, theta, checks=checks,
                                  grid=GRID4)
            assert lc_ricci_max(out, PTS4[:4]) < 1e-6

    def test_degenerate_denominator(self):
        # null Killing covector on a Lorentzian seed: lam_g = 0, and with
        # omega = cot(theta) the transform denominator vanishes identically
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([-1, 1], [1, 1])
        seed = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
        xi = gr.KillingData.build([1.0, 1.0, 0.0, 0.0])
        theta = 0.5
        omega = math.cos(theta) / math.sin(theta)
        # algebraic constraints for lam_g = 0: xi.alpha = omega, xi.mu = w^2-1
        # with xi^up = (-1, 1, 0, 0)
        pot = gr.GerochPotentials.build(
            omega, [0.0, omega, 0.0, 0.0], [0, 0, 0, 0],
            [0.0, omega ** 2 - 1.0, 0.0, 0.0])
        checks = gr.geroch_residuals(seed, xi, pot, GRID4, tol=1e-10)
        assert all(r.passed for r in checks)
        with pytest.raises(gr.DegenerateDenominator, match="grid point"):
            gr.apply_geroch(seed, xi, pot, theta, checks=checks, grid=GRID4)


class TestVielbein:
    def test_diagonal_metric_gives_sqrt_entries(self):
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([4.0, 1.0], [9.0, -16.0])
        gm = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
        fm = gr.solve_vielbein(gm, (1, 1, 1, -1))
        A = fm.primary(PTS4[0])
        assert np.allclose(np.diag(A), [2.0, 1.0, 3.0, 4.0])

    def test_reproduction_with_mixing(self):
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([1, ex.exp(X2)], [ex.add(1, V ** 2), 2])
        N = geo.NConnection.build([[V, 0], [0, ex.mul(0.3, X2)]])
        gm = gen.GeneratedMetric(chart, g, N)
        fm = gr.solve_vielbein(gm, (1, 1, 1, 1))
        gc = gm.coordinate_components()
        eta = np.diag([1.0, 1.0, 1.0, 1.0])
        for p in PTS4[:5]:
            A = fm.primary(p)
            gmat = np.array([[ex.evaluate(gc[a][b], p) for b in range(4)]
                             for a in range(4)])
            assert np.max(np.abs(A @ eta @ A.T - gmat)) < 1e-10

    def test_frame_matrix_carries_negative_n_block(self):
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([1, 1], [1, 1])
        N = geo.NConnection.build([[V, 0], [0, 0]])
        gm = gen.GeneratedMetric(chart, g, N)
        fm = gr.solve_vielbein(gm, (1, 1, 1, 1))
        p = dict(PTS4[0])
        frame = fm.frame(p)  # inverse of the factor: the adapted frame rows
        assert frame[0, 2] == pytest.approx(-p["v"])

    def test_singular_metric(self):
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([1, 1], [ex.sub(V, 1), 1])
        gm = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
        fm = gr.solve_vielbein(gm, (1, 1, 1, 1))
        with pytest.raises(geo.SingularMetric):
            fm.primary({"x2": 1.0, "x3": 1.0, "v": 1.0, "y5": 1.0})

    def test_signature_mismatch(self):
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([1, 1], [-1, 1])
        gm = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
        fm = gr.solve_vielbein(gm, (1, 1, 1, 1))
        with pytest.raises(gr.SignatureMismatch):
            fm.primary(PTS4[0])

    def test_b_tilde_maps_between_metrics(self):
        seed = flat_seed()
        pot = flat_potentials()
        checks = gr.geroch_residuals(seed, flat_xi(), pot, GRID4)
        out = gr.apply_geroch(seed, flat_xi(), pot, 0.4, checks=checks,
                              grid=GRID4)
        fm = gr.solve_vielbein(seed, (1, 1, 1, 1), deformed=out)
        gc_out = out.coordinate_components()
        for p in PTS4[:3]:
            B = fm.b_tilde(p)
            gmat = np.array([[ex.evaluate(seed.coordinate_components()[a][b], p)
                              for b in range(4)] for a in range(4)])
            tmat = np.array([[ex.evaluate(gc_out[a][b], p) for b in range(4)]
                             for a in range(4)])
            assert np.max(np.abs(B @ gmat @ B.T - tmat)) < 1e-10


class TestDeform:
    def check_metric(self):
        chart = geo.chart_4d()
        g = geo.DMetric.diagonal([1, ex.exp(X2)], [1, V ** 2])
        N = geo.NConnection.build([[ex.mul(0.2, V), 0], [0, ex.mul(0.3, X3)]])
        return gen.GeneratedMetric(chart, g, N, provenance={"family": "check"})

    def test_identity_polarization(self):
        check = self.check_metric()
        out = gr.nonholonomic_deform(check, gr.Polarizations.identity(2, 2))
        for p in PTS4[:3]:
            for i in range(2):
                assert ex.evaluate(out.metric.g[i][i], p) == \
                    ex.evaluate(check.metric.g[i][i], p)

    def test_componentwise_definition(self):
        check = self.check_metric()
        pol = gr.Polarizations.build([1, 1], [V ** 2, 1], [[1, 1], [1, 1]])
        out = gr.nonholonomic_deform(check, pol)
        for p in PTS4[:3]:
            assert ex.evaluate(out.metric.h[0][0], p) == \
                pytest.approx(p["v"] ** 2, rel=1e-15)

    def test_round_trip(self):
        check = self.check_metric()
        pol = gr.Polarizations.build([ex.exp(X3), 2], [ex.add(1, X2 ** 2), 0.5],
                                     [[V, 1], [1, ex.exp(X2)]])
        inv = gr.Polarizations.build([ex.exp(ex.neg(X3)), 0.5],
                                     [ex.div(1, ex.add(1, X2 ** 2)), 2],
                                     [[ex.div(1, V), 1],
                                      [1, ex.exp(ex.neg(X2))]])
        out = gr.nonholonomic_deform(gr.nonholonomic_deform(check, pol), inv)
        comps = []
        for i in range(2):
            comps.append(ex.sub(out.metric.g[i][i], check.metric.g[i][i]))
            comps.append(ex.sub(out.metric.h[i][i], check.metric.h[i][i]))
            for a in range(2):
                comps.append(ex.sub(out.nconn.entry(i, a),
                                    check.nconn.entry(i, a)))
        assert max(max_abs_at(c, PTS4[:4]) for c in comps) < 1e-12

    def test_zero_polarization_rejected(self):
        with pytest.raises(gr.ZeroPolarization):
            gr.Polarizations.build([0, 1], [1, 1], [[1, 1], [1, 1]])

    def test_polarizations_reaching_generated_target(self):
        # target = a generated vacuum metric; polarizations = target/check
        # ratios turn the check metric into it, so the deformed output passes
        # the vacuum layout checks
        recipe = gen.SolutionRecipe5D(
            signatures=(1, 1, 1, 1, 1), g2=ex.exp(X2), g3=ex.exp(X2),
            f=V, f0=ex.ZERO, h0=ex.ONE, varsigma0=ex.ONE,
            n1_funcs=(ex.ZERO,) * 3, n2_funcs=(ex.ONE,) * 3, v0=1.0)
        target = gen.generate_4d(recipe, gen.Source.vacuum())
        chart = target.chart
        check_g = geo.DMetric.diagonal([1, 1], [1, 1])
        profile = ex.intv(ex.pow_(V, -3), 1.0)
        check_n = geo.NConnection.build([[1, profile], [1, profile]])
        check = gen.GeneratedMetric(chart, check_g, check_n)
        pol = gr.Polarizations.build(
            [target.metric.g[i][i] for i in range(2)],
            [target.metric.h[a][a] for a in range(2)],
            [[ex.ZERO, ex.ONE], [ex.ZERO, ex.ONE]])
        out = gr.nonholonomic_deform(check, pol)
        comps = [ex.sub(out.metric.g[i][i], target.metric.g[i][i])
                 for i in range(2)]
        comps += [ex.sub(out.metric.h[a][a], target.metric.h[a][a])
                  for a in range(2)]
        comps += [ex.sub(out.nconn.entry(i, a), target.nconn.entry(i, a))
                  for i in range(2) for a in range(2)]
        assert max(max_abs_at(c, PTS4[:4]) for c in comps) < 1e-12
        conn = geo.canonical_dconnection(out.metric, out.nconn, chart)
        ric = geo.curvature_ricci(conn, out.metric, out.nconn, chart)
        rc = [ric.ricci[a][b] for a in range(4) for b in range(4)]
        assert max(abs(v) for p in PTS4[:4]
                   for v in ex.evaluate_many(rc, p)) < 1e-10


class TestSuperpose:
    def test_empty_chain_is_identity(self):
        seed = flat_seed()
        out = gr.superpose(seed, [], GRID4)
        assert out.provenance["chain"] == [{"kind": "identity"}]
        assert out.metric is seed.metric

    def test_trivial_steps_compose_to_identity(self):
        seed = flat_seed()
        steps = [gr.GerochStep(0.0, flat_xi(), flat_potentials()),
                 gr.DeformStep(gr.Polarizations.identity(2, 2))]
        out = gr.superpose(seed, steps, GRID4)
        ga, gb = seed.coordinate_components(), out.coordinate_components()
        worst = max(max_abs_at(ex.sub(ga[a][b], gb[a][b]), PTS4[:3])
                    for a in range(4) for b in range(4))
        assert worst < 1e-12

    def test_two_transforms_compose_in_closed_form(self):
        # on a twist-free constant seed each step scales the xi-orthogonal
        # part by (cos^2 t + lam^2 sin^2 t); compose two and compare
        seed = flat_seed()
        th1, th2 = 0.3, 0.55
        lam1 = LAM_G
        fac1 = math.cos(th1) ** 2 + lam1 ** 2 * math.sin(th1) ** 2
        lam2 = lam1 / fac1
        fac2 = math.cos(th2) ** 2 + lam2 ** 2 * math.sin(th2) ** 2
        lam3 = lam2 / fac2

        def pots(lam):
            c = (lam ** 2 - 1.0) / lam
            return gr.GerochPotentials.build(0.0, [0, 0, 0, 0], [0, 0, 0, 0],
                                             [c * x for x in XI])

        steps = [gr.GerochStep(th1, flat_xi(), pots(lam1)),
                 gr.GerochStep(th2, flat_xi(), pots(lam2))]
        out = gr.superpose(seed, steps, GRID4)
        gc = out.coordinate_components()
        for a in range(4):
            for b in range(4):
                flat = 1.0 if a == b else 0.0
                expected = fac2 * fac1 * (flat - XI[a] * XI[b] / lam1) \
                    + XI[a] * XI[b] / lam3
                assert max_abs_at(ex.sub(gc[a][b], expected), PTS4[:2]) < 1e-11
        assert [s["kind"] for s in out.provenance["chain"]] == ["geroch", "geroch"]

    def test_apply_chain_returns_step_checks(self):
        seed = flat_seed()
        steps = [gr.GerochStep(0.3, flat_xi(), flat_potentials()),
                 gr.DeformStep(gr.Polarizations.identity(2, 2))]
        out, reports = gr.apply_chain(seed, steps, GRID4)
        assert [r.equation for r in reports] == [
            "twist-gradient", "alpha-curl", "mu-curl", "omega-algebraic",
            "mu-algebraic"]
        assert all(r.passed for r in reports)
        assert "chain" not in out.provenance
        full = gr.superpose(seed, steps, GRID4)
        printed = [[ex.to_str(c) for c in row]
                   for m in (out, full) for row in m.metric.g + m.metric.h]
        assert printed[:4] == printed[4:]
        assert full.provenance["chain"] == [{"kind": "geroch", "theta": 0.3},
                                            {"kind": "deform"}]

    def test_five_dimensional_seed_reduction(self):
        chart = geo.chart_5d()
        g = geo.DMetric.diagonal([1, 1, ex.exp(X2)], [1, V ** 2])
        gm = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
        out = gr.drop_trivial_x1(gm)
        assert out.chart.dim == 4
        assert out.chart.x_names == ("x2", "x3")
        bad = gen.GeneratedMetric(chart, geo.DMetric.diagonal(
            [ex.exp(ex.var("x1")), 1, 1], [1, 1]), geo.NConnection.zero(chart))
        with pytest.raises(ValueError):
            gr.drop_trivial_x1(bad)
