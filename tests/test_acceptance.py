"""Acceptance suite: the toolkit's exit criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.
"""

import json
import math
import time

import numpy as np

from nhgeo import cli
from nhgeo import expr as ex
from nhgeo import generators as gen
from nhgeo import geometry as geo
from nhgeo import geroch as gr
from nhgeo import ricci_flow as rf
from nhgeo.numerics import Grid, integrate_v

from conftest import RandomExprs, central_fd, random_points

V, X2, X3 = ex.var("v"), ex.var("x2"), ex.var("x3")


def report(number, label, passed, detail=""):
    line = f"ACCEPTANCE {number}: {label}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_vacuum_generator_soundness():
    """Reference vacuum recipe: engine Ricci < 1e-8 on the 4^4 grid."""
    t0 = time.perf_counter()
    recipe = gen.SolutionRecipe5D(
        signatures=(1, 1, 1, 1, 1), g2=ex.exp(X2), g3=ex.exp(X2),
        f=V, f0=ex.ZERO, h0=ex.ONE, varsigma0=ex.ONE,
        n1_funcs=(ex.ZERO,) * 3, n2_funcs=(ex.ONE,) * 3, v0=1.0)
    grid = Grid.build({n: (0.5, 1.5, 4) for n in ("x1", "x2", "x3", "v")})
    gm = gen.generate_5d(recipe, gen.Source.vacuum(), grid=grid)
    conn = geo.canonical_dconnection(gm.metric, gm.nconn, gm.chart)
    ric = geo.curvature_ricci(conn, gm.metric, gm.nconn, gm.chart)
    cols = dict(grid.arrays())
    cols["y5"] = 1.0
    worst = 0.0
    for b in range(5):
        for t in range(5):
            vals = np.broadcast_to(
                np.asarray(ex.evaluate(ric.ricci[b][t], cols)), (grid.size,))
            worst = max(worst, float(np.max(np.abs(vals))))
    elapsed = time.perf_counter() - t0
    report(1, "vacuum 5D generator soundness",
           worst < 1e-8 and elapsed < 30.0,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_agreement():
    """Engine mixed Ricci components match the closed forms at 50 random
    points to relative 1e-9."""
    rng = np.random.default_rng(101)

    def random_metric():
        c = rng.uniform(0.05, 0.4, size=16)
        g2 = ex.mul(ex.exp(ex.mul(c[0], X2)), ex.add(1, ex.mul(c[1], X3 ** 2)))
        g3 = ex.add(1, ex.mul(c[2], X2 ** 2), ex.mul(c[3], X3))
        h4 = ex.add(1, ex.mul(c[4], V ** 2), ex.mul(c[5], X2),
                    ex.mul(c[6], X3, V))
        h5 = ex.add(2, ex.mul(c[7], V), ex.mul(c[8], X3, V ** 2),
                    ex.mul(c[9], X2, V))
        w2 = ex.add(ex.mul(c[10], V, X2), ex.mul(0.05, X3))
        w3 = ex.add(ex.mul(c[11], V ** 2), ex.mul(c[12], X2, X3))
        n2 = ex.add(ex.mul(c[13], V ** 2, X3), ex.mul(0.2, X2))
        n3 = ex.add(ex.mul(c[14], V ** 3), ex.mul(c[15], X3, V))
        g = geo.DMetric.diagonal([1, g2, g3], [h4, h5])
        N = geo.NConnection.build([[0, 0], [w2, n2], [w3, n3]])
        return g, N

    worst = 0.0
    for _ in range(2):
        g, N = random_metric()
        conn = geo.canonical_dconnection(g, N, geo.chart_5d())
        ric = geo.curvature_ricci(conn, g, N, geo.chart_5d())
        h4, h5 = g.h[0][0], g.h[1][1]
        pairs = [
            (ric.mixed_h(g, 1, 1), gen.closed_r22(g.g[1][1], g.g[2][2])),
            (ric.mixed_v(g, 0, 0), gen.closed_s44(h4, h5)),
        ]
        for i, xi in ((1, "x2"), (2, "x3")):
            pairs.append((ric.ah(0, i),
                          gen.closed_r4i(h4, h5, N.entry(i, 0), xi)))
            pairs.append((ric.ah(1, i), gen.closed_r5i(h4, h5, N.entry(i, 1))))
        pts = [{nm: float(rng.uniform(0.6, 1.4)) for nm in
                geo.chart_5d().all_names} for _ in range(25)]
        for engine, closed in pairs:
            for p in pts:
                e, c = ex.evaluate(engine, p), ex.evaluate(closed, p)
                worst = max(worst, abs(e - c) / (1.0 + abs(c)))
    report(2, "closed-form oracle agreement", worst < 1e-9,
           f"worst relative deviation {worst:.2e}")


def _random_vacuum_lc_recipe(rng):
    a, b_, c, d = rng.uniform(-0.5, 0.5, size=4)
    psi = ex.add(ex.mul(a, ex.sub(X2 ** 2, X3 ** 2)), ex.mul(b_, X2, X3),
                 ex.mul(c, X2), ex.mul(d, X3))
    p = ex.add(1, ex.mul(float(rng.uniform(0.1, 0.4)), X2),
               ex.mul(float(rng.uniform(0.1, 0.4)), X3))
    q = ex.add(1, ex.mul(0.5, V ** 2))
    r = ex.mul(float(rng.uniform(0.2, 0.8)), V)
    bfun = ex.add(ex.mul(p, q), r)
    pot = ex.mul(float(rng.uniform(-0.3, 0.3)), ex.add(X2 ** 2, X3 ** 2))
    return gen.VacuumLCRecipe(
        signatures=(1, 1, 1, 1), psi=psi, b=bfun,
        b0=ex.const(float(rng.uniform(-0.3, 0.3))),
        n2=ex.simplify(ex.diff(pot, "x2")), n3=ex.simplify(ex.diff(pot, "x3")))


def test_criterion_3_torsion_vanishing_theorem():
    """Randomized LC-selected vacuum recipes: selection passes at 1e-10, all
    torsion components < 1e-9 and the canonical/LC tables agree < 1e-9."""
    rng = np.random.default_rng(202)
    grid = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
    cols = grid.arrays()
    worst_t, worst_c = 0.0, 0.0
    for trial in range(5):
        recipe = _random_vacuum_lc_recipe(rng)
        gm, reports = gen.generate_vacuum_lc(recipe, grid, tol=1e-10)
        assert all(r.passed for r in reports), \
            [r.summary_line() for r in reports]
        conn = geo.canonical_dconnection(gm.metric, gm.nconn, gm.chart)
        tor = geo.torsion(conn, gm.nconn, gm.chart)
        for comp in tor.all_components():
            vals = np.broadcast_to(np.asarray(ex.evaluate(comp, cols)),
                                   (grid.size,))
            worst_t = max(worst_t, float(np.max(np.abs(vals))))
        lc = geo.lc_decomposition(gm.metric, gm.nconn, gm.chart)
        comps = [ex.sub(conn[x][y][z], lc[x][y][z])
                 for x in range(4) for y in range(4) for z in range(4)]
        evald = [np.broadcast_to(np.asarray(v), (grid.size,))
                 for v in ex.evaluate_many(comps, cols)]
        worst_c = max(worst_c, float(max(np.max(np.abs(v)) for v in evald)))
    report(3, "torsion-vanishing theorem on LC-selected recipes",
           worst_t < 1e-9 and worst_c < 1e-9,
           f"max torsion {worst_t:.2e}, max table gap {worst_c:.2e}")


def test_criterion_4_lc_vacuum_ricci():
    """The reference LC-selected metric has Levi-Civita Ricci < 1e-8."""
    recipe = gen.VacuumLCRecipe(signatures=(1, 1, 1, 1), psi=X2, b=V,
                                b0=ex.ZERO, n2=ex.ZERO, n3=ex.ZERO)
    grid = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
    gm, reports = gen.generate_vacuum_lc(recipe, grid, tol=1e-10)
    assert all(r.passed for r in reports)
    lc = geo.lc_decomposition(gm.metric, gm.nconn, gm.chart)
    ric = geo.curvature_ricci(lc, gm.metric, gm.nconn, gm.chart)
    cols = grid.arrays()
    comps = [ric.ricci[a][b] for a in range(4) for b in range(4)]
    worst = max(float(np.max(np.abs(np.broadcast_to(np.asarray(v),
                                                    (grid.size,)))))
                for v in ex.evaluate_many(comps, cols))
    report(4, "LC vacuum Ricci of the reference family", worst < 1e-8,
           f"max residual {worst:.2e}")


def test_criterion_5_flow_fixed_point():
    """chi-independent Einstein family (lam = 0.3): evolution residuals
    < 1e-10 and the normalization difference equals 2 lam g to 1e-12."""
    lam = 0.3
    a2 = 1.0 / lam
    chart = geo.chart_4d(("chi",))
    g = geo.DMetric.diagonal([a2, ex.mul(a2, ex.sin(X2) ** 2)],
                             [a2, ex.mul(a2, ex.sin(V) ** 2)])
    gm = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
    fam = rf.FlowFamily(gm, lam, (0.0, 0.5, 1.0))
    grid = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
    reports = rf.flow_residuals(fam, grid, tol=1e-10)
    ok_flow = all(r.passed for r in reports)

    eq_h, eq_v, _ = rf.flow_residual_components(fam)
    ham = rf.hamilton_residual_components(fam)
    gcoord = geo.coordinate_metric(g, geo.NConnection.zero(chart), chart)
    pts = random_points(chart.all_names, k=8, seed=303)
    worst = 0.0
    for idx, res in enumerate(eq_h + eq_v):
        diff = ex.sub(ex.sub(ham[idx][idx], res),
                      ex.mul(2 * lam, gcoord[idx][idx]))
        worst = max(worst, max(abs(ex.evaluate(diff, p)) for p in pts))
    report(5, "Einstein fixed point of the flow",
           ok_flow and worst < 1e-12,
           f"normalization gap {worst:.2e}")


def test_criterion_6_flow_solution_class():
    """Integrable flow family with lam = 0, n[2] = 0 passes < 1e-7."""
    recipe = rf.FlowRecipe(signatures=(1, 1, 1, 1, 1), varpi=ex.exp(X2),
                           h5=V ** 2, h0fn=ex.ONE, varsigma40=ex.ONE,
                           n1fn=ex.mul(0.2, X2), n2fn=ex.ZERO, lam=0.0, v0=1.0)
    grid = Grid.build({n: (0.5, 1.5, 3)
                       for n in ("x1", "x2", "x3", "v", "y5")})
    fam = rf.build_flow_solution(recipe, grid, (0.0, 0.5, 1.0))
    reports = rf.flow_residuals(fam, grid, tol=1e-7)
    worst = max(r.max_abs for r in reports)
    report(6, "integrable flow solution class", all(r.passed for r in reports),
           f"max residual {worst:.2e} over 3 chi samples")


def test_criterion_7_parametric_transform():
    """Zero-angle identity to 1e-12; transformed flat seed stays Ricci-flat
    to 1e-6 at theta in {0.1, 0.7}."""
    xi_c = (0.7, 0.2, 0.0, 0.4)
    lam_g = sum(x * x for x in xi_c)
    chart = geo.chart_4d()
    g = geo.DMetric.diagonal([1, 1], [1, 1])
    seed = gen.GeneratedMetric(chart, g, geo.NConnection.zero(chart))
    xi = gr.KillingData.build(list(xi_c))
    c = (lam_g ** 2 - 1.0) / lam_g
    pot = gr.GerochPotentials.build(0.0, [0] * 4, [0] * 4,
                                    [c * x for x in xi_c])
    grid = Grid.build({n: (0.5, 1.5, 3) for n in ("x2", "x3", "v", "y5")})
    checks = gr.geroch_residuals(seed, xi, pot, grid, tol=1e-10)
    assert all(r.passed for r in checks)

    out0 = gr.apply_geroch(seed, xi, pot, 0.0, checks=checks, grid=grid)
    ga, gb = seed.coordinate_components(), out0.coordinate_components()
    pts = random_points(chart.all_names, k=6, seed=404)
    identity_gap = max(abs(ex.evaluate(ex.sub(ga[a][b], gb[a][b]), p))
                       for a in range(4) for b in range(4) for p in pts)

    worst_ric = 0.0
    for theta in (0.1, 0.7):
        out = gr.apply_geroch(seed, xi, pot, theta, checks=checks, grid=grid)
        ric = geo.coordinate_lc_ricci(out.metric, out.nconn, out.chart)
        cols = grid.arrays()
        comps = [ric[a][b] for a in range(4) for b in range(4)]
        vals = [np.broadcast_to(np.asarray(v), (grid.size,))
                for v in ex.evaluate_many(comps, cols)]
        worst_ric = max(worst_ric, float(max(np.max(np.abs(v)) for v in vals)))
    report(7, "parametric transform identity and preservation",
           identity_gap < 1e-12 and worst_ric < 1e-6,
           f"identity gap {identity_gap:.2e}, transformed Ricci {worst_ric:.2e}")


def test_criterion_8_symbolic_core():
    """Derivatives vs central differences over 200 random expressions
    (relative 1e-6), the reference quadrature, and simplify fidelity."""
    gen_x = RandomExprs(names=("v", "x2"), seed=808)
    checked = 0
    worst_fd = 0.0
    while checked < 200:
        e = gen_x.build(3)
        p = gen_x.point()
        try:
            sym = ex.evaluate(ex.diff(e, "v"), p)
            fd = central_fd(e, "v", p)
        except ex.EvalError:
            continue
        if not (math.isfinite(sym) and math.isfinite(fd)) or abs(fd) > 1e6:
            continue
        worst_fd = max(worst_fd, abs(sym - fd) / (1.0 + abs(fd)))
        checked += 1

    quad = integrate_v(V ** 2, {}, 0.0, 1.0)
    quad_ok = abs(quad - 1.0 / 3.0) <= 1e-10

    worst_simp = 0.0
    for e in gen_x.sample(40, depth=4):
        s = ex.simplify(e)
        for _ in range(3):
            p = gen_x.point()
            a, b = ex.evaluate(e, p), ex.evaluate(s, p)
            worst_simp = max(worst_simp, abs(a - b) / (1.0 + abs(a)))
    report(8, "symbolic core fidelity",
           worst_fd < 1e-6 and quad_ok and worst_simp < 1e-12,
           f"fd {worst_fd:.2e}, quadrature err {abs(quad - 1/3):.1e}, "
           f"simplify {worst_simp:.2e}")


def test_criterion_9_deterministic_outputs(tmp_path):
    """Two verify runs with identical config and seed emit byte-identical
    CSV reports."""
    recipe_doc = {
        "family": "gensol1_5d", "signatures": [1, 1, 1, 1, 1],
        "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v", "f0": "0",
                      "h0": "1", "varsigma0": "1",
                      "n2_1": "1", "n2_2": "1", "n2_3": "1"},
        "source": {"upsilon2": "0", "upsilon4": "0"}, "v0": 1.0,
        "grid": {n: {"min": 0.5, "max": 1.5, "count": 3}
                 for n in ("x1", "x2", "x3", "v")},
    }
    rpath = tmp_path / "recipe.json"
    rpath.write_text(json.dumps(recipe_doc))
    mpath = tmp_path / "metric.json"
    assert cli.main(["generate", "--config", str(rpath),
                     "--out", str(mpath)]) == 0
    vdoc = {"metric": str(mpath), "tolerance": 1e-8, "seed": 42,
            "grid": {**recipe_doc["grid"],
                     "y5": {"min": 0.5, "max": 1.5, "count": 2}}}
    vpath = tmp_path / "verify.json"
    vpath.write_text(json.dumps(vdoc))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main(["verify", "--config", str(vpath),
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    report(9, "deterministic verification outputs", outs[0] == outs[1],
           f"{len(outs[0])} bytes compared")
