"""Command-line front end: JSON recipes in, metrics and CSV reports out.

Subcommands: generate, verify, flow, geroch, expr check.
Exit codes: 0 all checks pass, 1 residual failure, 2 configuration error,
3 degenerate recipe, 4 evaluation error, 5 unverified transform potentials,
6 internal error.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import expr as ex
from . import generators as gen
from . import geroch as gr
from . import ricci_flow as rf
from . import serialize as ser
from .geometry import canonical_dconnection, check_lc_compatibility, curvature_ricci
from .numerics import (Points, ResidualReport, evaluate_on_grid, grid_report,
                       reports_to_json)

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_EVAL = 4
EXIT_POTENTIALS = 5
EXIT_INTERNAL = 6

CSV_COLUMNS = ("x1", "x2", "x3", "v", "y5", "chi")


def _write_csv(path: str, reports) -> None:
    """Header, then the row blocks of each report."""
    with ser.open_output(path) as fh:
        csv.writer(fh).writerow(["equation", *CSV_COLUMNS, "residual"])
        for rep in reports:
            fh.writelines(rep.csv_rows(CSV_COLUMNS))


def _summarize(reports, out=None) -> bool:
    ok = True
    for rep in reports:
        print(rep.summary_line(), file=out or sys.stdout)
        ok = ok and rep.passed
    return ok


def _locate_eval_error(entries, err) -> str:
    """The first (name, expression) entry that fails at the grid point the
    error carries, else the program step that failed there."""
    if err.point is None:
        return str(err)
    for name, e in entries:
        try:
            ex.evaluate(e, err.point)
        except ex.EvalError:
            return f"{err} in {name} = {ex.to_str(e)} at grid point {err.point}"
    return f"{err} in {ex.to_str(err.node)} at grid point {err.point}"


def _metric_entries(gm) -> list:
    return [(f"{name}[{i}][{j}]", e)
            for name, block in (("g", gm.metric.g), ("h", gm.metric.h),
                                ("N", gm.nconn.coeff))
            for i, row in enumerate(block) for j, e in enumerate(row)]


def _eval_error(message) -> int:
    print(f"evaluation error: {message}", file=sys.stderr)
    return EXIT_EVAL


# ---------------------------------------------------------------------------
# verification core (shared by verify/generate pipelines)
# ---------------------------------------------------------------------------

def _ricci_layout_reports(gm, ric, source, grid, tol, params=None):
    """Engine Ricci residuals against the diagonal source layout (in Ricci
    form: R^2_2 = R^3_3 = -Y4, S^4_4 = S^5_5 = -Y2, everything else zero)."""
    n, m = gm.chart.n, gm.chart.m
    u2, u4 = source.upsilon2, source.upsilon4
    hat = range(n - 2, n)  # the two curved h-directions (x2, x3)
    groups = [("R22+Y4", [ex.add(ric.mixed_h(gm.metric, i, i), u4) for i in hat])]
    if n == 3:
        groups.append(("R11", [ric.mixed_h(gm.metric, 0, 0)]))
    rest = [ric.hh(i, j) for i in range(n) for j in range(n) if i != j]
    rest += [ric.vv(a, b) for a in range(m) for b in range(m) if a != b]
    rest += [ric.ha(i, a) for i in range(n) for a in range(m)]
    groups += [("S44+Y2", [ex.add(ric.mixed_v(gm.metric, a, a), u2)
                           for a in range(m)]),
               ("R4i", [ric.ah(0, i) for i in range(n)]),
               ("R5i", [ric.ah(1, i) for i in range(n)]),
               ("ricci-rest", rest)]
    return [grid_report(label, exprs, grid, tol, extra=params)
            for label, exprs in groups]


def _oracle_reports(gm, ric, grid, tol, rng, points):
    """Engine mixed components against the closed-form reductions at random
    points inside the grid box (relative agreement), all on one Points."""
    chart = gm.chart
    names = chart.coord_names
    if chart.y_names != ("v", "y5") or names[-4:-2] != ("x2", "x3"):
        return []
    n = chart.n
    lows = {a[0]: a[1] for a in grid.axes}
    highs = {a[0]: a[2] for a in grid.axes}
    cols = {nm: rng.uniform(lows.get(nm, 1.0), highs.get(nm, 1.0), size=points)
            for nm in names}
    for p in chart.params:
        cols[p] = rng.uniform(0.0, 1.0, size=points)
    pts = Points(cols)

    g22 = gm.metric.g[n - 2][n - 2]
    g33 = gm.metric.g[n - 1][n - 1]
    h4, h5 = gm.metric.h[0][0], gm.metric.h[1][1]

    pairs = [
        ("oracle-R22", ric.mixed_h(gm.metric, n - 2, n - 2), gen.closed_r22(g22, g33)),
        ("oracle-S44", ric.mixed_v(gm.metric, 0, 0), gen.closed_s44(h4, h5)),
    ]
    for i, xi in ((n - 2, "x2"), (n - 1, "x3")):
        pairs.append((f"oracle-R4{xi[1]}", ric.ah(0, i),
                      gen.closed_r4i(h4, h5, gm.nconn.entry(i, 0), xi)))
        pairs.append((f"oracle-R5{xi[1]}", ric.ah(1, i),
                      gen.closed_r5i(h4, h5, gm.nconn.entry(i, 1))))
    vals = evaluate_on_grid([e for _, engine, closed in pairs
                             for e in (engine, closed)], cols)
    out = []
    for (label, _, _), e, c in zip(pairs, vals[0::2], vals[1::2]):
        rel = np.abs(e - c) / (1.0 + np.abs(c))
        out.append(ResidualReport.from_grid(label, pts, rel, tol))
    return out


def verification_reports(gm, source, grid, tol, seed=0,
                         oracle_points=50, oracle_tol=1e-9,
                         checks=("ricci", "oracles"), params=None):
    """Reports for the requested check groups: 'ricci' (engine residuals vs
    the diagonal source layout), 'oracles' (closed-form agreement at random
    points) and 'lc' (Levi-Civita compatibility; opt-in because generic
    generated metrics are nonholonomic solutions outside that regime).

    ``params`` binds parameters of the metric's chart that are not grid
    axes to values for the grid-based groups; the oracle group samples them."""
    reports = []
    conn = canonical_dconnection(gm.metric, gm.nconn, gm.chart)
    if "ricci" in checks or "oracles" in checks:
        ric = curvature_ricci(conn, gm.metric, gm.nconn, gm.chart)
    if "ricci" in checks:
        reports += _ricci_layout_reports(gm, ric, source, grid, tol, params)
    if "oracles" in checks:
        rng = np.random.default_rng(seed)
        reports += _oracle_reports(gm, ric, grid, oracle_tol, rng, oracle_points)
    if "lc" in checks:
        reports += check_lc_compatibility(conn, gm.metric, gm.nconn, gm.chart,
                                          grid, tol, extra=params)
    return reports


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    family, recipe, src, entries, grid, tol, params = ser.generate_config(
        ser.load_json(args.config), tolerance=args.tol)
    reports, gm = [], None
    try:
        if family == "gensol1_5d":
            gm = gen.generate_5d(recipe, src, grid=grid, extra=params or None)
        elif family == "gensol1_4d":
            gm = gen.generate_4d(recipe, src, grid=grid, extra=params or None)
        elif family == "vacuum_lc":
            gm, reports = gen.generate_vacuum_lc(recipe, grid, tol,
                                                 extra=params or None)
        else:
            gm, reports = gen.generate_sourced_lc(recipe, grid, tol,
                                                  extra=params or None)
        # the written metric must evaluate on the recipe's own grid. Left to
        # verify: entries with parameters that have no value here, and
        # entries holding running integrals, each of which costs an adaptive
        # quadrature per distinct (v, x...) grid tuple
        bound = {*grid.names, *params}
        grid.evaluate([e for _, e in _metric_entries(gm)
                       if e.free_vars <= bound and not ex.has_integral(e)],
                      extra=params)
    except ex.EvalError as err:
        entries = [*entries, *(_metric_entries(gm) if gm else [])]
        return _eval_error(_locate_eval_error(entries, err))

    payload = ser.metric_to_dict(gm)
    if reports:
        payload["family_reports"] = [r.summary_dict() for r in reports]
    out = args.out or "metric.json"
    ser.dump_json(out, payload)
    _summarize(reports)
    print(f"wrote {out}")
    if reports and not all(r.passed for r in reports):
        return EXIT_RESIDUAL
    return EXIT_PASS


def cmd_verify(args) -> int:
    conf = ser.verify_config(ser.load_json(args.config), tolerance=args.tol,
                             seed=args.seed)
    gm = conf.metric
    try:
        reports = verification_reports(
            gm, conf.source, conf.grid, conf.tol, seed=conf.seed,
            oracle_points=conf.oracle_points, oracle_tol=conf.oracle_tol,
            checks=conf.checks, params=conf.params)
    except ex.EvalError as err:
        return _eval_error(_locate_eval_error(_metric_entries(gm), err))
    out = args.out or "verify.csv"
    _write_csv(out, reports)
    if conf.summary:
        with ser.open_output(conf.summary) as fh:
            fh.write(reports_to_json(reports))
            fh.write("\n")
    ok = _summarize(reports)
    print(f"wrote {out}")
    return EXIT_PASS if ok else EXIT_RESIDUAL


def _per_chi_sections(reports, chis):
    for rep in reports:
        if "chi" not in rep.points.names:
            continue
        chi = rep.points.arrays()["chi"]
        for c in chis:
            mask = chi == c
            if mask.any():
                mx = float(np.max(np.abs(rep.residuals[mask])))
                print(f"  chi={c:g}: EQ {rep.equation} max={mx:.6e} "
                      f"pass={mx <= rep.tolerance}")


def cmd_flow(args) -> int:
    family, recipe, entries, grid, chis, tol = ser.flow_config(
        ser.load_json(args.config), tolerance=args.tol)
    try:
        if family == "flow_solrf1":
            fam = rf.build_flow_solution(recipe, grid, chis, tol=max(tol, 1e-8))
            reports = rf.flow_residuals(fam, grid, tol)
        else:
            fam, lc_reports = rf.build_lc_flow(recipe, grid, chis, tol)
            reports = lc_reports + rf.flow_residuals(fam, grid, tol)
    except ex.EvalError as err:
        return _eval_error(_locate_eval_error(entries, err))

    out = args.out or "flow.csv"
    _write_csv(out, reports)
    ok = _summarize(reports)
    _per_chi_sections(reports, chis)
    print(f"wrote {out}")
    return EXIT_PASS if ok else EXIT_RESIDUAL


def cmd_geroch(args) -> int:
    gm, grid, tol, xi, steps = ser.transform_config(ser.load_json(args.config),
                                                    tolerance=args.tol)
    reports, setup = [], None
    try:
        if xi is not None:  # else every step is a deformation
            setup = gr.coordinate_setup(gm)
            reports.append(gr.killing_residual(gm, xi, grid, tol, setup=setup))
        current, checks = gr.apply_chain(gm, steps, grid, tol, setup=setup)
    except ex.EvalError as err:
        entries = _metric_entries(gm)
        if xi is not None:
            entries += [(f"xi[{k}]", c) for k, c in enumerate(xi.xi)]
        return _eval_error(_locate_eval_error(entries, err))
    reports += checks

    out = args.out or "transformed.json"
    ser.dump_json(out, ser.metric_to_dict(current))
    if args.report:
        _write_csv(args.report, reports)
    ok = _summarize(reports)
    print(f"wrote {out}")
    return EXIT_PASS if ok else EXIT_RESIDUAL


def cmd_expr(args) -> int:
    if args.action != "check":
        raise ser.ConfigError(f"unknown expr action {args.action!r}")
    allowed = tuple(v for v in (args.vars or "").split(",") if v)
    e = ex.parse(args.expression, allowed)
    point = ser.point_from_text(args.at) if args.at else None
    print(f"ok: {ex.to_str(e)}")
    print(f"free variables: {', '.join(sorted(e.free_vars)) or '(none)'}")
    if point is not None:
        print(f"value: {ex.evaluate(e, point)!r}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nhgeo",
        description="generate and verify off-diagonal exact solutions of the "
                    "Einstein and Ricci-flow equations")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--out", help="output path")
        sp.add_argument("--tol", type=float, help="tolerance override")
        sp.add_argument("--jobs", type=int,
                        help="accepted for compatibility; has no effect")
        sp.add_argument("--seed", type=int, help="random seed for sampled checks")

    common(sub.add_parser("generate", help="build a metric from a recipe"))
    common(sub.add_parser("verify", help="residual-check a metric document"))
    common(sub.add_parser("flow", help="build/check an evolution family"))
    sp = sub.add_parser("geroch", help="parametric transforms and deformations")
    common(sp)
    sp.add_argument("--report", help="also write the check reports as CSV")

    spx = sub.add_parser("expr", help="expression-language utilities")
    spx.add_argument("action", choices=["check"])
    spx.add_argument("expression")
    spx.add_argument("--vars", help="comma-separated variable names")
    spx.add_argument("--at", help="evaluate at bindings, e.g. 'v=1,x2=0.5'")
    return p


_HANDLERS = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "flow": cmd_flow,
    "geroch": cmd_geroch,
    "expr": cmd_expr,
}


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (ser.ConfigError, ex.ExprSyntaxError, ex.UnknownVariableError,
            gr.NonDiagonalBlocks) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except gen.DegenerateRecipe as err:
        print(f"degenerate recipe: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except gr.PotentialsNotVerified as err:
        print(f"unverified potentials: {err}", file=sys.stderr)
        return EXIT_POTENTIALS
    except ex.EvalError as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_EVAL
    except Exception as err:  # a bug, never a residual failure
        message = " ".join(str(err).splitlines())
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
