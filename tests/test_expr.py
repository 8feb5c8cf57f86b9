"""Expression core: parsing, differentiation, evaluation, simplification."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nhgeo import expr as ex

from conftest import RandomExprs, central_fd, expr_children

V = ex.var("v")
X2 = ex.var("x2")
X3 = ex.var("x3")


class TestParse:
    def test_sum_of_power_and_one(self):
        e = ex.parse("v^2 + 1", ["v"])
        assert isinstance(e, ex.Sum)
        assert ex.evaluate(e, {"v": 3.0}) == 10.0

    def test_product_of_functions(self):
        e = ex.parse("sin(x2)*exp(x3)", ["x2", "x3"])
        assert isinstance(e, ex.Product)
        p = {"x2": 0.3, "x3": 1.1}
        assert ex.evaluate(e, p) == pytest.approx(math.sin(0.3) * math.exp(1.1),
                                                  rel=1e-15)

    def test_truncated_input_reports_position(self):
        with pytest.raises(ex.ExprSyntaxError) as err:
            ex.parse("x2 +", ["x2"])
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(ex.UnknownVariableError):
            ex.parse("x2 + y", ["x2"])

    def test_unknown_function(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("tan(x2)", ["x2"])

    def test_empty_source(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("  ", ["x2"])

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than *
        assert ex.evaluate(ex.parse("-v^2", ["v"]), {"v": 3.0}) == -9.0
        assert ex.evaluate(ex.parse("2 - 3*v", ["v"]), {"v": 2.0}) == -4.0
        assert ex.evaluate(ex.parse("2^2", []), {}) == 4.0

    def test_rational_exponents(self):
        assert ex.evaluate(ex.parse("v^(1/2)", ["v"]), {"v": 4.0}) == 2.0
        assert ex.evaluate(ex.parse("v^-1", ["v"]), {"v": 4.0}) == 0.25
        assert ex.evaluate(ex.parse("v^(-3/2)", ["v"]), {"v": 4.0}) == 0.125

    def test_exponent_slash_is_not_division_inside_parens_only(self):
        # x^2/y must parse as (x^2)/y
        e = ex.parse("v^2/x2", ["v", "x2"])
        assert ex.evaluate(e, {"v": 3.0, "x2": 2.0}) == 4.5

    def test_nonrational_exponent_rejected(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("v^x2", ["v", "x2"])

    def test_scientific_notation(self):
        assert ex.evaluate(ex.parse("1e-3 + v", ["v"]), {"v": 0.0}) == 1e-3

    def test_intv_syntax(self):
        e = ex.parse("intv(v^2, 0)", ["v"])
        assert isinstance(e, ex.IntegralV)
        assert ex.evaluate(e, {"v": 1.0}) == pytest.approx(1.0 / 3.0, abs=1e-10)


class TestDiff:
    def test_power_rule(self):
        assert ex.same_tree(ex.diff(V ** 2, "v"), ex.parse("2*v", ["v"]))

    def test_sin(self):
        assert ex.same_tree(ex.diff(ex.sin(X2), "x2"), ex.cos(X2))

    def test_chain_rule_exp(self):
        d = ex.diff(ex.exp(V ** 2), "v")
        for v in (0.3, 1.7):
            assert ex.evaluate(d, {"v": v}) == pytest.approx(
                2 * v * math.exp(v ** 2), rel=1e-15)

    def test_quotient_rule(self):
        d = ex.diff(ex.div(ex.sin(V), V), "v")
        v = 1.3
        expected = (v * math.cos(v) - math.sin(v)) / v ** 2
        assert ex.evaluate(d, {"v": v}) == pytest.approx(expected, rel=1e-14)

    def test_higher_derivatives(self):
        d3 = ex.diff(ex.diff(ex.diff(ex.sin(V), "v"), "v"), "v")
        assert ex.evaluate(d3, {"v": 0.7}) == pytest.approx(-math.cos(0.7),
                                                            rel=1e-14)

    def test_abs_differentiates_to_sign(self):
        d = ex.diff(ex.abs_(V), "v")
        assert ex.evaluate(d, {"v": -2.0}) == -1.0
        assert ex.evaluate(d, {"v": 3.0}) == 1.0
        with pytest.raises(ex.DomainError):
            ex.evaluate(d, {"v": 0.0})

    def test_unrelated_variable(self):
        assert ex.same_tree(ex.diff(ex.sin(X2), "v"), ex.ZERO)

    def test_intv_fundamental_theorem(self):
        F = ex.intv(ex.mul(X2, V ** 2), 0.0)
        assert ex.same_tree(ex.diff(F, "v"), ex.mul(X2, V ** 2))
        dF = ex.diff(F, "x2")
        assert isinstance(dF, ex.IntegralV)
        # differentiation under the integral sign
        assert ex.evaluate(dF, {"x2": 2.0, "v": 1.5}) == pytest.approx(
            1.5 ** 3 / 3.0, abs=1e-10)


class TestIntegralOnArrays:
    def test_x_dependent_integrand_matches_scalar_points(self):
        # nested too: the inner integral's integrand depends on x2
        F = ex.add(ex.intv(ex.mul(ex.add(1, X3), ex.exp(ex.mul(X2, V))), 1.0),
                   ex.intv(ex.mul(V, ex.intv(ex.mul(X2, V), 0.5)), 1.0))
        x2, x3, v = np.meshgrid([0.5, 1.0, 1.5], [0.7, 1.3], [0.5, 1.0, 1.5],
                                indexing="ij")
        got = ex.evaluate(F, {"x2": x2, "x3": x3, "v": v})
        want = [ex.evaluate(F, {"x2": float(a), "x3": float(b), "v": float(c)})
                for a, b, c in zip(x2.ravel(), x3.ravel(), v.ravel())]
        assert got.shape == x2.shape
        assert got.ravel().tolist() == want

    def test_scalar_v_with_array_x(self):
        F = ex.intv(ex.mul(X2, V), 0.0)
        got = ex.evaluate(F, {"x2": np.array([1.0, 2.0]), "v": 1.0})
        assert got.tolist() == [ex.evaluate(F, {"x2": 1.0, "v": 1.0}),
                                ex.evaluate(F, {"x2": 2.0, "v": 1.0})]

    def test_v_only_integrand_unchanged(self):
        F = ex.intv(ex.exp(V), 0.0)
        v = np.array([0.5, 1.0, 0.5])
        got = ex.evaluate(F, {"v": v, "x2": np.array([1.0, 2.0, 3.0])})
        assert got.tolist() == [ex.evaluate(F, {"v": float(u)}) for u in v]


class TestEvaluate:
    def test_simple(self):
        assert ex.evaluate(ex.mul(2, V), {"v": 3.0}) == 6.0

    def test_division_by_zero(self):
        with pytest.raises(ex.DivisionByZeroError):
            ex.evaluate(ex.div(1, V), {"v": 0.0})

    def test_log_domain(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.ln(V), {"v": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(ex.sqrt(V), {"v": -1.0})

    def test_unbound_variable(self):
        with pytest.raises(ex.UnboundVariableError):
            ex.evaluate(ex.add(V, X2), {"v": 1.0})

    def test_extra_bindings_ignored(self):
        assert ex.evaluate(V, {"v": 2.0, "zz": 9.0}) == 2.0

    def test_array_evaluation_matches_scalar(self):
        e = ex.parse("sin(v)*x2 + v^2/(x2 + 2)", ["v", "x2"])
        vs = np.linspace(0.2, 1.4, 7)
        arr = ex.evaluate(e, {"v": vs, "x2": 0.8})
        for v, got in zip(vs, arr):
            assert got == ex.evaluate(e, {"v": float(v), "x2": 0.8})

    def test_array_domain_error(self):
        with pytest.raises(ex.DivisionByZeroError):
            ex.evaluate(ex.div(1, V), {"v": np.array([1.0, 0.0])})

    def test_bit_identical_repeat(self):
        e = RandomExprs(seed=3).build(4)
        p = {"v": 0.7371, "x2": 1.552}
        assert ex.evaluate(e, p) == ex.evaluate(e, p)


def generic_5d_ricci():
    """Canonical Ricci table of a generic 5D metric: full g and h blocks and
    all six N entries nonzero, with x and v in every block."""
    from nhgeo import geometry as geo

    X1 = ex.var("x1")
    g = [[ex.add(2, ex.mul(0.1, X2 ** 2)), ex.mul(0.1, X3, V), ex.mul(0.05, X1)],
         [None, ex.mul(ex.exp(ex.mul(0.2, X2)), ex.add(2, ex.mul(0.1, V))),
          ex.mul(0.1, X1, X2)],
         [None, None, ex.add(2, ex.mul(0.2, X3), ex.mul(0.1, V ** 2))]]
    h = [[ex.add(2, ex.mul(0.5, V ** 2), ex.mul(0.2, X2)), ex.mul(0.1, X3, V)],
         [None, ex.add(3, ex.mul(0.3, V), ex.mul(0.1, X1, V))]]
    for block in (g, h):
        for i, row in enumerate(block):
            for j in range(i):
                row[j] = block[j][i]
    N = [[ex.mul(0.1, V, X2), ex.mul(0.2, X3)],
         [ex.add(ex.mul(0.2, V), ex.mul(0.1, X1)), ex.mul(0.3, V ** 2, X3)],
         [ex.mul(0.1, V ** 2), ex.add(ex.mul(0.05, V ** 3), ex.mul(0.1, X2))]]
    chart = geo.chart_5d()
    metric = geo.DMetric.build(g, h)
    nconn = geo.NConnection.build(N)
    conn = geo.canonical_dconnection(metric, nconn, chart)
    ricci = geo.curvature_ricci(conn, metric, nconn, chart)
    return [c for row in ricci.ricci for c in row] + [ricci.scalar]


def test_import_keeps_recursion_limit():
    """Importing the package leaves the interpreter's recursion limit alone,
    and a generic 5D Ricci table builds, differentiates, evaluates and
    prints under the default limit."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "limit = sys.getrecursionlimit()\n"
        "import nhgeo.cli\n"
        "assert sys.getrecursionlimit() == limit, sys.getrecursionlimit()\n"
        "from test_expr import generic_5d_ricci\n"
        "from nhgeo import expr as ex\n"
        "comps = generic_5d_ricci()\n"
        "p = {'x1': 1.1, 'x2': 0.9, 'x3': 1.2, 'v': 0.8, 'y5': 1.0}\n"
        "vals = ex.evaluate_many([ex.diff(c, 'v') for c in comps] + comps, p)\n"
        "assert all(v == v for v in vals)\n"
        "assert sum(len(ex.to_str(c)) for c in comps) > 0\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestProgram:
    """expr.Program: one straight-line pass over the union DAG of several
    expressions, with each value freed after its last use."""

    def test_generic_ricci_bitwise_equal_to_per_component_evaluate(self):
        comps = generic_5d_ricci()
        axes = np.meshgrid(*[np.linspace(0.6, 1.4, 3)] * 5, indexing="ij")
        env = {n: a.reshape(-1) for n, a in zip(("x1", "x2", "x3", "v", "y5"), axes)}
        prog = ex.Program(comps)
        got = prog.run(env, np.empty((len(comps), env["v"].size)))
        for row, e in zip(got, comps):
            want = np.broadcast_to(ex.evaluate(e, env), row.shape)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
        # the components share most of their nodes
        assert len(prog.steps) < sum(len(ex.Program([e]).steps) for e in comps) / 3

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_first_failure_is_the_one_per_component_evaluation_raises(self, order):
        shared = ex.sub(V, 1)
        comps = [ex.add(ex.sqrt(X2), ex.div(1, shared)),    # division by zero
                 ex.mul(ex.sin(shared), ex.ln(ex.sub(X2, 2)))]  # ln domain
        comps = [comps[k] for k in order]
        env = {"v": np.array([0.5, 1.0, 1.5]), "x2": np.array([1.0, 1.0, 1.0])}
        with pytest.raises(ex.EvalError) as want:
            for e in comps:
                ex.evaluate(e, env)
        with pytest.raises(ex.EvalError) as got:
            ex.Program(comps).run(env, np.empty((2, 3)))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_last_use_table_frees_every_slot_once_after_its_consumers(self):
        comps = generic_5d_ricci()[:6]
        comps.append(comps[0])                  # a root listed twice
        prog = ex.Program(comps)
        freed_at = {}
        for i, keys in enumerate(prog.frees):
            for key in keys:
                assert key not in freed_at
                freed_at[key] = i
        assert set(freed_at) == {id(s) for s in prog.steps}
        assert len(freed_at) == len(prog.steps)
        for i, node in enumerate(prog.steps):
            assert freed_at[id(node)] >= i
            for c in expr_children(node) if not isinstance(node, ex.IntegralV) else ():
                assert freed_at[id(c)] >= i
        assert [k for rows in prog.rows for k in rows] != []
        assert sorted(k for rows in prog.rows for k in rows) == list(range(len(comps)))

    def test_constant_and_variable_roots_broadcast(self):
        out = ex.Program([ex.const(2.5), V]).run({"v": np.array([1.0, 2.0])},
                                                 np.empty((2, 2)))
        assert out.tolist() == [[2.5, 2.5], [1.0, 2.0]]

    def test_integral_is_one_step(self):
        F = ex.intv(ex.mul(X2, V), 1.0)
        prog = ex.Program([ex.add(F, V), ex.mul(F, X2)])
        assert sum(isinstance(s, ex.IntegralV) for s in prog.steps) == 1
        assert not any(s is F.integrand for s in prog.steps)


class TestSimplify:
    def test_zero_product_absorbed(self):
        e = ex.Sum((ex.Product((ex.Const(0.0), ex.sin(X2))), V))
        assert ex.same_tree(ex.simplify(e), V)

    def test_unit_power_and_factor(self):
        e = ex.Product((ex.Pow(V, Fraction(1)), ex.Const(1.0)))
        assert ex.same_tree(ex.simplify(e), V)

    def test_constant_fold(self):
        assert ex.same_tree(ex.simplify(ex.Sum((ex.Const(2.0), ex.Const(3.0)))),
                            ex.const(5))

    def test_idempotent_on_samples(self):
        gen = RandomExprs(seed=11)
        for e in gen.sample(40, depth=4):
            s1 = ex.simplify(e)
            s2 = ex.simplify(s1)
            assert ex.same_tree(s1, s2)

    def test_preserves_evaluation(self):
        gen = RandomExprs(seed=13)
        for e in gen.sample(25, depth=4):
            s = ex.simplify(e)
            for _ in range(4):
                p = gen.point()
                a, b = ex.evaluate(e, p), ex.evaluate(s, p)
                assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


class TestRoundTrip:
    def test_samples_reparse_identically(self):
        gen = RandomExprs(seed=17)
        for e in gen.sample(60, depth=4):
            text = ex.to_str(e)
            again = ex.parse(text, gen.names)
            assert ex.same_tree(e, again), text

    def test_intv_round_trip(self):
        F = ex.mul(2, ex.intv(ex.div(ex.pow_(V, 2), ex.add(X2, 1)), 1.0))
        again = ex.parse(ex.to_str(F), ["v", "x2"])
        assert ex.same_tree(F, again)

    def test_negative_constants_and_nesting(self):
        for text in ("-3*v", "v*(-3 + v)", "(v + 1)/(v - 2)", "-(v + 1)^2",
                     "2 - 3*v - 4", "v^(-1)/x2", "sign(v)*abs(v)"):
            e = ex.parse(text, ["v", "x2"])
            assert ex.same_tree(e, ex.parse(ex.to_str(e), ["v", "x2"])), text

    def test_integer_power_over_integer(self):
        # "v^2/3" reads as v^(2/3), so the printer brackets the numerator
        for e in (ex.div(ex.pow_(V, 2), 3), ex.div(ex.mul(X2, ex.pow_(V, 2)), 0)):
            text = ex.to_str(e)
            assert ex.same_tree(e, ex.parse(text, ["v", "x2"])), text
        assert ex.to_str(ex.div(ex.pow_(V, 2), 3)) == "(v^2)/3"
        assert ex.to_str(ex.div(ex.pow_(V, 2), 0.5)) == "v^2/0.5"

    @pytest.mark.parametrize("src", ["1e200*1e200", "sin(1e200*1e200)", "1e400",
                                     "v*1e200*1e200", "v + 1e308 + 1e308",
                                     "1e300/1e-300", "intv(v, 1e400)"])
    def test_non_finite_constant_is_a_syntax_error(self, src):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(src, ["v"])

    def test_non_finite_constants_print_and_do_not_fold(self):
        assert ex.to_str(ex.Const(math.inf)) == "inf"
        assert isinstance(ex.sin(ex.Const(math.inf)), ex.Func)

    def test_zero_exponent_denominator_is_a_syntax_error(self):
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse("v^2/0", ["v"])


@st.composite
def safe_exprs(draw):
    seed = draw(st.integers(0, 10 ** 6))
    depth = draw(st.integers(1, 4))
    return RandomExprs(seed=seed).build(depth)


class TestDerivativeProperty:
    @settings(max_examples=60, deadline=None)
    @given(safe_exprs(), st.floats(0.1, 2.0), st.floats(0.1, 2.0))
    # the exact derivative is -5.3e13 here: the function oscillates faster
    # than the difference step, and fd(h) = 2.9e4, fd(h/2) = 1.8e4
    @example(ex.parse("cos(exp(0.3*(v*v + 0.5)^3))", ("v", "x2")), 2.0, 1.0)
    def test_derivative_matches_central_difference(self, e, v, x2):
        p = {"v": v, "x2": x2}
        d = ex.diff(e, "v")
        try:
            sym = ex.evaluate(d, p)
            fd = central_fd(e, "v", p)
            fd_half = central_fd(e, "v", p, h=5e-6)
        except ex.EvalError:
            return
        if not (math.isfinite(sym) and math.isfinite(fd)) or abs(fd) > 1e6:
            return
        if abs(fd - fd_half) / (1.0 + abs(fd)) >= 1e-6:
            return  # the difference quotient does not resolve the derivative
        assert abs(sym - fd) / (1.0 + abs(fd)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(safe_exprs())
    def test_print_parse_structural_identity(self, e):
        assert ex.same_tree(e, ex.parse(ex.to_str(e), ("v", "x2")))


FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
BIG = 1e100


def _consts_bounded(e):
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Const) and not abs(node.value) <= BIG:
            return False
        stack.extend(expr_children(node))
    return True


def _bounded(make):
    """Apply a smart constructor to drawn children. When constant folding
    leaves a constant beyond BIG, keep the first child instead, so that no
    later fold can overflow to inf or nan (nan never compares equal)."""
    def build(args):
        out = make(*args)
        return out if _consts_bounded(out) else args[0]
    return build


def _extend(children):
    binary = st.sampled_from((ex.add, ex.sub, ex.mul, ex.div))
    unary = st.sampled_from((ex.neg, ex.sin, ex.cos, ex.exp, ex.ln, ex.sqrt,
                             ex.abs_, ex.sign))
    exponents = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.one_of(
        st.tuples(children, children, binary).map(_bounded(lambda a, b, f: f(a, b))),
        st.tuples(children, unary).map(_bounded(lambda a, f: f(a))),
        st.tuples(children, exponents).map(_bounded(ex.pow_)),
        st.tuples(children, FINITE).map(_bounded(ex.intv)),
    )


constructor_exprs = st.recursive(
    st.one_of(FINITE.map(ex.const), st.sampled_from(("v", "x2")).map(ex.var)),
    _extend, max_leaves=16)


class TestSimplifyFixedPoint:
    """The smart constructors already simplify, so simplify() returns a tree
    built by them (or by the parser, which uses them) unchanged. That is why
    no builder in the package calls it."""

    @settings(max_examples=300, deadline=None)
    @given(constructor_exprs)
    def test_constructor_and_parser_trees_are_fixed_points(self, e):
        for tree in (e, ex.parse(ex.to_str(e), ("v", "x2"))):
            s = ex.simplify(tree)
            assert ex.same_tree(s, tree)
            assert ex.to_str(s) == ex.to_str(tree)
