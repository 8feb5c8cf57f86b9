"""Quadrature, grids, residual reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhgeo import expr as ex
from nhgeo import numerics as nm

V = ex.var("v")


def ln2_series(terms=60):
    """Independent oracle for ln 2: ln(1/(1-x)) = sum x^k / k at x = 1/2."""
    return sum(0.5 ** k / k for k in range(1, terms + 1))


class TestAdaptiveSimpson:
    def test_monomial(self):
        q = nm.Quadrature(abs_tol=1e-12)
        got = nm.integrate_v(V ** 2, {}, 0.0, 1.0, q)
        assert abs(got - 1.0 / 3.0) <= 1e-10

    def test_zero_integrand(self):
        assert nm.integrate_v(ex.ZERO, {}, 0.0, 1.0) == 0.0

    def test_log_two(self):
        got = nm.integrate_v(ex.div(1, V), {}, 1.0, 2.0)
        assert abs(got - ln2_series()) < 1e-10

    def test_reversed_interval_flips_sign(self):
        a = nm.integrate_v(V ** 2, {}, 0.0, 1.0)
        b = nm.integrate_v(V ** 2, {}, 1.0, 0.0)
        assert a == -b

    def test_fixed_variables_bound(self):
        e = ex.mul(ex.var("x2"), V)
        got = nm.integrate_v(e, {"x2": 3.0}, 0.0, 2.0)
        assert got == pytest.approx(6.0, abs=1e-10)

    def test_max_depth_exceeded(self):
        q = nm.Quadrature(abs_tol=1e-15, max_depth=2)
        with pytest.raises(nm.MaxDepthExceeded):
            nm.integrate_v(ex.sin(ex.mul(40, V)), {}, 0.0, 1.0, q)

    def test_nonfinite_integrand_rejected(self):
        with pytest.raises(ex.EvalError):
            nm.integrate_v(ex.div(1, V), {}, 0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
           st.floats(0.0, 1.0), st.floats(1.0, 2.0))
    def test_additivity(self, c0, c1, c2, b, c):
        e = ex.add(c0, ex.mul(c1, V), ex.mul(c2, V ** 2), ex.sin(V))
        a = 0.0
        left = nm.integrate_v(e, {}, a, b)
        right = nm.integrate_v(e, {}, b, c)
        whole = nm.integrate_v(e, {}, a, c)
        assert abs(left + right - whole) <= 2.0 * nm.DEFAULT_QUADRATURE.abs_tol + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity(self, ca, cb):
        f = ex.sin(V)
        g = V ** 2
        combo = ex.add(ex.mul(ca, f), ex.mul(cb, g))
        lhs = nm.integrate_v(combo, {}, 0.0, 1.5)
        rhs = (ca * nm.integrate_v(f, {}, 0.0, 1.5)
               + cb * nm.integrate_v(g, {}, 0.0, 1.5))
        assert abs(lhs - rhs) <= 2.0 * nm.DEFAULT_QUADRATURE.abs_tol + 1e-12


class TestGrid:
    def test_count_lower_bound(self):
        with pytest.raises(ValueError):
            nm.Grid.build({"v": (0.0, 1.0, 1)})

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError):
            nm.Grid((("v", 0.0, 1.0, 2), ("v", 0.0, 1.0, 2)))

    def test_arrays_shape_and_order(self):
        g = nm.Grid.build({"a": (0.0, 1.0, 2), "b": (0.0, 2.0, 3)})
        cols = g.arrays()
        assert g.size == 6
        assert list(cols["a"]) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        assert list(cols["b"]) == [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]

    def test_arrays_built_once_read_only(self):
        g = nm.Grid.build({"a": (0.0, 1.0, 2), "b": (0.0, 2.0, 3)})
        cols = g.arrays()
        assert g.arrays() is cols
        for name in g.names:
            assert g.arrays()[name] is cols[name]
            assert not cols[name].flags.writeable
            with pytest.raises(ValueError):
                cols[name][0] = 5.0
        with pytest.raises(TypeError):
            cols["c"] = np.zeros(6)

    def test_sampled_columns_built_once(self):
        g = nm.Grid.build({"a": (0.0, 1.0, 2), "b": (0.0, 2.0, 3)})
        sg = g.sampled("chi", [0.0, 0.5])
        assert g.sampled("chi", (0.0, 0.5)) is sg
        assert g.sampled("chi", (-0.0, 0.5)) is not sg   # signed zeros differ
        cols = sg.arrays()
        assert sg.names == ("a", "b", "chi") and tuple(cols) == sg.names
        assert sg.size == 12 and sg.samples == (0.0, 0.5)
        assert list(cols["chi"]) == [0.0] * 6 + [0.5] * 6
        assert list(cols["b"]) == [0.0, 1.0, 2.0] * 4
        assert not any(c.flags.writeable for c in cols.values())

    def test_point_matches_the_columns(self):
        sg = nm.Grid.build({"a": (-0.0, 1.0, 2), "b": (0.0, 2.0, 3)}).sampled(
            "chi", [0.5, -0.0])
        cols = sg.arrays()
        for row in range(sg.size):
            point = sg.point(row)
            assert list(point) == ["a", "b", "chi"]
            assert all(np.array([point[n]]).tobytes() == cols[n][row:row + 1].tobytes()
                       for n in sg.names)

    def test_points_need_columns_of_one_length(self):
        for cols in ({}, {"v": np.zeros(2), "x2": np.zeros(3)}):
            with pytest.raises(ValueError):
                nm.Points(cols)
        pts = nm.Points({"v": np.array([0.5, -0.0]), "p": np.zeros(2)})
        assert pts.size == 2 and pts.names == ("v", "p")
        assert pts.point(1) == {"v": -0.0, "p": 0.0}
        values = np.array([1.0, 2.0])
        assert pts.expand(values, frozenset({"v"})) is values

    def test_excluded_point_names_bound_values_last(self):
        sg = nm.Grid.build({"v": (0.5, 1.5, 3)}).sampled("chi", [0.0, 1.0])
        locus = ex.sub(ex.mul(ex.var("chi"), ex.var("v")), ex.var("p"))
        with pytest.raises(nm.GridExclusionError) as err:
            sg.check_exclusions([locus], extra={"p": 1.5})
        assert err.value.point == {"v": 1.5, "chi": 1.0, "p": 1.5}
        assert list(err.value.point) == ["v", "chi", "p"]

    def test_exclusions(self):
        g = nm.Grid.build({"v": (-1.0, 1.0, 3)})  # contains v = 0
        with pytest.raises(nm.GridExclusionError):
            g.check_exclusions([ex.var("v")])
        g2 = nm.Grid.build({"v": (0.5, 1.0, 3)})
        g2.check_exclusions([ex.var("v")])  # fine


class TestResidualReport:
    def test_pass_iff_max_below_tolerance(self):
        cols = nm.Points({"v": np.array([0.0, 1.0, 2.0])})
        rep = nm.ResidualReport.from_grid("eq", cols,
                                          np.array([1e-12, -5e-11, 2e-13]), 1e-10)
        assert rep.passed and rep.max_abs == 5e-11
        rep2 = nm.ResidualReport.from_grid("eq", cols,
                                           np.array([1e-12, -5e-9, 0.0]), 1e-10)
        assert not rep2.passed

    def test_summary_and_csv(self):
        cols = nm.Points({"v": np.array([0.25, 0.5])})
        rep = nm.ResidualReport.from_grid("test-eq", cols,
                                          np.array([0.0, 1e-3]), 1e-6)
        assert rep.summary_line().startswith("EQ test-eq max=")
        assert rep.csv_rows(["x2", "v"]) == ["test-eq,,0.25,0.0\r\n"
                                             "test-eq,,0.5,0.001\r\n"]

    def test_worst_at_first_argmax(self):
        cols = nm.Points({"v": np.array([0.0, 1.0, 2.0, 3.0]),
                          "x2": np.array([5.0, 6.0, 7.0, 8.0])})
        rep = nm.ResidualReport.from_grid("eq", cols,
                                          np.array([1e-3, -4e-3, 4e-3, 0.0]), 1e-6)
        assert rep.worst_at == {"v": 1.0, "x2": 6.0}
        assert rep.summary_dict()["worst_at"] == {"v": 1.0, "x2": 6.0}
        empty = nm.ResidualReport.from_grid("eq", nm.Points({"v": np.array([])}),
                                            np.array([]), 1e-6)
        assert empty.summary_dict()["worst_at"] is None

    def test_chunked_evaluation_matches(self):
        g = nm.Grid.build({"v": (0.2, 1.4, 13), "x2": (0.5, 1.5, 3)})
        e = ex.parse("sin(v)*x2 + v^2", ["v", "x2"])
        cols = g.arrays()
        a = nm.evaluate_on_grid(e, cols, jobs=1)
        b = nm.evaluate_on_grid(e, cols, jobs=4)
        assert np.array_equal(a, b)


class TestGridReport:
    def test_max_abs_over_expressions(self):
        g = nm.Grid.build({"v": (0.5, 1.5, 3)})
        rep = nm.grid_report("eq", [ex.sub(V, 1), ex.ZERO, ex.mul(-0.5, V)],
                             g, 0.6)
        assert rep.points is g and rep.reads == {"v"}
        assert np.array_equal(rep.residuals, [0.5, 0.5, 0.75])
        assert not rep.passed

    def test_only_zero_expressions_give_zeros(self):
        g = nm.Grid.build({"v": (0.5, 1.5, 4)})
        rep = nm.grid_report("eq", [ex.ZERO, ex.ZERO], g, 1e-12)
        assert np.array_equal(rep.residuals, np.zeros(4)) and rep.passed
        assert nm.grid_report("eq", [], g, 1e-12).residuals.shape == (4,)

    def test_extra_binds_without_becoming_a_column(self):
        g = nm.Grid.build({"v": (0.5, 1.5, 3)})
        e = ex.mul(ex.var("theta1"), V)
        rep = nm.grid_report("eq", [e], g, 1.0, extra={"theta1": 2.0})
        assert rep.points.names == ("v",) and rep.reads == {"v"}
        assert np.array_equal(rep.residuals, [1.0, 2.0, 3.0])


class TestProgramOnGrid:
    def test_sequence_gives_one_row_per_expression(self):
        cols = nm.Grid.build({"v": (0.2, 1.4, 13), "x2": (0.5, 1.5, 3)}).arrays()
        exprs = [ex.parse("sin(v)*x2 + v^2", ["v", "x2"]), ex.const(3.0), V]
        rows = nm.evaluate_on_grid(exprs, cols)
        assert rows.shape == (3, 39)
        for row, e in zip(rows, exprs):
            assert np.array_equal(row, nm.evaluate_on_grid(e, cols))
        assert np.array_equal(rows, nm.evaluate_on_grid(exprs, cols, jobs=4))

    def test_shared_integral_runs_once_per_abscissa_set(self, monkeypatch):
        calls = []
        simpson = nm.adaptive_simpson

        def counted(f, a, b, q=nm.DEFAULT_QUADRATURE):
            calls.append((a, b))
            return simpson(f, a, b, q)

        monkeypatch.setattr(nm, "adaptive_simpson", counted)
        F = ex.intv(ex.mul(ex.var("x2"), V), 1.0)
        comps = [ex.add(F, V), ex.mul(F, ex.var("x2")), ex.sin(F)]
        g = nm.Grid.build({"v": (0.5, 1.5, 3), "x2": (0.5, 1.5, 3),
                           "x3": (0.5, 1.5, 2)})
        cols = g.arrays()
        nm.evaluate_on_grid(F, cols)
        once = len(calls)
        calls.clear()
        rep = nm.grid_report("eq", comps, g, 1.0)
        # the quadratures of one distinct (v, x2) each, not one per component
        assert len(calls) == once
        assert {(a, b) for a, b in calls if a <= b} == {
            (min(1.0, v), max(1.0, v)) for v in (0.5, 1.0, 1.5)}
        calls.clear()
        for e in comps:
            nm.evaluate_on_grid(e, cols)
        assert len(calls) == 3 * once
        assert rep.residuals.size == 18

    def test_grid_report_starts_no_thread(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("grid_report started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        g = nm.Grid.build({"v": (0.5, 1.5, 40)})
        rep = nm.grid_report("eq", [ex.sub(V, 1), ex.mul(V, V)], g, 1.0)
        assert rep.residuals.size == 40


class TestEvalErrorLocation:
    """evaluate_on_grid names the first failing row of the failing step."""

    def test_first_failing_row_and_step(self):
        x = ex.var("x")
        root = ex.sqrt(ex.sub(x, 1))
        cols = {"x": np.array([2.0, 1.5, 1.0, 0.5, 0.0, 0.5])}
        with pytest.raises(ex.DomainError) as err:
            nm.evaluate_on_grid([ex.mul(2, x), ex.add(root, x)], cols,
                                extra={"p": 3})
        assert err.value.row == 3
        assert err.value.node is root
        assert err.value.point == {"x": 0.5, "p": 3.0}

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_row_counts_from_the_whole_grid(self, jobs):
        cols = nm.Grid.build({"v": (0.5, 1.5, 3), "x2": (0.0, 2.0, 5)}).arrays()
        with pytest.raises(ex.DivisionByZeroError) as err:
            nm.evaluate_on_grid(ex.div(V, ex.sub(ex.var("x2"), 1)), cols, jobs)
        assert err.value.row == 2
        assert err.value.point == {"v": 0.5, "x2": 1.0}

    def test_scalar_failure_and_unbound_name_take_row_0(self):
        cols = {"v": np.array([0.5, 1.0])}
        with pytest.raises(ex.UnboundVariableError) as err:
            nm.evaluate_on_grid(ex.add(V, ex.var("theta1")), cols)
        assert err.value.point == {"v": 0.5}
        with pytest.raises(ex.DomainError) as err:
            nm.evaluate_on_grid(ex.mul(V, ex.ln(ex.var("c"))), cols,
                                extra={"c": -1.0})
        assert err.value.row == 0 and err.value.point == {"v": 0.5, "c": -1.0}

    def test_integral_names_its_failing_tuple(self):
        F = ex.intv(ex.sqrt(ex.sub(ex.var("x2"), V)), 0.0)
        cols = {"v": np.array([0.5, 0.5, 1.5, 0.5]),
                "x2": np.array([1.0, 1.0, 1.0, 0.2])}
        with pytest.raises(ex.DomainError) as err:
            nm.evaluate_on_grid(ex.add(V, F), cols)
        assert err.value.row == 2 and err.value.node is F
        assert err.value.point == {"v": 1.5, "x2": 1.0}


class TestReportSerialization:
    def test_json_summary(self):
        import json as _json
        cols = nm.Points({"v": np.array([0.0, 1.0])})
        reps = [nm.ResidualReport.from_grid("a", cols, np.array([0.0, 1e-12]),
                                            1e-10),
                nm.ResidualReport.from_grid("b", cols, np.array([1.0, 2.0]),
                                            1e-10)]
        doc = _json.loads(nm.reports_to_json(reps))
        assert doc["pass"] is False
        assert [r["equation"] for r in doc["reports"]] == ["a", "b"]
        assert doc["reports"][0]["pass"] is True
