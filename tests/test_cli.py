"""Command-line pipelines: recipes in, metrics/CSV out, exit-code contract."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nhgeo import cli
from nhgeo import expr as ex
from nhgeo import geometry as geo
from nhgeo import geroch as gr
from nhgeo import serialize as ser
from nhgeo.numerics import Grid, Points, ResidualReport, evaluate_on_grid, grid_report
from conftest import RandomExprs

GRID5 = {n: {"min": 0.5, "max": 1.5, "count": 3}
         for n in ("x1", "x2", "x3", "v")}
GRID5Y = {**GRID5, "y5": {"min": 0.5, "max": 1.5, "count": 2}}
GRID4 = {n: {"min": 0.5, "max": 1.5, "count": 3}
         for n in ("x2", "x3", "v", "y5")}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def vacuum_recipe():
    return {
        "family": "gensol1_5d",
        "signatures": [1, 1, 1, 1, 1],
        "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v", "f0": "0",
                      "h0": "1", "varsigma0": "1",
                      "n2_1": "1", "n2_2": "1", "n2_3": "1"},
        "source": {"upsilon2": "0", "upsilon4": "0"},
        "v0": 1.0,
        "grid": GRID5,
        "tolerance": 1e-8,
    }


def flat_seed_doc():
    return {
        "chart": {"x": ["x2", "x3"], "y": ["v", "y5"], "params": []},
        "g": [["1", "0"], ["0", "1"]],
        "h": [["1", "0"], ["0", "1"]],
        "N": [["0", "0"], ["0", "0"]],
        "provenance": {"family": "flat"},
    }


def flat_potentials_doc(omega="0"):
    xi = (0.7, 0.2, 0.0, 0.4)
    lam = sum(x * x for x in xi)
    c = (lam ** 2 - 1.0) / lam
    return {"omega": omega, "alpha": ["0"] * 4, "beta": ["0"] * 4,
            "mu": [repr(c * x) for x in xi]}


class TestGenerate:
    def test_vacuum_recipe_roundtrip(self, tmp_path):
        cfg = write(tmp_path, "recipe.json", vacuum_recipe())
        out = str(tmp_path / "metric.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "metric.json").read_text())
        assert doc["provenance"]["family"] == "gensol1_5d"
        gm = ser.metric_from_dict(doc)
        assert gm.chart.dim == 5

    def test_degenerate_recipe_exit_3(self, tmp_path):
        bad = vacuum_recipe()
        bad["functions"]["f0"] = "v"
        cfg = write(tmp_path, "bad.json", bad)
        assert cli.main(["generate", "--config", cfg,
                         "--out", str(tmp_path / "x.json")]) == 3

    @pytest.mark.parametrize("family", ["gensol1_5d", "gensol1_4d"])
    def test_singular_g_block_exit_3(self, tmp_path, capsys, family):
        recipe = vacuum_recipe()
        recipe["family"] = family
        recipe["functions"]["g3"] = "x3 - x2"   # zero on the grid diagonal
        if family == "gensol1_4d":
            recipe["grid"] = {n: GRID5[n] for n in ("x2", "x3", "v")}
        cfg = write(tmp_path, "singular.json", recipe)
        out = tmp_path / "x.json"
        assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "g-block determinant" in err and "grid point" in err
        assert not out.exists()

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"family": "gensol1_5d"')
        assert cli.main(["generate", "--config", str(path)]) == 2

    def test_unknown_family_exit_2(self, tmp_path):
        bad = vacuum_recipe()
        bad["family"] = "who-knows"
        cfg = write(tmp_path, "bad.json", bad)
        assert cli.main(["generate", "--config", cfg]) == 2

    def test_x_dependent_source_generates_and_verifies(self, tmp_path, capsys):
        # the conformal factor's running integral then depends on x3 as well
        # as v, so it is evaluated per (v, x3) grid pair
        source = {"upsilon2": "0.1*(1 + x3)", "upsilon4": "0"}
        cfg = write(tmp_path, "recipe.json", {**vacuum_recipe(), "source": source})
        metric = str(tmp_path / "metric.json")
        assert cli.main(["generate", "--config", cfg, "--out", metric]) == 0
        vcfg = write(tmp_path, "verify.json", {
            "metric": metric, "grid": {**GRID5, "y5": GRID5["v"]},
            "tolerance": 1e-8, "source": source})
        # exit 1 is the documented verdict of the first-order conformal factor
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 1
        out = capsys.readouterr().out
        assert "EQ S44+Y2 max=2.347" in out and "EQ R22+Y4 max=0.0" in out

    def test_eval_error_names_function_and_point(self, tmp_path, capsys):
        recipe = vacuum_recipe()
        recipe["functions"]["f"] = "v + sqrt(x2 - 1)"
        cfg = write(tmp_path, "recipe.json", recipe)
        assert cli.main(["generate", "--config", cfg,
                         "--out", str(tmp_path / "m.json")]) == 4
        err = capsys.readouterr().err
        assert "functions.f = v + sqrt(x2 - 1)" in err and "grid point" in err

    def test_metric_that_fails_on_its_grid_exits_4(self, tmp_path, capsys):
        recipe = vacuum_recipe()
        recipe["functions"]["g2"] = "sqrt(x2 - 1)"
        cfg = write(tmp_path, "recipe.json", recipe)
        out = tmp_path / "m.json"
        assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "functions.g2 = sqrt(x2 - 1)" in err and "grid point" in err
        assert not out.exists()

    def test_unread_function_is_a_config_error(self, tmp_path, capsys):
        recipe = vacuum_recipe()
        recipe["functions"]["g2"] = "exp(x2)*sqrt(x2-1)"
        argv = ["generate", "--config", write(tmp_path, "recipe.json", recipe),
                "--out", str(tmp_path / "m.json")]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "evaluation error: sqrt of negative value in functions.g2 = "
            "exp(x2)*sqrt(x2 - 1) at grid point {'x1': 0.5, 'x2': 0.5, 'x3': 0.5, "
            "'v': 0.5}\n")
        recipe["functions"]["note"] = "zz"
        write(tmp_path, "recipe.json", recipe)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: functions.note: family 'gensol1_5d' reads no "
            "function 'note'\n")

    def test_non_finite_constant_exits_2(self, tmp_path, capsys):
        recipe = vacuum_recipe()
        recipe["functions"]["g3"] = "exp(x2)*1e200*1e200"
        cfg = write(tmp_path, "recipe.json", recipe)
        assert cli.main(["generate", "--config", cfg,
                         "--out", str(tmp_path / "m.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_vacuum_lc_family_with_reports(self, tmp_path):
        cfg = write(tmp_path, "lc.json", {
            "family": "vacuum_lc", "signatures": [1, 1, 1, 1],
            "functions": {"psi": "x2", "b": "v", "b0": "0",
                          "n2": "0", "n3": "0"},
            "h0": 1.0, "grid": GRID4, "tolerance": 1e-10})
        out = str(tmp_path / "lc_metric.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "lc_metric.json").read_text())
        assert all(r["pass"] for r in doc["family_reports"])
        assert all(set(r["worst_at"]) == set(GRID4) for r in doc["family_reports"])


class TestVerify:
    def make_metric(self, tmp_path):
        cfg = write(tmp_path, "recipe.json", vacuum_recipe())
        out = str(tmp_path / "metric.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        return out

    def test_generated_vacuum_passes(self, tmp_path, capsys):
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8})
        out = str(tmp_path / "verify.csv")
        assert cli.main(["verify", "--config", vcfg, "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("EQ R22+Y4 max=") for line in lines)

    def test_perturbed_metric_fails(self, tmp_path):
        metric = self.make_metric(tmp_path)
        doc = json.loads((tmp_path / "metric.json").read_text())
        doc["h"][0][0] = "1 + 0.01*v"
        pert = write(tmp_path, "metric_pert.json", doc)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": pert, "grid": GRID5Y, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 1

    def test_grid_on_excluded_locus_exit_4(self, tmp_path, capsys):
        metric = self.make_metric(tmp_path)
        grid = dict(GRID5Y)
        grid["v"] = {"min": -0.5, "max": 0.5, "count": 3}  # crosses f = f0
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": grid, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg]) == 4
        assert "grid point" in capsys.readouterr().err

    def test_eval_error_names_entry_and_point(self, tmp_path, capsys):
        metric = self.make_metric(tmp_path)
        doc = json.loads((tmp_path / "metric.json").read_text())
        doc["h"][0][0] = "sqrt(v-1)"
        bad = write(tmp_path, "metric_bad.json", doc)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": bad, "grid": GRID5Y, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 4
        err = capsys.readouterr().err
        assert "h[0][0] = sqrt(v - 1)" in err and "grid point" in err

    def test_singular_block_names_step_and_point(self, tmp_path, capsys):
        # g-block zero on the grid diagonal: no entry fails on its own, so
        # the message names the program step that divided by it
        doc = {"chart": {"x": ["x1", "x2", "x3"], "y": ["v", "y5"], "params": []},
               "g": [["1", "0", "0"], ["0", "exp(x2)", "0"], ["0", "0", "x3 - x2"]],
               "h": [["1", "0"], ["0", "v^2"]],
               "N": [["0", "0"], ["0", "0"], ["0", "0"]],
               "provenance": {"family": "hand-written"}}
        metric = write(tmp_path, "singular.json", doc)
        grid = {n: {"min": 0.5, "max": 1.5, "count": 4}
                for n in ("x1", "x2", "x3", "v", "y5")}
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": grid, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 4
        err = capsys.readouterr().err
        assert "division by zero in " in err and "x3 - x2" in err
        assert "at grid point {'x1': 0.5, 'x2': 0.5, 'x3': 0.5," in err

    def test_locating_an_error_probes_one_point(self, tmp_path, capsys,
                                                monkeypatch):
        metric = self.make_metric(tmp_path)
        doc = json.loads((tmp_path / "metric.json").read_text())
        doc["g"][1][1] = "exp(x2)*sqrt(1.45 - x1)"
        bad = write(tmp_path, "metric_bad.json", doc)
        grid = {n: {"min": 0.5, "max": 1.5, "count": 4}
                for n in ("x1", "x2", "x3", "v", "y5")}
        vcfg = write(tmp_path, "verify.json",
                     {"metric": bad, "grid": grid, "tolerance": 1e-8})
        calls = []
        evaluate = ex.evaluate

        def counted(e, point):
            calls.append(point)
            return evaluate(e, point)

        monkeypatch.setattr(ex, "evaluate", counted)
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 4
        entries = sum(len(row) for key in ("g", "h", "N") for row in doc[key])
        assert 0 < len(calls) <= entries
        err = capsys.readouterr().err
        assert err == ("evaluation error: sqrt of negative value in g[1][1] = "
                       "exp(x2)*sqrt(-x1 + 1.45) at grid point {'x1': 1.5, "
                       "'x2': 0.5, 'x3': 0.5, 'v': 0.5, 'y5': 0.5}\n")

    def test_eval_error_on_a_sub_grid_names_every_column(self, tmp_path, capsys):
        # S44+Y2 reads x2 and v only and runs on their 9 pairs; the error
        # names the first point of the 5-axis grid with the failing pair
        metric = self.make_metric(tmp_path)
        doc = json.loads((tmp_path / "metric.json").read_text())
        doc["h"][0][0] = "sqrt(v - x2)"
        bad = write(tmp_path, "metric_bad.json", doc)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": bad, "grid": GRID5Y, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 4
        assert capsys.readouterr().err == (
            "evaluation error: sqrt of negative value in h[0][0] = sqrt(v - x2) "
            "at grid point {'x1': 0.5, 'x2': 1.0, 'x3': 0.5, 'v': 0.5, "
            "'y5': 0.5}\n")

    def test_reports_share_two_column_mappings(self, tmp_path, monkeypatch):
        captured = []
        monkeypatch.setattr(cli, "_write_csv",
                            lambda path, reports: captured.extend(reports))
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg]) == 0
        assert len(captured) == 12
        ricci, oracles = captured[:6], captured[6:]
        assert oracles[0].equation.startswith("oracle-")
        # the ricci reports share the config's grid, the six oracle reports
        # one Points, so each formats its coordinate text once
        assert isinstance(ricci[0].points, Grid)
        assert isinstance(oracles[0].points, Points)
        for group in (ricci, oracles):
            assert all(rep.points is group[0].points for rep in group)
        assert oracles[0].points.size == 50
        assert set(oracles[0].points.names) == set(GRID5Y)

    def test_verify_without_summary_reads_no_grid_columns(self, tmp_path,
                                                           monkeypatch, capsys):
        # reports evaluate on sub-grid columns, and their CSV text and
        # summary lines come from the axis values: nothing builds the
        # full-grid columns
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "checks": ["ricci", "oracles", "lc"]})
        argv = ["verify", "--config", vcfg, "--out", str(tmp_path / "a.csv")]
        capsys.readouterr()
        code = cli.main(argv)
        want = capsys.readouterr().out

        def refuse(grid):
            raise AssertionError("Grid.arrays() called")

        monkeypatch.setattr(Grid, "arrays", refuse)
        argv[-1] = str(tmp_path / "b.csv")
        assert cli.main(argv) == code
        assert capsys.readouterr().out == want.replace("a.csv", "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "seed": 11})
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert cli.main(["verify", "--config", vcfg, "--out", a]) == 0
        assert cli.main(["verify", "--config", vcfg, "--out", b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_lc_checks_opt_in(self, tmp_path):
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "checks": ["ricci", "oracles", "lc"]})
        # the generated metric carries v-dependent rotation coefficients, so
        # it is a torsionful solution: the transport report fails by design
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 1

    # sha256 of the CSV below; a refactor that keeps the outputs keeps it
    README_LC_CSV_SHA256 = (
        "3dced965f00d4f1d278216555201dd9c64a3d4d6c39d8d448bf2234160ed24ae")

    def test_readme_recipe_csv_bytes_pinned(self, tmp_path):
        # the README recipe, generated and then verified with every check
        # group on a 3^5 grid; the transport report fails by design (exit 1)
        recipe = {**vacuum_recipe(),
                  "grid": {n: {"min": 0.5, "max": 1.5, "count": 4}
                           for n in ("x1", "x2", "x3", "v")}}
        metric = str(tmp_path / "metric.json")
        assert cli.main(["generate", "--config", write(tmp_path, "r.json", recipe),
                         "--out", metric]) == 0
        vcfg = write(tmp_path, "verify.json", {
            "metric": metric, "tolerance": 1e-8,
            "grid": {n: {"min": 0.5, "max": 1.5, "count": 3}
                     for n in ("x1", "x2", "x3", "v", "y5")},
            "checks": ["ricci", "oracles", "lc"]})
        out = tmp_path / "v.csv"
        assert cli.main(["verify", "--config", vcfg, "--out", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.README_LC_CSV_SHA256

    def test_ricci_built_once(self, tmp_path, monkeypatch):
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "checks": ["ricci", "oracles"]})
        calls = []
        build = cli.curvature_ricci

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "curvature_ricci", counted)
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 0
        assert len(calls) == 1

    def test_canonical_connection_built_once(self, tmp_path, monkeypatch):
        # the lc group reads its C^i_jb block from the table the Ricci
        # groups use, in the cli and in geometry alike
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "checks": ["ricci", "oracles", "lc"]})
        calls = []
        build = geo.canonical_dconnection

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "canonical_dconnection", counted)
        monkeypatch.setattr(geo, "canonical_dconnection", counted)
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 1
        assert len(calls) == 1

    def test_reports_start_no_thread(self, tmp_path, monkeypatch):
        import concurrent.futures

        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "checks": ["ricci", "oracles", "lc"]})

        def refuse(*args, **kwargs):
            raise AssertionError("a report started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        # --jobs is accepted and has no effect; this metric is not
        # Levi-Civita compatible, so the lc group fails (exit 1)
        assert cli.main(["verify", "--config", vcfg, "--jobs", "4",
                         "--out", str(tmp_path / "v.csv")]) == 1
        gm = ser.metric_from_dict(json.loads((tmp_path / "metric.json").read_text()))
        grid = ser.grid_from_dict(GRID5Y)
        source = ser.source_from_dict(None, gm.chart.all_names)
        reports = cli.verification_reports(gm, source, grid, 1e-8,
                                           checks=("ricci", "oracles", "lc"))
        assert len(reports) == 15 and not reports[-1].passed

    def test_csv_header_contract(self, tmp_path):
        metric = self.make_metric(tmp_path)
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8})
        out = tmp_path / "v.csv"
        cli.main(["verify", "--config", vcfg, "--out", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == "equation,x1,x2,x3,v,y5,chi,residual"


class TestFlow:
    def flow_cfg(self):
        return {
            "family": "flow_solrf1", "lambda": 0.0,
            "signatures": [1, 1, 1, 1, 1],
            "chi": {"min": 0.0, "max": 1.0, "count": 3},
            "functions": {"varpi": "exp(x2)", "h5": "v^2", "h0": "1",
                          "varsigma40": "1", "n1": "0.2*x2", "n2": "0"},
            "v0": 1.0,
            "grid": {**GRID5, "y5": {"min": 0.5, "max": 1.5, "count": 2}},
            "tolerance": 1e-7,
        }

    def test_static_family_passes(self, tmp_path, capsys):
        cfg = write(tmp_path, "flow.json", self.flow_cfg())
        out = str(tmp_path / "flow.csv")
        assert cli.main(["flow", "--config", cfg, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "chi=0.5" in text  # per-sample sections

    def test_incompatible_profile_exit_3(self, tmp_path):
        bad = self.flow_cfg()
        bad["functions"]["varpi"] = "exp(x2^2)"
        cfg = write(tmp_path, "flow.json", bad)
        assert cli.main(["flow", "--config", cfg]) == 3

    def test_eval_error_names_function_and_point(self, tmp_path, capsys):
        bad = self.flow_cfg()
        bad["functions"]["h5"] = "sqrt(v-1)"
        cfg = write(tmp_path, "flow.json", bad)
        assert cli.main(["flow", "--config", cfg,
                         "--out", str(tmp_path / "f.csv")]) == 4
        err = capsys.readouterr().err
        assert "functions.h5 = sqrt(v - 1)" in err and "grid point" in err
        assert "'chi': 0.0" in err

    def test_locus_at_a_later_chi_sample_exit_3(self, tmp_path, capsys):
        # varpi vanishes at the last chi sample only
        bad = self.flow_cfg()
        bad["functions"]["varpi"] = "exp(x2)*(1 - chi)"
        cfg = write(tmp_path, "flow.json", bad)
        assert cli.main(["flow", "--config", cfg,
                         "--out", str(tmp_path / "f.csv")]) == 3
        assert capsys.readouterr().err == (
            "degenerate recipe: grid point {'x1': 0.5, 'x2': 0.5, 'x3': 0.5, "
            "'v': 0.5, 'y5': 0.5, 'chi': 1.0} lies on excluded locus "
            "exp(x2)*(-chi + 1) = 0\n")

    def test_lc_flow_family(self, tmp_path, monkeypatch):
        captured = []
        write_csv = cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", lambda path, reports: (
            captured.extend(reports), write_csv(path, reports)))
        cfg = write(tmp_path, "flow.json", {
            "family": "flow_lc", "lambda": 0.0, "signatures": [1, 1, 1, 1],
            "chi": [0.0, 1.0],
            "functions": {"psi": "x2", "h4": "1", "h5": "v^2",
                          "w2": "0", "w3": "0", "n2": "0.3"},
            "grid": GRID4, "tolerance": 1e-8})
        assert cli.main(["flow", "--config", cfg,
                         "--out", str(tmp_path / "f.csv")]) == 0
        # selection and evolution reports share the grid x chi columns
        assert len(captured) == 9
        assert all(rep.points is captured[0].points for rep in captured)
        cols = captured[0].points.arrays()
        assert tuple(cols) == (*GRID4, "chi")
        assert not any(col.flags.writeable for col in cols.values())


class TestGeroch:
    def test_zero_angle_identity(self, tmp_path):
        seed = write(tmp_path, "seed.json", flat_seed_doc())
        cfg = write(tmp_path, "ger.json", {
            "seed": seed, "xi": ["0.7", "0.2", "0", "0.4"], "theta": 0.0,
            "potentials": flat_potentials_doc(),
            "grid": GRID4, "tolerance": 1e-8})
        out = str(tmp_path / "t.json")
        assert cli.main(["geroch", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        gm = ser.metric_from_dict(doc)
        seed_gm = ser.metric_from_dict(flat_seed_doc())
        p = {"x2": 1.0, "x3": 1.0, "v": 1.0, "y5": 1.0}
        for i in range(2):
            assert abs(ex.evaluate(gm.metric.g[i][i], p)
                       - ex.evaluate(seed_gm.metric.g[i][i], p)) < 1e-12

    def test_failing_potentials_exit_5(self, tmp_path):
        seed = write(tmp_path, "seed.json", flat_seed_doc())
        cfg = write(tmp_path, "ger.json", {
            "seed": seed, "xi": ["0.7", "0.2", "0", "0.4"], "theta": 0.3,
            "potentials": flat_potentials_doc(omega="x2"),
            "grid": GRID4, "tolerance": 1e-8})
        assert cli.main(["geroch", "--config", cfg]) == 5

    def test_eval_error_names_entry_and_point(self, tmp_path, capsys):
        doc = flat_seed_doc()
        doc["h"][1][1] = "sqrt(v-1)"
        seed = write(tmp_path, "seed.json", doc)
        cfg = write(tmp_path, "ger.json", {
            "seed": seed, "xi": ["0.7", "0.2", "0", "0.4"], "theta": 0.3,
            "potentials": flat_potentials_doc(),
            "grid": GRID4, "tolerance": 1e-8})
        assert cli.main(["geroch", "--config", cfg,
                         "--out", str(tmp_path / "t.json")]) == 4
        err = capsys.readouterr().err
        assert "h[1][1] = sqrt(v - 1)" in err and "grid point" in err

    def test_seed_setup_built_once(self, tmp_path, monkeypatch):
        # the Killing check, the potential checks and the transform of the
        # first step all read the seed's one coordinate setup
        seed = write(tmp_path, "seed.json", flat_seed_doc())
        cfg = write(tmp_path, "ger.json", {
            "seed": seed, "xi": ["0.7", "0.2", "0", "0.4"],
            "steps": [{"kind": "geroch", "theta": 0.3,
                       "potentials": flat_potentials_doc()},
                      {"kind": "deform",
                       "polarizations": {"eta_h": ["2", "1"], "eta_v": ["1", "1"],
                                         "eta_n": [["1", "1"], ["1", "1"]]}}],
            "grid": GRID4, "tolerance": 1e-8})
        calls = []
        build = gr.coordinate_christoffels

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(gr, "coordinate_christoffels", counted)
        assert cli.main(["geroch", "--config", cfg,
                         "--out", str(tmp_path / "t.json")]) == 0
        assert len(calls) == 1

    def test_chain_with_deform_step(self, tmp_path):
        seed = write(tmp_path, "seed.json", flat_seed_doc())
        cfg = write(tmp_path, "ger.json", {
            "seed": seed, "xi": ["0.7", "0.2", "0", "0.4"],
            "steps": [
                {"kind": "geroch", "theta": 0.0,
                 "potentials": flat_potentials_doc()},
                {"kind": "deform",
                 "polarizations": {"eta_h": ["2", "1"], "eta_v": ["1", "1"],
                                   "eta_n": [["1", "1"], ["1", "1"]]}},
            ],
            "grid": GRID4, "tolerance": 1e-8})
        out = str(tmp_path / "t.json")
        assert cli.main(["geroch", "--config", cfg, "--out", out,
                         "--report", str(tmp_path / "checks.csv")]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["g"][0][0] == "2"
        assert "chain" not in doc["provenance"]
        report = (tmp_path / "checks.csv").read_text().splitlines()
        assert report[1].startswith("killing,")

    def test_deform_of_non_diagonal_blocks_exits_2(self, tmp_path, capsys):
        doc = flat_seed_doc()
        doc["h"][0][1] = "5"
        cfg = write(tmp_path, "ger.json", {
            "seed": doc, "xi": ["0.7", "0.2", "0", "0.4"],
            "steps": [{"kind": "geroch", "theta": 0.0,
                       "potentials": flat_potentials_doc()},
                      {"kind": "deform",
                       "polarizations": {"eta_h": ["2", "1"], "eta_v": ["1", "1"],
                                         "eta_n": [["1", "1"], ["1", "1"]]}}],
            "grid": GRID4, "tolerance": 1e-8})
        out = tmp_path / "t.json"
        assert cli.main(["geroch", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: steps[1]") and err.count("\n") == 1
        assert "diagonal blocks" in err
        assert not out.exists()


class TestExpr:
    def test_check_action(self, capsys):
        assert cli.main(["expr", "check", "sin(x2) + v^2",
                         "--vars", "x2,v"]) == 0
        out = capsys.readouterr().out
        assert "free variables: v, x2" in out

    def test_check_with_evaluation(self, capsys):
        assert cli.main(["expr", "check", "v^2", "--vars", "v",
                         "--at", "v=3"]) == 0
        assert "9.0" in capsys.readouterr().out

    @pytest.mark.parametrize("binding", ["v=abc", "v", "v=1e400"])
    def test_malformed_binding_exits_2(self, capsys, binding):
        assert cli.main(["expr", "check", "v^2", "--vars", "v",
                         "--at", f"x2=1,{binding}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: 'v' in --at")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("at, message", [
        ("v=1,v=2", "config error: --at binding 'v=2' binds 'v' again"),
        ("=1", "config error: --at binding '=1' binds no name"),
        ("v=1, =2", "config error: --at binding ' =2' binds no name")])
    def test_repeated_or_empty_name_exits_2(self, capsys, at, message):
        assert cli.main(["expr", "check", "v^2", "--vars", "v", "--at", at]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""

    def test_syntax_error_exit_2(self):
        assert cli.main(["expr", "check", "v +", "--vars", "v"]) == 2

    def test_unknown_variable_exit_2(self):
        assert cli.main(["expr", "check", "q + 1", "--vars", "v"]) == 2

    def test_overflowing_constant_exit_2(self, capsys):
        assert cli.main(["expr", "check", "1e200*1e200", "--vars", "v"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_finite_function_argument_exit_2(self, capsys):
        assert cli.main(["expr", "check", "sin(1e200*1e200)", "--vars", "v"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_deeply_nested_expression_exit_2(self, capsys):
        deep = "(" * 6000 + "v" + ")" * 6000
        assert cli.main(["expr", "check", deep, "--vars", "v"]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_parser_is_built_once(self, monkeypatch):
        def refuse():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert cli.main(["expr", "check", "v", "--vars", "v"]) == 0
        assert cli.main(["expr", "check", "w", "--vars", "v"]) == 2


class TestInternalError:
    def test_crash_exits_6_with_one_line(self, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(cli._HANDLERS, "expr", crash)
        assert cli.main(["expr", "check", "v"]) == cli.EXIT_INTERNAL == 6
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom second line\n"


def command_configs():
    """A valid config of each command, its metric and seed given inline."""
    return {
        "generate": vacuum_recipe(),
        "verify": {"metric": flat_seed_doc(), "grid": GRID4, "tolerance": 1e-8,
                   "seed": 3, "oracle_points": 5, "oracle_tolerance": 1e-9,
                   "checks": ["ricci", "oracles"]},
        "flow": TestFlow().flow_cfg(),
        "geroch": {"seed": flat_seed_doc(), "xi": ["0.7", "0.2", "0", "0.4"],
                   "theta": 0.3, "potentials": flat_potentials_doc(),
                   "grid": GRID4, "tolerance": 1e-8},
        "geroch-chain": {
            "seed": flat_seed_doc(), "xi": ["0.7", "0.2", "0", "0.4"],
            "steps": [{"kind": "geroch", "theta": 0.3,
                       "potentials": flat_potentials_doc()},
                      {"kind": "deform",
                       "polarizations": {"eta_h": ["2", "1"], "eta_v": ["1", "1"],
                                         "eta_n": [["1", "1"], ["1", "1"]]}}],
            "grid": GRID4, "tolerance": 1e-8},
    }


def run_with(tmp_path, command, path, value):
    """Exit code and stderr of ``command`` with its config's field at
    ``path`` (a tuple of keys and indices) set to ``value``; it writes no
    output."""
    cfg = copy.deepcopy(command_configs()[command])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "out"
    argv = [command.split("-")[0], "--config", write(tmp_path, "cfg.json", cfg),
            "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert not out.exists()
    return code, err.getvalue()


DEFORM = ("steps", 1, "polarizations")


class TestOutputPaths:
    """An output that cannot be written is a configuration error naming the
    path (exit 2), for every file a command writes."""

    @pytest.mark.parametrize("case", ["generate", "verify", "verify-dir",
                                      "verify-summary", "flow", "geroch",
                                      "geroch-report"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, case):
        command = case.split("-")[0]
        cfg = command_configs()[command]
        bad, reason = str(tmp_path / "no-dir" / "out"), "No such file or directory"
        if case == "verify-dir":
            bad, reason = str(tmp_path), "Is a directory"
        if case == "verify-summary":
            cfg = {**cfg, "summary": bad}
        outs = {"verify-summary": ["--out", str(tmp_path / "v.csv")],
                "geroch-report": ["--out", str(tmp_path / "t.json"), "--report", bad],
                }.get(case, ["--out", bad])
        argv = [command, "--config", write(tmp_path, "cfg.json", cfg), *outs]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {bad!r}: {reason}\n"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such.json")
        assert cli.main(["verify", "--config", missing]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: no such file: {missing}\n"


class TestMalformedFields:
    """A field of the wrong type, or one that does not convert, exits 2 with
    one config error naming it, before anything is computed or written."""

    @pytest.mark.parametrize("command, path, value, named", [
        pytest.param("verify", ("checks",), ["ricci_typo"],
                     "'checks' in verify config", id="checks-typo"),
        pytest.param("verify", ("checks",), "ricci", "'checks' in verify config",
                     id="checks-string"),
        pytest.param("verify", ("checks",), [], "'checks' in verify config",
                     id="checks-empty"),
        pytest.param("verify", ("oracle_points",), "many",
                     "'oracle_points' in verify config", id="oracle-points"),
        pytest.param("verify", ("params",), {"a": "x"}, "'a' in params",
                     id="verify-params"),
        pytest.param("verify", ("params",), {"v": -1.0},
                     "'v' in params is a grid axis", id="verify-params-axis"),
        pytest.param("verify", ("params",), {"zz": 1.0},
                     "'zz' in params is not a declared parameter",
                     id="verify-params-undeclared"),
        pytest.param("verify", ("oracle_points",), 0,
                     "oracle_points must be at least 1", id="oracle-points-zero"),
        pytest.param("verify", ("oracle_tolerance",), -1,
                     "oracle_tolerance must be positive", id="oracle-tolerance-negative"),
        pytest.param("verify", ("tolerance",), "tight",
                     "'tolerance' in verify config", id="verify-tolerance"),
        pytest.param("verify", ("summary",), ["s.json"],
                     "'summary' in verify config", id="summary"),
        pytest.param("generate", ("v0",), "one", "'v0' in recipe", id="v0"),
        pytest.param("generate", ("param_values",), {"a": "x"},
                     "'a' in param_values", id="param-values"),
        pytest.param("generate", ("param_values",), {"x2": 1.0},
                     "'x2' in param_values is a grid axis", id="param-values-axis"),
        pytest.param("generate", ("param_values",), {"zz": 1.0},
                     "'zz' in param_values is not a declared parameter",
                     id="param-values-undeclared"),
        pytest.param("generate", ("functions", "n2_l"), "1", "functions.n2_l",
                     id="unread-function"),
        pytest.param("flow", ("lambda",), "zero", "'lambda' in flow recipe",
                     id="flow-lambda"),
        pytest.param("flow", ("chi",), ["a"], "chi needs", id="chi-list"),
        pytest.param("flow", ("chi", "count"), 2.5, "'count' in chi", id="chi-count"),
        pytest.param("generate", ("grid", "x1", "count"), 2.7,
                     "'count' in grid axis 'x1'", id="grid-count"),
        pytest.param("generate", ("grid", "x2", "max"), float("inf"),
                     "'max' in grid axis 'x2'", id="grid-max-infinite"),
        pytest.param("geroch", ("theta",), "small", "'theta' in transform config",
                     id="theta"),
        pytest.param("geroch", ("steps",), {"kind": "geroch"},
                     "'steps' in transform config", id="steps-object"),
        pytest.param("geroch", ("xi",), ["0.7", "0.2", "0"],
                     "'xi' in transform config must list 4 expressions", id="xi-short"),
        pytest.param("geroch", ("potentials", "alpha"), ["0"] * 5,
                     "'alpha' in steps[0].potentials must list 4 expressions",
                     id="alpha-long"),
        pytest.param("geroch", ("seed",), {
            "chart": {"x": ["x1", "x2", "x3"], "y": ["v", "y5"]},
            "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            "h": [["1", "0"], ["0", "1"]], "N": [["x2", "0"], ["0", "0"], ["0", "0"]]},
            "seed: x1 row of the N-coefficients must vanish", id="seed-x1-row"),
        pytest.param("geroch-chain", (*DEFORM, "eta_h"), ["0", "1"],
                     "eta_h must be nonzero", id="eta-h-zero"),
        pytest.param("geroch-chain", (*DEFORM, "eta_h"), ["1"],
                     "'eta_h' in steps[1].polarizations must list 2 expressions",
                     id="eta-h-shape"),
        pytest.param("geroch-chain", (*DEFORM, "eta_n"), [["1"], ["1"]],
                     "'eta_n' in steps[1].polarizations", id="eta-n-shape"),
    ])
    def test_fault_exits_2_naming_the_field(self, tmp_path, command, path, value,
                                            named):
        code, err = run_with(tmp_path, command, path, value)
        assert code == 2
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err

    # documented scalar and list fields; the last key is the name the error gives
    FIELDS = [("generate", ("tolerance",)), ("generate", ("v0",)),
              ("generate", ("signatures",)), ("verify", ("tolerance",)),
              ("verify", ("seed",)), ("verify", ("checks",)),
              ("verify", ("oracle_points",)), ("verify", ("oracle_tolerance",)),
              ("flow", ("lambda",)), ("flow", ("v0",)), ("flow", ("chi",)),
              ("flow", ("tolerance",)), ("geroch", ("theta",)), ("geroch", ("xi",)),
              ("geroch", ("tolerance",)), ("geroch-chain", ("steps", 0, "theta")),
              ("geroch-chain", (*DEFORM, "eta_h")), ("geroch-chain", (*DEFORM, "eta_v"))]
    # strings that are neither numbers nor names of a check group, variable
    # or function, so no drawn value is valid for any of these fields
    TEXT = st.text(alphabet="abz#@ ", max_size=4)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(FIELDS),
           value=st.one_of(TEXT, st.lists(TEXT, max_size=3),
                           st.dictionaries(TEXT, st.integers(), max_size=2)))
    def test_malformed_field_exits_2(self, tmp_path_factory, field, value):
        command, path = field
        code, err = run_with(tmp_path_factory.mktemp("cfg"), command, path, value)
        assert code == 2, err
        assert err.startswith("config error: ") and path[-1] in err


class TestMoreFamilies:
    def test_generate_4d_family(self, tmp_path):
        cfg = write(tmp_path, "r4.json", {
            "family": "gensol1_4d", "signatures": [1, 1, 1, 1, 1],
            "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v",
                          "n2_2": "1", "n2_3": "1"},
            "v0": 1.0,
            "grid": {n: {"min": 0.5, "max": 1.5, "count": 3}
                     for n in ("x2", "x3", "v")}})
        out = str(tmp_path / "m4.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "m4.json").read_text())
        assert doc["chart"]["x"] == ["x2", "x3"]
        vcfg = write(tmp_path, "v4.json", {"metric": out, "grid": GRID4,
                                           "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v4.csv")]) == 0

    def test_sourced_lc_family(self, tmp_path):
        lam = 0.25
        cfg = write(tmp_path, "rs.json", {
            "family": "sourced_lc", "signatures": [1, 1, 1, 1],
            "functions": {"psi": f"{lam / 2}*x2^2",
                          "h4": f"1/(1 + {lam}*v^2)", "h5": "v^2",
                          "n2": "0", "n3": "0"},
            "source": {"lambda": lam},
            "grid": GRID4, "tolerance": 1e-10})
        out = str(tmp_path / "ms.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "ms.json").read_text())
        assert all(r["pass"] for r in doc["family_reports"])

    def test_parametric_recipe_with_bindings(self, tmp_path):
        cfg = write(tmp_path, "rp.json", {
            "family": "gensol1_5d", "signatures": [1, 1, 1, 1, 1],
            "params": ["theta1"],
            "param_values": {"theta1": 0.4},
            "functions": {"g2": "exp(x2)", "g3": "exp(x2)",
                          "f": "v + theta1*x2*v^2",
                          "n1_1": "theta1*x3"},
            "v0": 1.0, "grid": GRID5})
        out = str(tmp_path / "mp.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        vcfg = write(tmp_path, "vp.json", {
            "metric": out, "grid": GRID5Y, "tolerance": 1e-8,
            "params": {"theta1": 0.4}})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "vp.csv")]) == 0

    def test_declared_parameter_on_a_grid_axis_exits_2(self, tmp_path, capsys):
        # a binding may not shadow a grid axis, even of a declared name
        recipe = {"family": "gensol1_5d", "signatures": [1, 1, 1, 1, 1],
                  "params": ["theta1"], "param_values": {"theta1": 0.4},
                  "functions": {"g2": "exp(x2)", "g3": "exp(x2)",
                                "f": "v + theta1*x2*v^2"},
                  "v0": 1.0, "grid": GRID5}
        out = str(tmp_path / "mp.json")
        assert cli.main(["generate", "--config", write(tmp_path, "rp.json", recipe),
                         "--out", out]) == 0
        theta = {"min": 0.1, "max": 0.5, "count": 2}
        recipe["grid"] = {**GRID5, "theta1": theta}
        assert cli.main(["generate", "--config", write(tmp_path, "rp.json", recipe),
                         "--out", str(tmp_path / "no.json")]) == 2
        vcfg = write(tmp_path, "vp.json", {
            "metric": out, "grid": {**GRID5Y, "theta1": theta}, "tolerance": 1e-8,
            "params": {"theta1": 0.4}})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "vp.csv")]) == 2
        assert capsys.readouterr().err == (
            "config error: 'theta1' in param_values is a grid axis, not a parameter\n"
            "config error: 'theta1' in params is a grid axis, not a parameter\n")
        assert not (tmp_path / "no.json").exists() and not (tmp_path / "vp.csv").exists()

    def test_parameter_without_value_is_left_to_verify(self, tmp_path):
        cfg = write(tmp_path, "rp.json", {
            "family": "gensol1_5d", "signatures": [1, 1, 1, 1, 1],
            "params": ["theta1"],
            "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v",
                          "n1_1": "theta1*x3"},
            "v0": 1.0, "grid": GRID5})
        out = str(tmp_path / "mp.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        assert "theta1" in json.loads((tmp_path / "mp.json").read_text())["N"][0][1]

    def test_eval_error_binds_params(self, tmp_path, capsys):
        # h[0][0] depends on theta1; the locator must bind it to reach N
        cfg = write(tmp_path, "rp.json", {
            "family": "gensol1_5d", "signatures": [1, 1, 1, 1, 1],
            "params": ["theta1"], "param_values": {"theta1": 0.4},
            "functions": {"g2": "exp(x2)", "g3": "exp(x2)",
                          "f": "v + theta1*x2*v^2"},
            "v0": 1.0, "grid": GRID5})
        out = str(tmp_path / "mp.json")
        assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "mp.json").read_text())
        assert "theta1" in doc["h"][0][0]
        doc["N"][2][1] = "sqrt(v-1)"
        bad = write(tmp_path, "bad.json", doc)
        vcfg = write(tmp_path, "vp.json", {
            "metric": bad, "grid": GRID5Y, "tolerance": 1e-8,
            "params": {"theta1": 0.4}})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "vp.csv")]) == 4
        err = capsys.readouterr().err
        assert "N[2][1] = sqrt(v - 1)" in err and "grid point" in err


class TestSummaryOutput:
    def test_verify_json_summary(self, tmp_path):
        cfg = write(tmp_path, "recipe.json", vacuum_recipe())
        metric = str(tmp_path / "metric.json")
        assert cli.main(["generate", "--config", cfg, "--out", metric]) == 0
        summary = str(tmp_path / "summary.json")
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8,
                      "summary": summary})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["pass"] is True
        assert any(r["equation"] == "S44+Y2" for r in doc["reports"])
        for r in doc["reports"]:
            assert r["worst_at"] and all(0.5 <= x <= 1.5
                                         for x in r["worst_at"].values())
        ricci = next(r for r in doc["reports"] if r["equation"] == "R22+Y4")
        assert set(ricci["worst_at"]) == set(GRID5Y)


def reference_csv(path, reports):
    """The row-by-row writer the columnar one replaced: csv.writer with
    repr(float(v)) per field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["equation", *cli.CSV_COLUMNS, "residual"])
        for rep in reports:
            cols = rep.points.arrays()
            for k in range(rep.residuals.size):
                writer.writerow(
                    [rep.equation]
                    + [repr(float(cols[c][k])) if c in cols else ""
                       for c in cli.CSV_COLUMNS]
                    + [repr(float(rep.residuals[k]))])


# float columns with the values whose text is easy to get wrong
SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16)
# labels that need quoting: a comma, a double quote, CR and LF
CSV_LABELS = st.text(st.one_of(st.sampled_from(',"\r\n'),
                               st.characters(min_codepoint=32, max_codepoint=0x17F)),
                     max_size=6)


def csv_floats(seed, n):
    """``n`` independent floats from ``seed``, without one draw per value:
    about half SPECIAL_FLOATS, the others random float64 bit patterns (NaN
    payloads and subnormals among them)."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float)
    return np.where(rng.random(n) < 0.5,
                    rng.choice(np.array(SPECIAL_FLOATS), n), bits)


@st.composite
def grids(draw, names=("x1", "x2", "x3", "v", "y5", "p")):
    """A grid on a random subset of ``names``, listed in random order, some
    axes starting at -0.0, sometimes repeated over chi samples with -0.0
    among them."""
    names = draw(st.permutations(names))
    spec = {n: (lo, lo + draw(st.sampled_from((1.0, 0.3, 2.5))),
                draw(st.integers(2, 4)))
            for n, lo in zip(names[:draw(st.integers(1, 5))],
                             draw(st.lists(st.sampled_from((-0.0, 0.0, 0.5, -1.0)),
                                           min_size=5, max_size=5)))}
    grid = Grid.build(spec)
    if draw(st.booleans()):
        grid = grid.sampled("chi", draw(st.lists(
            st.sampled_from((-0.0, 0.0, 0.5, 1.0)), min_size=1, max_size=3)))
    return grid


@st.composite
def report_runs(draw):
    """Up to four reports, each on a grid (values on the sub-grid of random
    axes) or on Points (random columns of CSV floats, some with no points,
    some columns outside the CSV layout), some on the previous report's
    points; each report's values are independent csv_floats."""
    reports = []
    for _ in range(draw(st.integers(0, 4))):
        if reports and draw(st.booleans()):
            points = reports[-1].points
        elif draw(st.booleans()):
            points = draw(grids())
        else:
            n, seed = draw(st.integers(0, 12)), draw(st.integers(0, 2 ** 32 - 1))
            points = Points({c: csv_floats(seed + k, n) for k, c in enumerate(draw(
                st.lists(st.sampled_from((*cli.CSV_COLUMNS, "p")), min_size=1,
                         unique=True)))})
        reads, n = frozenset(), points.size
        if isinstance(points, Grid):
            reads = frozenset(draw(st.lists(st.sampled_from(points.names), unique=True)))
            counts = dict(zip([name for name, _ in points._nest], points.shape))
            n = math.prod(counts[name] for name in reads)
        residuals = csv_floats(draw(st.integers(0, 2 ** 32 - 1)), n)
        reports.append(ResidualReport.from_grid(draw(CSV_LABELS), points,
                                                residuals, 1e-8, reads))
    return reports


class TestCsvWriter:
    """_write_csv is byte-identical to the row-by-row reference writer."""

    def assert_matches_reference(self, tmp_path, reports):
        cli._write_csv(str(tmp_path / "got.csv"), reports)
        reference_csv(str(tmp_path / "want.csv"), reports)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        return got

    def test_adversarial_reports(self, tmp_path):
        odd = np.array([-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2,
                        -1.5, 2.0 ** 60, 1.0 / 3.0])
        rng = np.random.default_rng(7)
        x2 = rng.choice(odd, 200)
        v = rng.choice(odd, 200)
        res = rng.choice(np.concatenate([odd, [np.nan, np.inf, -np.inf]]), 200)
        reports = [
            ResidualReport.from_grid('a,"quoted" label', Points({"x2": x2, "v": v}),
                                     res, 1e-8),
            ResidualReport.from_grid("plain", Points({"v": odd, "chi": odd[::-1]}),
                                     odd * -1.0, 1e-8),
            ResidualReport.from_grid("empty", Points({"v": np.array([])}),
                                     np.array([]), 1e-8),
            ResidualReport.from_grid("no-coords",
                                     Points({"theta1": np.array([1.0, 2.0, 3.0, 4.0])}),
                                     np.array([np.nan, -0.0, 0.0, 1e-5]), 1e-8),
            ResidualReport.from_grid("line\r\nbreak", Points({"x1": odd[:2]}),
                                     odd[:2], 1e-8),
        ]
        got = self.assert_matches_reference(tmp_path, reports).decode()
        assert '\r\n"a,""quoted"" label",,' in got
        assert "\r\nno-coords,,,,,,,nan\r\n" in got
        assert "empty" not in got
        blocks = reports[0].csv_rows(cli.CSV_COLUMNS)
        assert isinstance(blocks, list) and len(blocks) == 1
        assert blocks[0].count("\r\n") == 200 and blocks[0].endswith("\r\n")
        assert got.split("\r\n", 1)[1].startswith(blocks[0])
        assert "".join(reports[2].csv_rows(cli.CSV_COLUMNS)) == ""

    @settings(max_examples=150, deadline=None)
    @given(report_runs())
    def test_drawn_reports_match_reference(self, reports):
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_matches_reference(Path(tmp), reports)
        for rep in reports:
            blocks = rep.csv_rows(cli.CSV_COLUMNS)
            if isinstance(rep.points, Points):
                # one block, from the text the points keep per layout
                text = rep.points.coordinate_text(cli.CSV_COLUMNS)
                assert text is rep.points.coordinate_text(list(cli.CSV_COLUMNS))
                assert len(text) == rep.points.size and len(blocks) == 1
            else:  # one block per point of the outer half of the nest axes
                shape = rep.points.shape
                assert len(blocks) == math.prod(shape[:len(shape) // 2])

    def test_blocks_of_a_large_grid_are_short(self):
        # no string holds more than a tenth of a 10^4 x 4 report's rows,
        # whichever axes its values read
        grid = Grid.build({**{n: (0.5, 1.5, 10) for n in ("x1", "x2", "x3", "v")},
                           "y5": (0.5, 1.5, 4)})
        for reads in ((), ("x2",), ("v",), ("x1", "v"), grid.names):
            n = math.prod(10 if name != "y5" else 4 for name in reads)
            rep = ResidualReport.from_grid("eq", grid, np.linspace(0.0, 1.0, n),
                                           1e-8, frozenset(reads))
            blocks = rep.csv_rows(cli.CSV_COLUMNS)
            assert sum(b.count("\r\n") for b in blocks) == grid.size
            assert max(b.count("\r\n") for b in blocks) <= grid.size // 10

    def test_joined_blocks_of_a_report_reading_every_axis(self, tmp_path):
        grid = Grid.build({"v": (-0.0, 1.0, 3), "x2": (0.5, 1.5, 4),
                           "p": (0.0, 1.0, 2), "x1": (-1.0, 0.0, 2)}
                          ).sampled("chi", (0.0, -0.0))
        values = np.random.default_rng(3).normal(size=grid.size)
        values[::7] = -0.0
        rep = ResidualReport.from_grid("all", grid, values, 1e-8,
                                       frozenset(grid.names))
        got = self.assert_matches_reference(tmp_path, [rep]).decode()
        assert "".join(rep.csv_rows(cli.CSV_COLUMNS)) == got.split("\r\n", 1)[1]

    def test_shared_coordinate_text_keeps_signed_zeros(self, tmp_path, monkeypatch):
        v = Points({"v": np.array([0.0, 1.0, 2.0])})
        signed = Points({"v": np.array([-0.0, 1.0, 2.0])})
        res = np.array([1e-3, 0.0, -0.0])
        reports = [ResidualReport.from_grid(label, points, res, 1e-8)
                   for label, points in (("a", v), ("b", v), ("c", signed),
                                         ("d", signed), ("e", v))]
        reports.append(ResidualReport.from_grid(
            "f", Points({"x2": v.cols["v"]}), res, 1e-8))
        # one Points builds its text once per layout, for all its reports,
        # however they are ordered and however often they are written
        built = []
        text = Points._text
        monkeypatch.setattr(Points, "_text",
                            lambda pts, key: built.append(pts) or text(pts, key))
        got = self.assert_matches_reference(tmp_path, reports).decode()
        self.assert_matches_reference(tmp_path, reports)
        assert built == [v, signed, reports[-1].points]
        assert "\r\nc,,,,-0.0,,,0.001\r\n" in got
        assert "\r\ne,,,,0.0,,,0.001\r\n" in got
        v.coordinate_text(["v"])
        assert built[-1] is v and len(built) == 4

    def test_reports_of_different_lengths_on_one_mapping(self, tmp_path):
        # reports on different points never share text, even when their
        # columns start alike
        reports = [ResidualReport.from_grid("one", Points({"v": np.array([1.0])}),
                                            np.array([0.5]), 1e-8),
                   ResidualReport.from_grid("three",
                                            Points({"v": np.array([1.0, 1.0, 1.0])}),
                                            np.array([1.0, -0.0, 2.0]), 1e-8)]
        got = self.assert_matches_reference(tmp_path, reports).decode()
        assert got.count("\r\nthree,,,,1.0,,,") == 3

    def test_real_reports(self, tmp_path, monkeypatch):
        captured = []
        write_csv = cli._write_csv

        def spy(path, reports):
            captured.append(list(reports))
            write_csv(path, reports)

        monkeypatch.setattr(cli, "_write_csv", spy)
        recipe = write(tmp_path, "recipe.json", vacuum_recipe())
        metric = str(tmp_path / "metric.json")
        assert cli.main(["generate", "--config", recipe, "--out", metric]) == 0
        vcfg = write(tmp_path, "verify.json",
                     {"metric": metric, "grid": GRID5Y, "tolerance": 1e-8})
        assert cli.main(["verify", "--config", vcfg,
                         "--out", str(tmp_path / "v.csv")]) == 0
        fcfg = write(tmp_path, "flow.json", TestFlow().flow_cfg())
        assert cli.main(["flow", "--config", fcfg,
                         "--out", str(tmp_path / "f.csv")]) == 0
        seed = write(tmp_path, "seed.json", flat_seed_doc())
        gcfg = write(tmp_path, "ger.json", {
            "seed": seed, "xi": ["0.7", "0.2", "0", "0.4"], "theta": 0.3,
            "potentials": flat_potentials_doc(), "grid": GRID4,
            "tolerance": 1e-8})
        assert cli.main(["geroch", "--config", gcfg,
                         "--out", str(tmp_path / "t.json"),
                         "--report", str(tmp_path / "g.csv")]) == 0
        monkeypatch.undo()
        assert len(captured) == 3
        assert any("chi" in rep.points.names for rep in captured[1])
        for reports in captured:
            self.assert_matches_reference(tmp_path, reports)


@st.composite
def axis_reports(draw):
    """Up to three reports on one grid (``grids``: the coordinates and a name
    outside the CSV columns); each report on random expressions of a random
    subset of the grid's names, sometimes with a structural zero."""
    grid = draw(grids())
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        reads = draw(st.lists(st.sampled_from(grid.names), min_size=1, unique=True))
        exprs = RandomExprs(reads, seed=draw(st.integers(0, 2 ** 16))).sample(
            draw(st.integers(0, 3)), depth=2)
        groups.append(exprs + [ex.ZERO] * draw(st.integers(0, 1)))
    return grid, groups


class TestAxisReports:
    """Reports evaluated on the axes they read equal full-grid evaluation."""

    @settings(max_examples=100, deadline=None)
    @given(axis_reports())
    def test_sub_grid_reports_match_full_grid(self, drawn):
        grid, groups = drawn
        reports = [grid_report(f"r{k}", exprs, grid, 1e-8)
                   for k, exprs in enumerate(groups)]
        for rep, exprs in zip(reports, groups):
            rows = evaluate_on_grid(exprs, grid.arrays())
            want = (np.max(np.abs(rows), axis=0) if exprs
                    else np.zeros(grid.size))
            assert rep.residuals.tobytes() == want.tobytes()
            # max_abs, mean_abs and worst_at as on the full-grid values
            full = ResidualReport.from_grid(rep.equation, grid, want, 1e-8,
                                            frozenset(grid.names))
            assert (json.dumps(rep.summary_dict())
                    == json.dumps(full.summary_dict()))
        # the reports keep their grid, so they share its coordinate text
        assert all(rep.points is grid for rep in reports)
        with tempfile.TemporaryDirectory() as tmp:
            TestCsvWriter().assert_matches_reference(Path(tmp), reports)
