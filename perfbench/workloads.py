"""The benchmark's workloads: grid-verify, symbolic-lc and families.

Each is a closed loop with one client: the next operation starts when the
previous one returns. A workload object offers

    prepare()      benchmark-side work outside the timed set-up
                   (the sympy oracle of symbolic-lc);
    setup(nh)      the work setup_s times after the nhgeo import: writing
                   the inputs, generating metric documents, a warm-up;
    next_op()      the next operation.

An operation offers run() (the timed call into nhgeo), check(result), which
raises CheckFailed, clear(), which removes its outputs before it runs, and
csv_paths.

The seed draws numeric parameters only, from the menus below. Every menu
entry keeps its recipe's documented verdict, and reference.json holds the
output recorded for each entry (perfbench/record.py writes it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from checks import CheckFailed, compare_csv, compare_doc

HERE = Path(__file__).resolve().parent
JOBS = str(min(2, os.cpu_count() or 1))


def _axes(names, lo=0.5, hi=1.5, count=4):
    return {n: {"min": lo, "max": hi, "count": count} for n in names}


def _write(path, payload) -> str:
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def readme_recipe(n2=("1", "1", "1"), upsilon2="0"):
    """The README's gensol1_5d recipe on a 4^4 grid."""
    return {
        "family": "gensol1_5d", "signatures": [1, 1, 1, 1, 1],
        "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v", "f0": "0",
                      "h0": "1", "varsigma0": "1",
                      "n2_1": n2[0], "n2_2": n2[1], "n2_3": n2[2]},
        "source": {"upsilon2": upsilon2, "upsilon4": "0"},
        "v0": 1.0, "grid": _axes(("x1", "x2", "x3", "v")), "tolerance": 1e-8,
    }


class CliOp:
    """One `nhgeo` command run in-process through nhgeo.cli.main(argv)."""

    def __init__(self, kind, cli, ex, argv, expect, csv=None, csv_ref=None,
                 doc=None, doc_ref=None):
        self.kind, self.cli, self.ex, self.argv = kind, cli, ex, argv
        self.expect, self.csv, self.csv_ref = expect, csv, csv_ref
        self.doc, self.doc_ref = doc, doc_ref

    @property
    def csv_paths(self):
        return [self.csv] if self.csv else []

    def clear(self):
        for path in (self.csv, self.doc):
            if path and os.path.exists(path):
                os.remove(path)

    def run(self):
        return self.cli.main(self.argv)

    def check(self, code):
        if code != self.expect:
            raise CheckFailed(f"{self.kind}: exit code {code}, expected {self.expect}")
        for path, ref in ((self.csv, self.csv_ref), (self.doc, self.doc_ref)):
            if path and ref is None:
                raise CheckFailed(f"{self.kind}: reference.json has no entry for {path}")
        if self.csv:
            compare_csv(self.csv, self.csv_ref)
        if self.doc:
            compare_doc(self.doc, self.doc_ref, self.ex)


# ---------------------------------------------------------------------------
# grid-verify
# ---------------------------------------------------------------------------

class GridVerify:
    """`nhgeo verify` of the README vacuum metric on a 10^4 x 4 grid."""

    name = "grid-verify"
    # Boxes whose reports are within 2% of each other in CSV size, so every
    # seed formats the same amount of text. Boxes with a step of 0.1, such as
    # (0.5, 1.4), print shorter coordinates and write half as many bytes.
    BOXES = ((0.5, 1.5), (0.5, 1.45), (0.65, 1.5), (0.55, 1.5))
    ORACLE_SEEDS = (0, 1, 2, 3)

    def __init__(self, seed, workdir, reference):
        rng = np.random.default_rng(seed)
        self.variant = (int(rng.integers(len(self.BOXES))),
                        int(rng.integers(len(self.ORACLE_SEEDS))))
        self.workdir = Path(workdir)
        self.reference = reference.get(self.name, {})

    @classmethod
    def variants(cls):
        return [(b, s) for b in range(len(cls.BOXES))
                for s in range(len(cls.ORACLE_SEEDS))]

    @staticmethod
    def key(variant):
        return f"box{variant[0]}/seed{variant[1]}"

    def prepare(self):
        pass

    def setup(self, nh):
        self.nh = nh
        wd = self.workdir
        recipe = _write(wd / "recipe.json", readme_recipe())
        self.metric = str(wd / "metric.json")
        if nh.cli.main(["generate", "--config", recipe, "--out", self.metric]) != 0:
            raise RuntimeError("grid-verify: generating the metric document failed")
        warm = _write(wd / "warm.json", {
            "metric": self.metric, "tolerance": 1e-8,
            "grid": _axes(("x1", "x2", "x3", "v", "y5"), count=2)})
        code = nh.cli.main(["verify", "--config", warm, "--out",
                            str(wd / "warm.csv"), "--jobs", JOBS])
        if code != 0:
            raise RuntimeError(f"grid-verify: warm-up exit code {code}")

    def op(self, variant):
        lo, hi = self.BOXES[variant[0]]
        grid = {**_axes(("x1", "x2", "x3", "v"), lo, hi, 10),
                "y5": {"min": lo, "max": hi, "count": 4}}
        cfg = _write(self.workdir / "verify.json", {
            "metric": self.metric, "grid": grid, "tolerance": 1e-8,
            "checks": ["ricci", "oracles"]})
        out = str(self.workdir / "verify.csv")
        argv = ["verify", "--config", cfg, "--out", out, "--jobs", JOBS,
                "--seed", str(self.ORACLE_SEEDS[variant[1]])]
        return CliOp(self.name, self.nh.cli, self.nh.expr, argv, 0, csv=out,
                     csv_ref=self.reference.get(self.key(variant), {}).get("csv"))

    def next_op(self):
        return self.op(self.variant)


# ---------------------------------------------------------------------------
# symbolic-lc
# ---------------------------------------------------------------------------

LC_POINTS = 3          # sample points per operation, as in the unit test
LC_CASES = 4           # coefficient sets drawn per run
ORACLE_TOL = 1e-9      # |engine - oracle| <= ORACLE_TOL * (1 + |oracle|)
AGREE_TOL = 1e-11      # frame vs transformed coordinate Ricci, as in the test


def lc_metric(nh, c):
    """The lean LC metric of test_lc_engine_matches_coordinate_computation
    with its seven coefficients drawn by the seed (w and n both active, x-
    and v-dependence in every sector)."""
    ex, geo = nh.expr, nh.geometry
    x2, x3, v = ex.var("x2"), ex.var("x3"), ex.var("v")
    g = geo.DMetric.diagonal(
        [1, ex.exp(ex.mul(c[0], x2)), ex.add(1, ex.mul(c[1], x3))],
        [ex.add(1, ex.mul(c[2], v ** 2)), ex.add(2, ex.mul(c[3], x2, v))])
    n = geo.NConnection.build(
        [[0, 0], [ex.mul(c[4], v, x2), ex.mul(c[5], v ** 2)],
         [0, ex.mul(c[6], x3)]])
    return g, n


class LcOp:
    """lc_decomposition -> curvature_ricci -> coordinate_lc_ricci ->
    adapted_from_coordinate, then the frame/coordinate agreement check at
    the sample points."""

    csv_paths = ()

    def __init__(self, nh, coeffs, points, oracle):
        self.nh, self.coeffs, self.points, self.oracle = nh, coeffs, points, oracle

    def clear(self):
        pass

    def run(self):
        ex, geo = self.nh.expr, self.nh.geometry
        chart = geo.chart_5d()
        g, n = lc_metric(self.nh, self.coeffs)
        lc = geo.lc_decomposition(g, n, chart)
        frame = geo.curvature_ricci(lc, g, n, chart)
        coord = geo.coordinate_lc_ricci(g, n, chart)
        trans = geo.adapted_from_coordinate(coord, chart, n)
        comps = [ex.sub(frame.ricci[b][t], trans[b][t])
                 for b in range(5) for t in range(5)]
        worst = max(abs(v) for p in self.points for v in ex.evaluate_many(comps, p))
        return frame, worst

    def check(self, result):
        frame, worst = result
        if not worst < AGREE_TOL:
            raise CheckFailed(f"symbolic-lc: frame and coordinate Ricci differ by {worst}")
        comps = [frame.ricci[b][t] for b in range(5) for t in range(5)]
        for p, want in zip(self.points, self.oracle):
            got = np.array(self.nh.expr.evaluate_many(comps, p)).reshape(5, 5)
            want = np.asarray(want)
            err = np.abs(got - want) / (1.0 + np.abs(want))
            if not err.max() <= ORACLE_TOL:
                raise CheckFailed(f"symbolic-lc: Ricci differs from the sympy "
                                  f"oracle by {err.max():.3e} at {p}")


class SymbolicLC:
    """The library pipeline of the lean LC unit test, checked against sympy."""

    name = "symbolic-lc"
    COEFF_RANGES = ((0.5, 1.5),) + ((0.1, 0.6),) * 6

    def __init__(self, seed, workdir, reference):
        self.rng = np.random.default_rng(seed)
        names = ("x1", "x2", "x3", "v", "y5")
        self.cases = []
        for _ in range(LC_CASES):
            coeffs = [float(self.rng.uniform(lo, hi)) for lo, hi in self.COEFF_RANGES]
            points = [dict(zip(names, map(float, self.rng.uniform(0.5, 1.5, 5))))
                      for _ in range(LC_POINTS)]
            self.cases.append((coeffs, points))

    def prepare(self):
        payload = {"cases": [{"coeffs": c, "points": [list(p.values()) for p in pts]}
                             for c, pts in self.cases]}
        proc = subprocess.run([sys.executable, str(HERE / "oracle.py")],
                              input=json.dumps(payload), capture_output=True,
                              text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"sympy oracle failed:\n{proc.stderr}")
        self.oracle = json.loads(proc.stdout)["ricci"]

    def setup(self, nh):
        self.nh = nh
        # warm-up: the same pipeline on a 2+1 chart
        ex, geo = nh.expr, nh.geometry
        chart = geo.Chart(("x2", "x3"), ("v",))
        x2, v = ex.var("x2"), ex.var("v")
        g = geo.DMetric.diagonal([ex.exp(x2), 1], [ex.add(1, ex.mul(0.5, v ** 2))])
        n = geo.NConnection.build([[ex.mul(0.2, v, x2)], [0]])
        geo.curvature_ricci(geo.lc_decomposition(g, n, chart), g, n, chart)
        geo.adapted_from_coordinate(geo.coordinate_lc_ricci(g, n, chart), chart, n)

    def next_op(self):
        k = int(self.rng.integers(LC_CASES))
        coeffs, points = self.cases[k]
        return LcOp(self.nh, coeffs, points, self.oracle[k])


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

GRID4 = _axes(("x2", "x3", "v", "y5"), count=3)
FLAT_SEED = {
    "chart": {"x": ["x2", "x3"], "y": ["v", "y5"], "params": []},
    "g": [["1", "0"], ["0", "1"]], "h": [["1", "0"], ["0", "1"]],
    "N": [["0", "0"], ["0", "0"]], "provenance": {"family": "flat"},
}


def _flat_potentials(xi):
    lam = sum(x * x for x in xi)
    c = (lam ** 2 - 1.0) / lam
    return {"omega": "0", "alpha": ["0"] * 4, "beta": ["0"] * 4,
            "mu": [repr(c * x) for x in xi]}


def _gen4d(n2):
    return {"family": "gensol1_4d", "signatures": [1, 1, 1, 1, 1],
            "functions": {"g2": "exp(x2)", "g3": "exp(x2)", "f": "v",
                          "n2_2": n2[0], "n2_3": n2[1]},
            "v0": 1.0, "grid": _axes(("x2", "x3", "v"))}


def _sourced_lc(lam):
    return {"family": "sourced_lc", "signatures": [1, 1, 1, 1],
            "functions": {"psi": f"{lam / 2!r}*x2^2", "h4": f"1/(1 + {lam!r}*v^2)",
                          "h5": "v^2", "n2": "0", "n3": "0"},
            "source": {"lambda": lam}, "grid": _axes(("x2", "x3", "v", "y5")),
            "tolerance": 1e-10}


def _flow_solrf1(c):
    return {"family": "flow_solrf1", "lambda": 0.0, "signatures": [1, 1, 1, 1, 1],
            "chi": {"min": 0.0, "max": 1.0, "count": 3},
            "functions": {"varpi": "exp(x2)", "h5": "v^2", "h0": "1",
                          "varsigma40": "1", "n1": f"{c!r}*x2", "n2": "0"},
            "v0": 1.0, "grid": {**_axes(("x1", "x2", "x3", "v"), count=3),
                                "y5": {"min": 0.5, "max": 1.5, "count": 2}},
            "tolerance": 1e-7}


def _flow_lc(n2):
    return {"family": "flow_lc", "lambda": 0.0, "signatures": [1, 1, 1, 1],
            "chi": [0.0, 1.0],
            "functions": {"psi": "x2", "h4": "1", "h5": "v^2",
                          "w2": "0", "w3": "0", "n2": repr(n2)},
            "grid": GRID4, "tolerance": 1e-8}


def _geroch_chain(seed_doc, xi, theta):
    return {"seed": seed_doc, "xi": [repr(x) for x in xi],
            "steps": [{"kind": "geroch", "theta": theta,
                       "potentials": _flat_potentials(xi)},
                      {"kind": "deform",
                       "polarizations": {"eta_h": ["2", "1"], "eta_v": ["1", "1"],
                                         "eta_n": [["1", "1"], ["1", "1"]]}}],
            "grid": GRID4, "tolerance": 1e-8}


# Menus the seed draws from, one entry per variant; each keeps the verdict
# in EXPECT. The sourced 5D verify fails by design (exit 1): S44+Y2 and R5i
# exceed tolerance under the README's first-order construction.
N2_5D = (("1", "1", "1"), ("0.5", "1", "2"), ("2", "0.5", "1"))
UPSILON2 = ("0.1", "0.2", "0.3")
N2_4D = (("1", "1"), ("0.5", "2"), ("2", "0.5"))
VACUUM_LC = (("x2", "v"), ("0.5*x2 + 0.3*x3", "2*v"), ("x3", "v + 0.5*x2"))
LAMBDAS = (0.25, 0.1, 0.4)
FLOW_N1 = (0.2, 0.1, 0.3)
FLOW_LC_N2 = (0.3, 0.2, 0.5)
XI = ((0.7, 0.2, 0.0, 0.4), (0.5, 0.3, 0.0, 0.6), (0.6, 0.1, 0.2, 0.3))
THETA = (0.0, 0.3, 0.5)
VARIANTS = 3

EXPECT = {"generate-5d": 0, "generate-5d-sourced": 0, "generate-4d": 0,
          "generate-vacuum-lc": 0, "generate-sourced-lc": 0, "verify-4d": 0,
          "verify-5d-sourced": 1, "verify-vacuum-lc": 0, "flow-solrf1": 0,
          "flow-lc": 0, "geroch-chain": 0}
# verify commands and the generate kind whose output each one reads
VERIFY_INPUTS = {"verify-4d": "generate-4d", "verify-5d-sourced": "generate-5d-sourced",
                 "verify-vacuum-lc": "generate-vacuum-lc"}


class Families:
    """A seeded-order mix of small-grid generate/verify/flow/geroch commands:
    each round runs one command of each kind in a shuffled order."""

    name = "families"
    KINDS = tuple(EXPECT)

    def __init__(self, seed, workdir, reference):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.reference = reference.get(self.name, {})
        self.queue = []

    @classmethod
    def variants(cls):
        return [(kind, j) for kind in cls.KINDS for j in range(VARIANTS)]

    @staticmethod
    def key(variant):
        return f"{variant[0]}/{variant[1]}"

    def prepare(self):
        pass

    def _configs(self, j):
        wd = self.workdir
        vacuum = readme_recipe(n2=N2_5D[j])
        sourced = readme_recipe(upsilon2=UPSILON2[j])
        psi, b = VACUUM_LC[j]
        grid5 = {**_axes(("x1", "x2", "x3", "v"), count=3),
                 "y5": {"min": 0.5, "max": 1.5, "count": 3}}
        inputs = {k: str(wd / f"input-{g}-{j}.json") for k, g in VERIFY_INPUTS.items()}
        return {
            "generate-5d": vacuum,
            "generate-5d-sourced": sourced,
            "generate-4d": _gen4d(N2_4D[j]),
            "generate-vacuum-lc": {
                "family": "vacuum_lc", "signatures": [1, 1, 1, 1],
                "functions": {"psi": psi, "b": b, "b0": "0", "n2": "0", "n3": "0"},
                "h0": 1.0, "grid": _axes(("x2", "x3", "v", "y5")), "tolerance": 1e-10},
            "generate-sourced-lc": _sourced_lc(LAMBDAS[j]),
            "verify-4d": {"metric": inputs["verify-4d"],
                          "grid": _axes(("x2", "x3", "v", "y5")), "tolerance": 1e-8,
                          "seed": j},
            "verify-5d-sourced": {
                "metric": inputs["verify-5d-sourced"],
                "grid": grid5, "tolerance": 1e-8, "seed": j,
                "source": {"upsilon2": UPSILON2[j], "upsilon4": "0"}},
            # the Levi-Civita group is opt-in; vacuum-LC metrics pass it
            "verify-vacuum-lc": {
                "metric": inputs["verify-vacuum-lc"],
                "grid": _axes(("x2", "x3", "v", "y5")), "tolerance": 1e-8,
                "seed": j, "checks": ["ricci", "oracles", "lc"]},
            "flow-solrf1": _flow_solrf1(FLOW_N1[j]),
            "flow-lc": _flow_lc(FLOW_LC_N2[j]),
            "geroch-chain": _geroch_chain(str(wd / "flat-seed.json"), XI[j], THETA[j]),
        }

    def setup(self, nh):
        self.nh = nh
        wd = self.workdir
        _write(wd / "flat-seed.json", FLAT_SEED)
        self.configs = {}
        for j in range(VARIANTS):
            for kind, cfg in self._configs(j).items():
                self.configs[kind, j] = _write(wd / f"{kind}-{j}.json", cfg)
            # the metric documents the verify commands read
            for kind in VERIFY_INPUTS.values():
                argv = ["generate", "--config", self.configs[kind, j],
                        "--out", str(wd / f"input-{kind}-{j}.json")]
                if nh.cli.main(argv) != 0:
                    raise RuntimeError(f"families: generating {kind}-{j} failed")
        for kind in self.KINDS:        # warm-up: one command of each kind
            self.op((kind, 0)).run()

    def op(self, variant):
        kind, j = variant
        wd, cfg = self.workdir, self.configs[variant]
        ref = self.reference.get(self.key(variant), {})
        command = kind.split("-")[0]
        if command == "generate":
            doc = str(wd / f"{kind}-{j}.metric.json")
            argv = ["generate", "--config", cfg, "--out", doc]
            return CliOp(kind, self.nh.cli, self.nh.expr, argv, EXPECT[kind],
                         doc=doc, doc_ref=ref.get("doc"))
        csv = str(wd / f"{kind}.csv")
        if command == "geroch":
            doc = str(wd / f"{kind}.metric.json")
            argv = ["geroch", "--config", cfg, "--out", doc, "--report", csv]
            return CliOp(kind, self.nh.cli, self.nh.expr, argv, EXPECT[kind],
                         csv=csv, csv_ref=ref.get("csv"), doc=doc,
                         doc_ref=ref.get("doc"))
        argv = [command, "--config", cfg, "--out", csv]
        if command == "verify":
            argv += ["--jobs", JOBS]
        return CliOp(kind, self.nh.cli, self.nh.expr, argv, EXPECT[kind],
                     csv=csv, csv_ref=ref.get("csv"))

    def next_op(self):
        if not self.queue:
            order = self.rng.permutation(len(self.KINDS))
            self.queue = [(self.KINDS[k], int(self.rng.integers(VARIANTS)))
                          for k in order]
        return self.op(self.queue.pop())


WORKLOADS = {w.name: w for w in (GridVerify, SymbolicLC, Families)}
