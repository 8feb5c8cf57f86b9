"""The runnable demos in scripts/ run to completion against the library, the
benchmark's span tracer still names functions the library has, and the
benchmark-pair summary computes its statistics."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["vacuum_demo.py", "flow_demo.py",
                                  "transform_demo.py"])
def test_demo_exits_0(tmp_path, name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_tracer_targets_resolve():
    # the traced benchmark run wraps each module.name of TARGETS; a rename in
    # the library would break that run without failing any other test
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, funcs in tracer.TARGETS.items():
        mod = importlib.import_module(f"nhgeo.{mod_name}")
        for qual in funcs:
            obj = mod
            for part in qual.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod_name}.{qual}")
    assert not missing


def test_bench_pairs_summary_of_canned_runs():
    # three pairs of one workload, as the last JSON lines of perfbench/run.py
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    line = ('{"correct": %s, "attempted": 100, "failed": %d, "metrics": {'
            '"setup_s": {"value": 0.07, "unit": "s"}, '
            '"ops_per_s": {"value": %r, "unit": "1/s"}, '
            '"op_p50_s": {"value": %r, "unit": "s"}, '
            '"peak_rss_mb": {"value": 50.0, "unit": "MB"}}}')
    canned = {("parent", 1): ("true", 0, 20.0, 0.05),
              ("change", 1): ("true", 0, 40.0, 0.02),
              ("parent", 2): ("true", 0, 25.0, 0.04),
              ("change", 2): ("true", 0, 33.0, 0.03),
              ("parent", 3): ("true", 0, 16.0, 0.06),
              ("change", 3): ("false", 2, 16.0, 0.025)}
    runs = [{"workload": "grid-verify", "seed": seed, "side": side,
             "minflt": 1000 * (seed + (side == "parent")),
             "result": json.loads(line % fields)}
            for (side, seed), fields in canned.items()]
    got = bench.summarize(runs)["grid-verify"]
    assert got["seeds"] == "1-3"
    assert got["correct_all"] == {"parent": True, "change": False}
    assert got["failed"] == {"parent": 0, "change": 2}
    op = got["op_p50_s"]
    assert op["parent"] == pytest.approx({"median": 0.05, "q1": 0.045, "q3": 0.055})
    assert op["change"] == pytest.approx({"median": 0.025, "q1": 0.0225, "q3": 0.0275})
    assert op["change_relative"] == pytest.approx(-0.5)
    assert op["change_better_pairs"] == 3 and op["pairs"] == 3
    # op_p50_s would be met, but a change run failed and was not correct
    assert not bench.claim_met(got, "op_p50_s")
    for correct, failed in ((True, {"parent": 0, "change": 2}),
                            (False, {"parent": 2, "change": 2})):
        assert not bench.claim_met(dict(got, correct_all={"change": correct},
                                        failed=failed), "op_p50_s")
    clean = dict(got, correct_all={"parent": True, "change": True},
                 failed={"parent": 2, "change": 2})
    assert bench.claim_met(clean, "op_p50_s") and not bench.claim_met(clean, "ops_per_s")
    # higher is better for ops_per_s; a tie is not a better pair
    assert got["ops_per_s"]["change_better_pairs"] == 2
    assert got["setup_s"]["change_better_pairs"] == 0
    assert got["setup_s"]["change_relative"] == 0.0
    assert got["minflt_per_op"]["parent"]["median"] == 30.0
    assert got["minflt_per_op"]["change_better_pairs"] == 3
