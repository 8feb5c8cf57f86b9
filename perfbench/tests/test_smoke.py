"""Smoke test of the benchmark harness: a minimal run of every workload.

    python3 -m pytest perfbench/tests -q

Each run is the real command with --seconds 1, so it performs one
operation (two when traced) after the set-ups.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, seed=1, cwd=ROOT, extra=()):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return lines[:-1], out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_reports_every_end_to_end_metric(workload):
    report, out = result(bench(workload, 0))
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert any(line.startswith("failed_ratio 0 ") for line in report)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_traced_run_reports_every_per_layer_metric(seed, tmp_path):
    spans = tmp_path / "spans.jsonl"
    report, out = result(bench("families", 1, seed, extra=("--spans", str(spans))))
    assert out["correct"] is True and out["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert out["metrics"]["trace.coverage"]["value"] > 0.97
    rebound = next(line for line in report if line.startswith("rebound "))
    # names bound with `from ... import` in other modules are wrapped too
    for binding in ("cli.curvature_ricci", "cli.evaluate_on_grid",
                    "ricci_flow.coordinate_lc_ricci"):
        assert binding in rebound.split()
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert len(records) == round(out["metrics"]["trace.spans"]["value"]
                                 * out["attempted"] / 2)
    assert {"op", "name", "start", "end", "parent"} == set(records[0])
    assert {r["name"] for r in records if r["parent"] is None} == {"cli.main"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("families", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
