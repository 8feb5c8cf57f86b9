#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarized.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json
        [--pairs 10] [--seed 1] [--label L] [--note TEXT]
        [--claim WORKLOAD:METRIC]

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once in each checkout, for every workload of BENCHMARK.json and
its run_seconds S, with PYTHONDONTWRITEBYTECODE=1; the parent runs first in even pairs and the change
in odd ones. The result of a run is its last output line. The summary gives,
per workload and end-to-end metric of BENCHMARK.json, the median and
quartiles of each side, the change's median relative to the parent's and the
number of pairs in which the change did better; a claimed metric is met
when the change did better in nine tenths of the pairs, the medians differ
by more than the parent's quartile spread, every change run is correct and
the change failed no more operations than the parent. It also reports the
minor page faults per operation of each run's process (set-ups included),
which is not one of the benchmark's metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """The result line of one benchmark run and the minor faults of its
    process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return json.loads(done.stdout.strip().splitlines()[-1]), faults


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs, lower_is_better):
    """Quartiles of each side over ``pairs`` ({side: value} per pair), the
    change's median relative to the parent's and the pairs it did better in."""
    out = {side: quartiles([p[side] for p in pairs]) for side in SIDES}
    out["change_relative"] = out["change"]["median"] / out["parent"]["median"] - 1.0
    out["change_better_pairs"] = sum(
        (p["change"] < p["parent"]) == lower_is_better and p["change"] != p["parent"]
        for p in pairs)
    out["pairs"] = len(pairs)
    return out


def summarize(runs):
    """The summary of run records (workload, seed, side, result, minflt)
    per workload: one pair per seed."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        seeds = sorted({r["seed"] for r in mine})
        by = {(r["seed"], r["side"]): r for r in mine}
        pairs = [{side: by[s, side] for side in SIDES} for s in seeds]
        entry = {"seeds": f"{seeds[0]}-{seeds[-1]}",
                 "correct_all": {side: all(p[side]["result"]["correct"] for p in pairs)
                                 for side in SIDES},
                 "failed": {side: sum(p[side]["result"]["failed"] for p in pairs)
                            for side in SIDES}}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            entry[name] = compare(
                [{side: p[side]["result"]["metrics"][name]["value"] for side in SIDES}
                 for p in pairs], metric["better"] == "lower")
        entry["minflt_per_op"] = compare(
            [{side: p[side]["minflt"] / p[side]["result"]["attempted"] for side in SIDES}
             for p in pairs], True)
        summary[workload] = entry
    return summary


def claim_met(entry, metric):
    """The gain rule for ``metric`` of a workload's summary ``entry``: every
    change run is correct, the change failed no more operations than the
    parent, it did better in at least nine tenths of the pairs, and the
    medians differ by more than the parent's quartile spread."""
    m, parent = entry[metric], entry[metric]["parent"]
    return (entry["correct_all"]["change"]
            and entry["failed"]["change"] <= entry["failed"]["parent"]
            and m["change_better_pairs"] >= 0.9 * m["pairs"]
            and abs(m["change"]["median"] - parent["median"])
            > parent["q3"] - parent["q1"])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True, help="summary JSON path")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--label", default="")
    p.add_argument("--note", default="", help="what the change is")
    p.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    seconds, runs = SPEC["run_seconds"], []
    for i in range(args.pairs):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for k, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                result, faults = run_once(checkouts[side], workload,
                                          args.seed + i, seconds)
                runs.append({"workload": workload, "seed": args.seed + i,
                             "seconds": seconds, "side": side,
                             "ran_first": k == 0, "minflt": faults, "result": result})
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
    summary, claim = summarize(runs), None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric,
                 "met": claim_met(summary[workload], metric)}
    doc = {"label": args.label, "change": args.note, "claim": claim,
           "command": f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {seconds} --trace 0",
           "protocol": "pairs of one parent run and one change run, each from its "
                       "own checkout, PYTHONDONTWRITEBYTECODE=1; the side that runs "
                       "first alternates from pair to pair; result is the run's last "
                       "JSON line; minflt is the run process's minor page faults "
                       "(getrusage), reported and not claimed",
           "machine": f"{os.cpu_count()}-CPU {platform.machine()}, Python "
                      f"{platform.python_version()}, numpy {version('numpy')}",
           "summary": summary, "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
