#!/usr/bin/env python3
"""nhgeo benchmark: runs one workload in this process.

    python3 perfbench/run.py --workload {grid-verify,symbolic-lc,families}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nhgeo is imported from ./src. The
seed draws the workload's inputs; the loop runs operations for S seconds of
wall time (at least one) and checks every operation's output. It prints a
readable report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s, ops_per_s, op_p50_s and
peak_rss_mb. setup_s is the median of the set-ups made during the run (a
fresh nhgeo import, the workload's inputs and a warm-up), spread between
its operations; later operations use the latest import. --trace 1 runs each operation twice, untraced and then traced,
and reports the per-layer metrics of tracer.py (means per traced
operation), the tracing overhead and the coverage check.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
# a traced run fails when the root spans of any operation cover less of its
# wall time
COVERAGE_MIN = 0.97
MODULES = ("cli", "serialize", "expr", "numerics", "geometry", "generators",
           "ricci_flow", "geroch")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("grid-verify", "symbolic-lc", "families"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", metavar="FILE",
                   help="with --trace 1, also write every span to FILE as JSON lines")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_nhgeo():
    """A fresh import of every nhgeo module from ./src."""
    for name in [m for m in sys.modules if m == "nhgeo" or m.startswith("nhgeo.")]:
        del sys.modules[name]
    nh = SimpleNamespace(**{m: importlib.import_module(f"nhgeo.{m}") for m in MODULES})
    if not Path(nh.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported nhgeo from {nh.cli.__file__}, not from {SRC}")
    return nh


def run_op(op, tracer=None):
    """Run one operation; returns (seconds, error message or None). Each
    operation starts from an emptied collector, so garbage left by earlier
    operations does not land in its time."""
    op.clear()
    gc.collect()
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer:
            tracer.begin()
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:                 # an operation that raises has failed
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end(elapsed, sum(os.path.getsize(p) for p in op.csv_paths
                                    if os.path.exists(p)))
    if error is None:
        try:
            op.check(result)
        except Exception:                 # CheckFailed, or a malformed output
            error = traceback.format_exc(limit=2)
    return elapsed, error


def tail(latencies):
    """The latency at the highest percentile that leaves ten operations
    beyond it, with that percentile; None unless that percentile lies above
    the median (more than 20 operations)."""
    n = len(latencies)
    if n <= 20:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def run_workload(args, workdir):
    """Set-ups, then the closed loop; returns the report lines and the result."""
    from workloads import WORKLOADS
    from tracer import Tracer

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, workdir, reference)
    wl.prepare()

    setups = []

    def set_up():
        """A fresh nhgeo import plus the workload's set-up, timed."""
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            nh = import_nhgeo()
            wl.setup(nh)
            setups.append(time.perf_counter() - start)
        return nh

    # The set-ups are spread over the run, between operations, so that
    # setup_s samples the machine over the same span of time as the
    # operations do. A traced run sets up once: the tracer wraps the modules
    # of one import, and it reports no setup_s.
    repeats = 1 if args.trace else SETUP_REPEATS
    nh = set_up()
    tracer = Tracer(vars(nh)) if args.trace else None
    plain, traced, errors = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        op = wl.next_op()
        for tr in ((None, tracer) if tracer else (None,)):
            elapsed, error = run_op(op, tr)
            (traced if tr else plain).append(elapsed)
            if error:
                errors.append(error)
        now = time.perf_counter()
        if now >= deadline:
            break
        while len(setups) < 1 + (repeats - 1) * (now - start) / (deadline - start):
            nh = set_up()
            deadline += setups[-1]
            now += setups[-1]
    while len(setups) < repeats:
        set_up()

    attempted = len(plain) + len(traced)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
             f"  trace {args.trace}  operations {attempted}  failed {len(errors)}"]
    lines += [f"FAILED {e.strip().splitlines()[-1]}" for e in errors[:5]]
    metrics = end_to_end(setups, plain, errors, attempted, lines)
    correct = not errors
    if tracer:
        metrics, worst = per_layer(tracer, plain, traced, lines)
        if worst < COVERAGE_MIN:
            correct = False
            lines.append("FAILED coverage check")
        if args.spans:
            tracer.write_spans(args.spans)
    result = {"correct": correct, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, result


def end_to_end(setups, plain, errors, attempted, lines):
    """The end-to-end metrics of BENCHMARK.json; failed_ratio and op_tail_s
    only go to the report lines, since the first is 0 on a correct run and
    the second needs more than 20 operations."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    units.update(op_tail_s="s", failed_ratio="ratio")
    t = tail(plain)
    report = {
        "setup_s": (statistics.median(setups),
                    f"median of {SETUP_REPEATS} set-ups, min {min(setups):.4g}, "
                    f"max {max(setups):.4g}"),
        "ops_per_s": (len(plain) / sum(plain), f"{len(plain)} operations"),
        "op_p50_s": (statistics.median(plain),
                     f"n={len(plain)}, min {min(plain):.4g}, max {max(plain):.4g}"),
        "op_tail_s": (t[0], f"p{t[1]:.1f}, n={len(plain)}") if t else
                     (None, f"undefined: {len(plain)} operations, needs 21"),
        "failed_ratio": (len(errors) / attempted, f"{len(errors)}/{attempted}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "whole process"),
    }
    for k, (v, note) in report.items():
        lines.append(f"{k} {'-' if v is None else format(v, '.6g')} {units[k]}  ({note})")
    return {m["name"]: (report[m["name"]][0], m["unit"]) for m in SPEC["end_to_end"]}


def per_layer(tracer, plain, traced, lines):
    """The per-layer metrics, the tracing overhead and the coverage check;
    returns the metrics and the lowest coverage of a single operation."""
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = tracer.layer_metrics()
    walls = sum(op["wall"] for op in tracer.ops)
    layers.update({
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
        "trace.op_s": walls / len(tracer.ops),
        "trace.coverage": sum(op["roots"] for op in tracer.ops) / walls,
        "trace.spans": sum(op["spans"] for op in tracer.ops) / len(tracer.ops),
    })
    worst = min(op["roots"] / op["wall"] for op in tracer.ops)
    lines.append(f"traced op_p50_s {statistics.median(traced):.6g} s  coverage "
                 f"{layers['trace.coverage']:.4f} (root spans / op wall time; lowest "
                 f"single operation {worst:.4f}, minimum {COVERAGE_MIN})")
    lines.append("rebound " + " ".join(sorted(tracer.rebound)))
    for k, v in sorted(layers.items()):
        share = ""
        if k.endswith("_s") and not k.startswith("trace."):
            share = f"  share {v / layers['trace.op_s']:.4f}"
        lines.append(f"{k} {v:.6g} {units[k]}{share}")
    return {k: (v, units[k]) for k, v in sorted(layers.items())}, worst


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nhgeo" / "__init__.py").is_file():
        print(f"error: no nhgeo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        lines, result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
