#!/usr/bin/env python3
"""Record reference.json: the outputs the CLI workloads are checked against.

    python3 perfbench/record.py

Runs every seed-drawable variant of grid-verify and families once with the
nhgeo in ./src, requires each to return its documented exit code, and
stores its fingerprints (see checks.py). Re-record only when an output is
meant to change, and say so where the change is described.
"""

import contextlib
import io
import json
import shutil
import sys

from checks import csv_reference, doc_reference
from run import HERE, SRC, WORK, import_nhgeo
from workloads import Families, GridVerify


def record(workload, nh):
    out = {}
    for variant in workload.variants():
        op = workload.op(variant)
        op.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            code = op.run()
        if code != op.expect:
            raise SystemExit(f"{workload.name} {variant}: exit code {code}, "
                             f"expected {op.expect}")
        entry = {}
        if op.csv:
            entry["csv"] = csv_reference(op.csv)
        if op.doc:
            entry["doc"] = doc_reference(op.doc, nh.expr)
        out[workload.key(variant)] = entry
        print(f"{workload.name} {workload.key(variant)}: exit {code}", file=sys.stderr)
    return out


def main():
    sys.path.insert(0, str(SRC))
    workdir = WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        nh = import_nhgeo()
        reference = {}
        for cls in (GridVerify, Families):
            workload = cls(0, workdir, {})
            with contextlib.redirect_stdout(io.StringIO()):
                workload.setup(nh)
            reference[cls.name] = record(workload, nh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
