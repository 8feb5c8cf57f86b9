"""Output checks for the CLI workloads, against references in reference.json.

A CSV report passes when
  * its header line is byte-identical to the reference,
  * every row outside its residual field (equation, coordinate columns,
    separators and line terminator) is byte-identical, compared through one
    SHA-256 digest over all rows,
  * every residual is within ATOL + RTOL * |reference| of the reference.
References store residuals sparsely: entries with |r| <= QUANTUM are stored
as 0, which moves them by far less than ATOL.

The tolerances let a legitimate rewrite (a different expression tree, a
different quadrature rule) move residuals at the round-off level, while any
change of a residual's leading digits still fails.

A metric document passes when its chart and provenance match and each of
its expressions evaluates, at fixed points, to within the same tolerance of
the reference. Provenance's "recipe" key is left out: it hashes the printed
form of the parsed recipe, which a legitimate tree rewrite may change.
"""

import hashlib
import json
from array import array

import numpy as np

ATOL = 1e-10
RTOL = 1e-6
QUANTUM = 1e-13

# points at which metric-document expressions are compared; every family
# used by the benchmark is regular on [0.5, 1.5]^5
DOC_POINTS = (
    {"x1": 0.8, "x2": 0.9, "x3": 1.1, "v": 1.2, "y5": 0.7},
    {"x1": 1.3, "x2": 1.25, "x3": 0.6, "v": 0.85, "y5": 1.4},
)
DOC_BLOCKS = ("g", "h", "N")


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def _scan_csv(path):
    digest = hashlib.sha256()
    residuals = array("d")
    with open(path, "rb") as fh:
        header = fh.readline()
        for line in fh:
            key, _, rest = line.rpartition(b",")
            value = rest.rstrip(b"\r\n")
            digest.update(key + b"," + rest[len(value):])
            residuals.append(float(value))
    return header.decode(), digest.hexdigest(), np.frombuffer(residuals, dtype=float)


def csv_reference(path) -> dict:
    header, digest, res = _scan_csv(path)
    big = np.flatnonzero(np.abs(res) > QUANTUM)
    return {"header": header, "rows": int(res.size), "key_sha256": digest,
            "residuals": [[int(i), float(res[i])] for i in big]}


def _close(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= ATOL + RTOL * np.abs(want)


def compare_csv(path, ref: dict) -> None:
    header, digest, res = _scan_csv(path)
    if header != ref["header"]:
        raise CheckFailed(f"{path}: header {header!r} != {ref['header']!r}")
    if res.size != ref["rows"]:
        raise CheckFailed(f"{path}: {res.size} rows, reference has {ref['rows']}")
    if digest != ref["key_sha256"]:
        raise CheckFailed(f"{path}: equation/coordinate columns differ from the reference")
    want = np.zeros(res.size)
    for i, v in ref["residuals"]:
        want[i] = v
    bad = ~_close(res, want)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"{path}: residual row {i + 1} is {res[i]!r}, "
                          f"reference {want[i]!r} ({int(bad.sum())} rows differ)")


def _doc_values(doc, ex) -> dict:
    chart = doc["chart"]
    names = tuple(chart["x"]) + tuple(chart["y"]) + tuple(chart.get("params", ()))
    points = [{k: p[k] for k in names} for p in DOC_POINTS]
    exprs = {f"{blk}[{i}][{j}]": src for blk in DOC_BLOCKS
             for i, row in enumerate(doc[blk]) for j, src in enumerate(row)}
    exprs.update({f"excluded[{k}]": src for k, src in enumerate(doc.get("excluded", ()))})
    return {path: [float(ex.evaluate(ex.parse(src, names), p)) for p in points]
            for path, src in exprs.items()}


def _doc_fixed(doc) -> dict:
    prov = {k: v for k, v in doc.get("provenance", {}).items() if k != "recipe"}
    reports = [{k: r[k] for k in ("equation", "pass", "points")}
               for r in doc.get("family_reports", ())]
    return {"chart": doc["chart"], "provenance": prov, "family_reports": reports}


def doc_reference(path, ex) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {**_doc_fixed(doc), "values": _doc_values(doc, ex),
            "report_max_abs": [r["max_abs"] for r in doc.get("family_reports", ())]}


def compare_doc(path, ref: dict, ex) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fixed = _doc_fixed(doc)
    for key, want in fixed.items():
        if want != ref[key]:
            raise CheckFailed(f"{path}: {key} {want!r} != reference {ref[key]!r}")
    values = _doc_values(doc, ex)
    if values.keys() != ref["values"].keys():
        raise CheckFailed(f"{path}: expression layout differs from the reference")
    for key, want in ref["values"].items():
        if not _close(values[key], want).all():
            raise CheckFailed(f"{path}: {key} evaluates to {values[key]}, "
                              f"reference {want}")
    got = [r["max_abs"] for r in doc.get("family_reports", ())]
    if not _close(got, ref["report_max_abs"]).all():
        raise CheckFailed(f"{path}: family report maxima {got} != {ref['report_max_abs']}")
