"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each nhgeo module from outside the
program. A module that imported a function with ``from ... import`` holds
its own binding, so every namespace of the nhgeo package that holds the
function is rebound, not only the defining module. Class methods are
patched on the class. install() and uninstall() bracket each traced
operation, so untraced operations run the unmodified program.

Each wrapped call on the main thread records a span (name, start, end,
parent span, operation id) in memory; write_spans() writes them out when
the run ends. A call whose innermost open span has the same name
(recursion through a public name, such as expr.diff) is counted but gets
no span of its own. adaptive_simpson is the exception: a quadrature nested
in another one's integrand (intv inside intv) is a call of its own, with
its own span, and only the call that re-enters with its own integrand
(b < a) passes through. Calls on other threads (the evaluate_on_grid pool)
are counted, quadratures and their integrand evaluations included, but get
no span: their time stays in the calling span, numerics.grid_eval_s, so
numerics.quad_s holds only the quadrature run on the main thread.

A span's self time is its duration minus the durations of its child spans.
Per operation, the self times of all spans add up to the duration of the
root spans; the coverage check compares that with the operation's wall
time measured around the call.
"""

import functools
import json
import threading
import time
from collections import Counter, defaultdict

# module -> {public function: (metric that receives its self time, call counter)}
TARGETS = {
    "cli": {"main": ("cli.self_s", None)},
    "serialize": {
        **{f: ("serialize.load_s", "serialize.calls") for f in (
            "load_json", "recipe_from_dict", "flow_recipe_from_dict",
            "grid_from_dict", "source_from_dict", "metric_from_dict",
            "chi_samples_from_dict", "parse_expr")},
        "metric_to_dict": ("serialize.dump_s", "serialize.calls"),
        "dump_json": ("serialize.dump_s", "serialize.calls"),
    },
    "expr": {
        "parse": ("expr.parse_s", "expr.parse_calls"),
        "simplify": ("expr.simplify_s", "expr.simplify_calls"),
        "diff": ("expr.diff_s", "expr.diff_calls"),
        "evaluate": ("expr.evaluate_s", "expr.evaluate_calls"),
        "evaluate_many": ("expr.evaluate_s", "expr.evaluate_calls"),
        "to_str": ("expr.to_str_s", None),
    },
    "numerics": {
        "evaluate_on_grid": ("numerics.grid_eval_s", None),
        "ResidualReport.from_grid": ("numerics.report_s", None),
        "ResidualReport.csv_rows": ("numerics.csv_rows_s", None),
        "adaptive_simpson": ("numerics.quad_s", None),
        "Grid.check_exclusions": ("numerics.exclusion_check_s", None),
    },
    "geometry": {
        "canonical_dconnection": ("geometry.canonical_s", None),
        "lc_decomposition": ("geometry.lc_decomposition_s", None),
        "curvature_ricci": ("geometry.curvature_ricci_s", None),
        "coordinate_lc_ricci": ("geometry.coordinate_lc_ricci_s", None),
        "adapted_from_coordinate": ("geometry.adapted_from_coordinate_s", None),
        "check_lc_compatibility": ("geometry.lc_check_s", None),
    },
    "generators": {
        **{f: ("generators.generate_s", None) for f in (
            "generate_5d", "generate_4d", "generate_vacuum_lc", "generate_sourced_lc")},
        **{f: ("generators.oracle_s", None) for f in (
            "closed_r22", "closed_s44", "closed_r4i", "closed_r5i")},
    },
    "ricci_flow": {
        "build_flow_solution": ("ricci_flow.build_s", None),
        "build_lc_flow": ("ricci_flow.build_s", None),
        "flow_residuals": ("ricci_flow.residuals_s", None),
    },
    "geroch": {
        "killing_residual": ("geroch.residuals_s", None),
        "geroch_residuals": ("geroch.residuals_s", None),
        "apply_geroch": ("geroch.transform_s", None),
        "nonholonomic_deform": ("geroch.transform_s", None),
        "drop_trivial_x1": ("geroch.transform_s", None),
    },
}

TIME_METRICS = sorted({m for funcs in TARGETS.values() for m, _ in funcs.values()})
COUNT_METRICS = sorted(
    {c for funcs in TARGETS.values() for _, c in funcs.values() if c}
    | {"cli.csv_bytes", "cli.csv_rows", "numerics.grid_points",
       "numerics.report_rows", "numerics.quad_calls",
       "numerics.quad_integrand_evals", "expr.dag_nodes", "expr.dag_distinct"})
# functions whose returned Ricci tables the DAG counts walk
RICCI_TABLES = {"curvature_ricci": lambda r: r.ricci, "coordinate_lc_ricci": lambda r: r}


class Tracer:
    def __init__(self, nhgeo_modules):
        self.modules = nhgeo_modules          # {"cli": module, ...}
        self.main_thread = threading.get_ident()
        self.lock = threading.Lock()
        self.patches = []
        self.spans = []          # [name, metric, start, end, parent, op]
        self.stack = []          # indices of the open spans
        self.ops = []            # one summary dict per traced operation
        self.rebound = set()     # "module.name" bindings replaced

    # -- installing -------------------------------------------------------
    def install(self):
        for mod_name, funcs in TARGETS.items():
            mod = self.modules[mod_name]
            for qual, (metric, calls) in funcs.items():
                span = f"{mod_name}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, span, metric, calls))
                    else:
                        new = self._wrap(raw, span, metric, calls)
                    self.patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                fn = getattr(mod, qual)
                wrapper = self._wrap(fn, span, metric, calls)
                for owner_name, owner in self.modules.items():
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self.patches.append((owner, name, fn))
                            setattr(owner, name, wrapper)
                            self.rebound.add(f"{owner_name}.{name}")

    def uninstall(self):
        while self.patches:
            owner, name, value = self.patches.pop()
            setattr(owner, name, value)

    # -- recording --------------------------------------------------------
    def begin(self):
        self.first = len(self.spans)
        self.counts = Counter()
        self.tables = []
        self.install()

    def end(self, wall, csv_bytes=0):
        """Close the operation: self times, counts and DAG sizes."""
        self.uninstall()
        self_time = defaultdict(float)
        child = defaultdict(float)
        roots = 0.0
        for idx in range(len(self.spans) - 1, self.first - 1, -1):
            _, metric, start, end, parent, _ = self.spans[idx]
            dur = end - start
            self_time[metric] += dur - child[idx]
            if parent is None:
                roots += dur
            else:
                child[parent] += dur
        counts = dict(self.counts)
        counts["cli.csv_bytes"] = csv_bytes
        counts["expr.dag_nodes"], counts["expr.dag_distinct"] = self._dag_counts()
        self.ops.append({"wall": wall, "roots": roots,
                         "spans": len(self.spans) - self.first,
                         "times": dict(self_time), "counts": counts})
        self.tables = None

    def write_spans(self, path):
        """All spans as JSON lines; start and end are perf_counter seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, _, start, end, parent, op in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def _wrap(self, fn, span, metric, calls):
        tracer = self
        short = span.rsplit(".", 1)[-1]
        tables = RICCI_TABLES.get(short)
        quad = short == "adaptive_simpson"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if quad:
                if getattr(args[0], "counted", False):   # b < a re-enters
                    return fn(*args, **kwargs)
                args = (tracer._counted(args[0]),) + args[1:]
            if calls or quad:
                with tracer.lock:
                    tracer.counts[calls or "numerics.quad_calls"] += 1
            if threading.get_ident() != tracer.main_thread:
                return fn(*args, **kwargs)
            stack, spans = tracer.stack, tracer.spans
            if not quad and stack and spans[stack[-1]][0] == span:
                return fn(*args, **kwargs)
            record = [span, metric, 0.0, 0.0, stack[-1] if stack else None,
                      len(tracer.ops)]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            tracer._observe(short, result, tables)
            return result

        return traced

    def _counted(self, f):
        counts, lock = self.counts, self.lock

        def integrand(t):
            with lock:
                counts["numerics.quad_integrand_evals"] += 1
            return f(t)

        integrand.counted = True
        return integrand

    def _observe(self, short, result, tables):
        if short == "evaluate_on_grid":
            self.counts["numerics.grid_points"] += int(result.size)
        elif short == "from_grid":
            self.counts["numerics.report_rows"] += int(result.residuals.size)
        elif short == "csv_rows":
            self.counts["cli.csv_rows"] += len(result)
        elif tables is not None:
            self.tables.append(tables(result))

    # -- DAG size ---------------------------------------------------------
    def _dag_counts(self):
        """Node objects (by id) and structurally distinct nodes reachable
        from the Ricci tables returned during the operation."""
        base = self.modules["expr"].Expr
        canon = {}               # id(node) -> structural class number
        classes = {}             # structural key -> class number
        fields = {}

        def slots(cls):
            if cls not in fields:
                names = [s for k in reversed(cls.__mro__)
                         for s in getattr(k, "__slots__", ())]
                fields[cls] = [s for s in names if s not in ("_fv", "_dcache")]
            return fields[cls]

        def children(node):
            out = []
            for s in slots(type(node)):
                val = getattr(node, s)
                if isinstance(val, base):
                    out.append(val)
                elif isinstance(val, tuple):
                    out.extend(v for v in val if isinstance(v, base))
            return out

        def key(node):
            parts = [type(node).__name__]
            for s in slots(type(node)):
                val = getattr(node, s)
                if isinstance(val, base):
                    parts.append(("node", canon[id(val)]))
                elif isinstance(val, tuple) and any(isinstance(v, base) for v in val):
                    parts.append(("nodes",) + tuple(canon[id(v)] for v in val))
                else:
                    parts.append(val)
            return tuple(parts)

        roots = []
        pending = list(self.tables)
        while pending:
            item = pending.pop()
            if isinstance(item, base):
                roots.append(item)
            elif isinstance(item, (tuple, list)):
                pending.extend(item)
        for root in roots:
            stack = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if id(node) in canon:
                    continue
                if not expanded:
                    stack.append((node, True))
                    stack.extend((c, False) for c in children(node)
                                 if id(c) not in canon)
                    continue
                canon[id(node)] = classes.setdefault(key(node), len(classes))
        return len(canon), len(classes)

    # -- results ----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics as means per traced operation."""
        n = max(len(self.ops), 1)
        out = {}
        for m in TIME_METRICS:
            out[m] = sum(op["times"].get(m, 0.0) for op in self.ops) / n
        for m in COUNT_METRICS:
            out[m] = sum(op["counts"].get(m, 0) for op in self.ops) / n
        return out
