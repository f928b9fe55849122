"""Spans and counters around the calls into each prodcoh module.

The tracer wraps functions where their callers look them up (a module
attribute such as `cech.validate_complex` or `splitter.safe_region`) and
records, per call, a span (name, start, end, parent, request); functions
called thousands of times per request get a counter only.  Counters are
read from call arguments and return values, inside a "trace.count" span
so that the tracer's own counting is not charged to the layer that was
running.  Spans stay in memory and are written out once, when the run
ends.  A layer's self time is its spans' duration minus the duration of
their direct child spans.
"""

import time
from collections import defaultdict
from statistics import fmean

from prodcoh import bott, cech, cli, linalg, splitter, tate


class Tracer:
    """Spans and counters of one pass over a workload's requests."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request]
        self.stack = []
        self.counters = defaultdict(int)
        self.request = None
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    def inside(self, name):
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def patch(self, owner, attr, wrap):
        """Replace owner.attr by wrap(original) until unpatch().  A function
        a refactor removed is skipped, so its metrics read 0."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrap(orig))

    def span(self, owner, attr, name, after=None):
        """Span every call of owner.attr; after(result) may then count."""

        def wrap(fn):
            def traced(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if after is not None:
                    self.call("trace.count", after, result)
                return result

            return traced

        self.patch(owner, attr, wrap)

    def unpatch(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def times(self):
        """(total, self) seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def span_table(self, names):
        """Spans as [name code, start, end, parent, request], times in
        seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            [names.setdefault(n, len(names)), round(s - t0, 7), round(e - t0, 7), p, r]
            for n, s, e, p, r in self.spans
        ]


def install(t):
    """Wrap the layer functions of prodcoh for tracer t."""
    c = t.counters

    def matrix(prefix, nrows, ncols, nnz, rank):
        c[prefix + "_rank_calls"] += 1
        c[prefix + "_cells"] += nrows * ncols
        c[prefix + "_nnz"] += nnz
        c[prefix + "_rank_sum"] += rank
        if prefix == "linalg.fp":
            c["linalg.fp_max_rows"] = max(c["linalg.fp_max_rows"], nrows)
            c["linalg.fp_dense_bytes_max"] = max(
                c["linalg.fp_dense_bytes_max"], nrows * ncols * 8
            )

    def fp_array(fn):
        def traced(a, p):
            rank = t.call("linalg.fp_rank", fn, a, p)
            t.call("trace.count", lambda: matrix(
                "linalg.fp", a.shape[0], a.shape[1], int((a != 0).sum()), rank))
            return rank

        return traced

    def rows_rank(fn):
        def traced(rows, ncols, field):
            if t.inside("cech.blockwise"):
                c["cech.blockwise_rank_calls"] += 1
            if isinstance(field, linalg.PrimeField):
                prefix, nonzero = "linalg.fp", lambda x: int(x) % field.p
            else:
                prefix, nonzero = "linalg.q", bool
            rank = t.call(prefix + "_rank", fn, rows, ncols, field)
            t.call("trace.count", lambda: matrix(
                prefix, len(rows), ncols, sum(1 for r in rows for x in r if nonzero(x)), rank))
            return rank

        return traced

    def hypercohomology(fn):
        def traced(*args, **kwargs):
            c["cech.hypercohomology_calls"] += 1
            try:
                return t.call("cech.hypercohomology", fn, *args, **kwargs)
            except cech.TruncationInstability:
                c["cech.truncation_errors"] += 1
                raise

        return traced

    def line_bundle_h(fn):
        def counted(*args, **kwargs):
            c["bott.line_bundle_h_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def inferred(table):
        c["tate.inferred_cells"] += sum(
            1 for _, status in table.cells.values() if status == tate.STATUS_INFERRED
        )

    def safe(region):
        c["lattice.safe_twists"] += len(region)

    t.span(cli, "load_complex", "cli.load_complex")
    t.span(cech, "validate_complex", "coxring.validate")
    t.patch(cech, "hypercohomology", hypercohomology)
    t.span(cech, "_assembled_h", "cech.assembled")
    t.span(cech, "_blockwise_h", "cech.blockwise")
    t.span(cech, "cohomology_table", "splitter.table")
    t.patch(linalg, "rank_mod_p_array", fp_array)
    t.patch(linalg, "rank", rows_rank)
    t.span(tate, "strand_propagate", "tate.propagate", inferred)
    t.span(splitter, "safe_region", "lattice.safe_region", safe)
    t.span(splitter, "hm_monotonicity_check", "splitter.monotonicity")
    t.span(splitter, "hypothesis_violations", "splitter.scan")
    t.span(splitter, "extremal_hm", "splitter.extremal")
    t.span(splitter, "multiplicities", "splitter.multiplicities")
    t.span(splitter, "verify_split", "splitter.verify")
    t.span(splitter, "split_check", "splitter.split_check")
    t.patch(bott, "line_bundle_h", line_bundle_h)


# Per-layer metric -> (unit, kind, key): the "total" or "self" time of the
# spans named key, or the counter key.  "request" is the root span of one
# command, so its self time is argument parsing and output.
PER_LAYER = {
    "cli.load_complex_s": ("s", "total", "cli.load_complex"),
    "cli.request_self_s": ("s", "self", "request"),
    "coxring.validate_s": ("s", "total", "coxring.validate"),
    "cech.assembled_self_s": ("s", "self", "cech.assembled"),
    "cech.hypercohomology_calls": ("count", "count", "cech.hypercohomology_calls"),
    "cech.blockwise_self_s": ("s", "self", "cech.blockwise"),
    "cech.blockwise_rank_calls": ("count", "count", "cech.blockwise_rank_calls"),
    "cech.truncation_errors": ("count", "count", "cech.truncation_errors"),
    "linalg.fp_rank_s": ("s", "total", "linalg.fp_rank"),
    "linalg.fp_rank_calls": ("count", "count", "linalg.fp_rank_calls"),
    "linalg.fp_cells": ("count", "count", "linalg.fp_cells"),
    "linalg.fp_nnz": ("count", "count", "linalg.fp_nnz"),
    "linalg.fp_max_rows": ("count", "count", "linalg.fp_max_rows"),
    "linalg.fp_rank_sum": ("count", "count", "linalg.fp_rank_sum"),
    "linalg.fp_dense_bytes_max": ("B", "count", "linalg.fp_dense_bytes_max"),
    "linalg.q_rank_s": ("s", "total", "linalg.q_rank"),
    "linalg.q_rank_calls": ("count", "count", "linalg.q_rank_calls"),
    "linalg.q_cells": ("count", "count", "linalg.q_cells"),
    "linalg.q_nnz": ("count", "count", "linalg.q_nnz"),
    "linalg.q_rank_sum": ("count", "count", "linalg.q_rank_sum"),
    "tate.propagate_s": ("s", "total", "tate.propagate"),
    "tate.inferred_cells": ("count", "count", "tate.inferred_cells"),
    "lattice.safe_region_s": ("s", "total", "lattice.safe_region"),
    "lattice.safe_twists": ("count", "count", "lattice.safe_twists"),
    "splitter.table_s": ("s", "total", "splitter.table"),
    "splitter.monotonicity_s": ("s", "total", "splitter.monotonicity"),
    "splitter.scan_s": ("s", "total", "splitter.scan"),
    "splitter.extremal_s": ("s", "total", "splitter.extremal"),
    "splitter.multiplicities_s": ("s", "total", "splitter.multiplicities"),
    "splitter.verify_s": ("s", "total", "splitter.verify"),
    "splitter.split_check_self_s": ("s", "self", "splitter.split_check"),
    "bott.line_bundle_h_calls": ("count", "count", "bott.line_bundle_h_calls"),
}


def layer_metrics(tracers):
    """Per-layer metrics: the mean over the measured traced passes, whose
    counters agree because every pass issues the same requests."""
    per_pass = []
    for t in tracers:
        total, own = t.times()
        src = {"total": total, "self": own, "count": t.counters}
        per_pass.append({name: src[kind][key] for name, (_, kind, key) in PER_LAYER.items()})
    out = {name: {"value": fmean(p[name] for p in per_pass), "unit": unit}
           for name, (unit, _, _) in PER_LAYER.items()}
    cells = out["linalg.fp_cells"]["value"]
    out["linalg.fp_density"] = {
        "value": out["linalg.fp_nnz"]["value"] / cells if cells else 0.0,
        "unit": "ratio",
    }
    return out
