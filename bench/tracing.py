"""Traced runs: spans and counters recorded around calls into each library layer.

The tracer wraps every public function and every public method of every
class of the nine modules (plus construction and the arithmetic dunders),
and rebinds each wrapper at every module namespace that holds the original,
so ``from .exact import rank`` call sites are traced too.  Nothing under
``src/`` changes.

A call opens a span only when it enters a layer from another one (or from
the benchmark); calls inside a layer are counted but not timed, which keeps
the overhead tolerable and makes a layer's self time the time spent in its
spans minus the time spent in their child spans.  Spans hold their parent
span and the operation they belong to; the first few per operation and name
are kept verbatim, the rest only add to per-(parent, name) aggregates.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

LAYERS = ("exact", "complexes", "operads", "algebras", "envelope", "fieldtheory",
          "cherns", "jsonio", "cli")
TRACED_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__", "__neg__", "__eq__"}
RAW_SPANS_PER_KEY = 20

# name, unit, and the layer metric it belongs to (see README.md for what each should move)
PER_LAYER = [
    ("exact.self_s", "s"), ("exact.rref_calls", "count"), ("exact.nnz_in", "count"),
    ("exact.nnz_out", "count"), ("exact.fill_ratio", "ratio"), ("exact.max_rows", "count"),
    ("exact.max_cols", "count"), ("exact.solve_rhs", "count"),
    ("complexes.self_s", "s"), ("complexes.homology_dim_calls", "count"),
    ("complexes.homology_calls", "count"), ("complexes.induced_map_calls", "count"),
    ("envelope.self_s", "s"), ("envelope.stage_words", "count"), ("envelope.stage_nnz", "count"),
    ("envelope.multiply_calls", "count"), ("envelope.apply_word_calls", "count"),
    ("operads.self_s", "s"), ("operads.evaluate_calls", "count"),
    ("algebras.self_s", "s"), ("algebras.apply_generator_calls", "count"),
    ("algebras.push_element_calls", "count"),
    ("fieldtheory.self_s", "s"), ("fieldtheory.orth_pairs", "count"),
    ("fieldtheory.monomial_pairs", "count"), ("fieldtheory.stage_maps", "count"),
    ("cherns.self_s", "s"), ("cherns.cochains", "count"),
    ("jsonio.self_s", "s"), ("jsonio.bytes_in", "bytes"), ("jsonio.bytes_out", "bytes"),
    ("cli.self_s", "s"), ("cli.ops", "count"),
    ("trace.overhead_ratio", "ratio"),
]

# counters read straight from call counts: metric -> qualified function name
CALL_COUNTS = {
    "complexes.homology_dim_calls": "complexes.homology_dim",
    "complexes.homology_calls": "complexes.homology",
    "complexes.induced_map_calls": "complexes.induced_homology_map",
    "envelope.multiply_calls": "envelope.TruncatedEnvelope.multiply",
    "envelope.apply_word_calls": "envelope.EnvelopeMap.apply_word",
    "operads.evaluate_calls": "operads.evaluate",
    "algebras.apply_generator_calls": "algebras.DgAlgebra.apply_generator",
    "algebras.push_element_calls": "algebras.push_element",
    "fieldtheory.stage_maps": "envelope.EnvelopeMap.stage_chain_map",
    "cli.ops": "cli.main",
}


class Span:
    __slots__ = ("sid", "parent", "op", "layer", "name", "start", "child")

    def __init__(self, sid, parent, op, layer, name, start):
        self.sid, self.parent, self.op = sid, parent, op
        self.layer, self.name, self.start = layer, name, start
        self.child = 0.0


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.stack: List[Span] = []
        self.raw: List[dict] = []
        self.raw_seen: Counter = Counter()
        self.aggregate: Dict[tuple, list] = {}
        self.next_id = 0
        self.op_id = 0
        self.in_causality = 0    # open check_causality calls, spans or not
        self._restore: List[tuple] = []
        self._hooks = {
            "exact.rref": self._count_rref,
            "exact.solve_many": self._count_solve_many,
            "envelope.TruncatedEnvelope.stage": self._count_stage,
            "fieldtheory.check_causality": self._count_causality,
            "envelope.TruncatedEnvelope.commutator": self._count_commutator,
            "cherns.cs_complex": self._count_cs_complex,
            "jsonio.dumps": self._count_dumps,
        }

    # -- spans --------------------------------------------------------------------
    def open(self, layer: str, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        self.next_id += 1
        span = Span(self.next_id, parent, self.op_id, layer, name, time.perf_counter())
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - span.start
        own = duration - span.child
        self.self_s[span.layer] += own
        parent_name = None
        if self.stack:
            self.stack[-1].child += duration
            parent_name = self.stack[-1].name
        agg = self.aggregate.setdefault((parent_name, span.name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += own
        key = (span.op, span.name)
        if self.raw_seen[key] < RAW_SPANS_PER_KEY:
            self.raw_seen[key] += 1
            self.raw.append({"id": span.sid, "parent": span.parent, "op": span.op,
                             "name": span.name, "start": span.start, "end": end})

    @contextlib.contextmanager
    def operation(self, label: str):
        """Span around one benchmark operation; its children are the cli spans."""
        self.op_id += 1
        span = self.open("bench", label)
        try:
            yield
        finally:
            self.close(span)

    # -- installing wrappers ---------------------------------------------------------
    def _wrap(self, fn, layer: str, qualname: str):
        tracer = self
        calls = self.calls
        hook = self._hooks.get(qualname)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qualname] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            state = hook(args, kwargs, None, None) if hook else None
            stack = tracer.stack
            if stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            else:
                span = tracer.open(layer, qualname)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(span)
            if hook:
                hook(args, kwargs, result, state)
            return result

        if qualname == "fieldtheory.check_causality":
            @functools.wraps(fn)
            def scoped(*args, **kwargs):
                tracer.in_causality += 1
                try:
                    return traced(*args, **kwargs)
                finally:
                    tracer.in_causality -= 1
            return scoped
        return traced

    def install(self) -> None:
        wrappers = {}
        modules = {layer: getattr(self.lib, layer) for layer in LAYERS}
        prefix = self.lib.cli.__name__.rsplit(".", 1)[0] + "."
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                owner = obj.__module__[len(prefix):]
                if owner not in modules:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, owner, f"{owner}.{obj.__name__}")
                self._restore.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])

    def _install_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                wrapped = self._wrap(attr, layer, qual)
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(self._wrap(attr.__func__, layer, qual))
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- counter hooks: called with result None before the call, then with the result
    def _count_rref(self, args, kwargs, result, state):
        m = args[0]
        if result is None:
            return getattr(m, "_rref", None) is None
        if state:
            c = self.counters
            c["exact.rref_calls"] += 1
            c["exact.nnz_in"] += len(m.entries)
            c["exact.nnz_out"] += len(result[2].entries)
            self._shape(m.rows, m.cols)

    def _count_solve_many(self, args, kwargs, result, state):
        if result is not None:
            m, bs = args[0], args[1]
            self.counters["exact.solve_rhs"] += len(bs)
            self._shape(m.rows, m.cols + len(bs))

    def _shape(self, rows: int, cols: int) -> None:
        c = self.counters
        c["exact.max_rows"] = max(c["exact.max_rows"], rows)
        c["exact.max_cols"] = max(c["exact.max_cols"], cols)

    def _count_stage(self, args, kwargs, result, state):
        env = args[0]
        cache = getattr(env, "_stage_cache", None)
        size = len(cache) if cache is not None else -1
        if result is None:
            return size
        if size == -1 or size != state:
            complex_, by_degree, _ = result
            self.counters["envelope.stage_words"] += sum(len(ws) for ws in by_degree.values())
            self.counters["envelope.stage_nnz"] += sum(len(m.entries) for m in complex_.diffs.values())

    def _count_causality(self, args, kwargs, result, state):
        if result is None:
            return None
        self.counters["fieldtheory.orth_pairs"] += len(args[0].base.orth)

    def _count_commutator(self, args, kwargs, result, state):
        # before the call, so that pairs whose product overflows the truncation count too
        if result is None and self.in_causality:
            self.counters["fieldtheory.monomial_pairs"] += 1

    def _count_cs_complex(self, args, kwargs, result, state):
        if result is not None:
            self.counters["cherns.cochains"] += sum(result.dims.values())

    def _count_dumps(self, args, kwargs, result, state):
        if result is not None:
            self.counters["jsonio.bytes_out"] += len(result.encode())

    # -- results ----------------------------------------------------------------------
    def metrics(self, bytes_in: int, overhead_ratio: float, time_scale: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass; self times are multiplied by
        ``time_scale`` (the pass's probe normalization, see run.py)."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0) * time_scale
        for metric, qual in CALL_COUNTS.items():
            out[metric] = self.calls[qual]
        for key in ("exact.rref_calls", "exact.nnz_in", "exact.nnz_out", "exact.max_rows",
                    "exact.max_cols", "exact.solve_rhs", "envelope.stage_words",
                    "envelope.stage_nnz", "fieldtheory.orth_pairs",
                    "fieldtheory.monomial_pairs", "cherns.cochains", "jsonio.bytes_out"):
            out[key] = self.counters[key]
        nnz_in = self.counters["exact.nnz_in"]
        out["exact.fill_ratio"] = self.counters["exact.nnz_out"] / nnz_in if nnz_in else 0.0
        out["jsonio.bytes_in"] = bytes_in
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def dump(self, path: Path, labels: List[str]) -> None:
        """Write the kept spans, the aggregates and the call counts as JSON."""
        doc = {
            "operations": {i + 1: label for i, label in enumerate(labels)},
            "spans": self.raw,
            "aggregate": [{"parent": p, "name": n, "count": c, "total_s": t, "self_s": s}
                          for (p, n), (c, t, s) in sorted(self.aggregate.items(),
                                                          key=lambda kv: -kv[1][1])],
            "calls": dict(self.calls.most_common()),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, default=str))

