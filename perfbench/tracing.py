"""Spans around the public functions of each mnq layer, recorded from outside.

install() replaces every traced function in every mnq module namespace that
holds it (mnq.cli.search_theorem and mnq.construct.search_theorem are the
same function imported twice), so calls between modules are seen too.  A
span is [name, parent index, start, end, attrs]; spans stay in memory and
are written out once, when the pass ends.  layer_metrics() turns one pass's
spans into the per-layer metrics: .calls, .s and .self_s per function, where
self time is the span time minus that of its direct child spans, plus the
counts below.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time


def _theorem_tried(a, r):
    # a runs 1 .. q-1; the first hit a was the a-th candidate
    return {"tried": r[0] if r and a["stop_at_first"] else a["field"].q - 1}


def _general_tried(a, r):
    q = a["field"].q
    if r and a["stop_at_first"]:
        wa, wb = r[0]
        return {"tried": (wa - 1) * (q - 1) + wb}
    return {"tried": (q - 1) ** 2}


# (module, function, attrs(bound arguments, result) -> dict or None)
TARGETS = [
    ("mnq.cli", "main", None),
    ("mnq.fields", "field_for_order", None),
    ("mnq.intpoly", "factor", None),
    ("mnq.construct", "search_theorem", _theorem_tried),
    ("mnq.construct", "search_general", _general_tried),
    ("mnq.construct", "count_associative_orbit", None),
    ("mnq.construct", "build_table", None),
    ("mnq.construct", "load_cache", lambda a, r: {"rows": len(r)}),
    ("mnq.construct", "append_witness", None),
    ("mnq.quasigroup", "is_latin", lambda a, r: {"passed": bool(r)}),
    ("mnq.quasigroup", "count_associative_naive",
     lambda a, r: {"cells": a["t"].n ** 3, "aborted": bool(r.aborted)}),
    ("mnq.quasigroup", "direct_product", None),
    ("mnq.quasigroup", "save_table", lambda a, r: {"bytes": os.path.getsize(str(a["path"]))}),
    ("mnq.quasigroup", "load_table", lambda a, r: {"bytes": os.path.getsize(str(a["path"]))}),
    ("mnq.weil", "census_report",
     lambda a, r: {"elements": a["field"].q, "subsets": bool(a["with_subsets"])}),
    ("mnq.existence", "decide", None),
    ("mnq.existence", "materialize", None),
]


def span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('mnq.')}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs):
        sig = inspect.signature(fn) if attrs else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = attrs(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded mnq module that refers to it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "mnq" or k.startswith("mnq.")]
        for module, func, attrs in TARGETS:
            orig = getattr(sys.modules[module], func)
            traced = self.wrap(span_name(module, func), orig, attrs)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, traced)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, derived from its spans only."""
    names = [span_name(m, f) for m, f, _ in TARGETS]
    out = {}
    for n in names:
        out[f"{n}.calls"] = 0
        out[f"{n}.s"] = 0.0
        out[f"{n}.self_s"] = 0.0
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    top_level = 0.0
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += t1 - t0
        out[f"{name}.self_s"] += t1 - t0 - child_s[i]
        if parent < 0:
            top_level += t1 - t0

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name)

    def under_general(i):
        while i >= 0:
            if spans[i][0] == "construct.search_general":
                return True
            i = spans[i][1]
        return False

    tables = sum(1 for i, s in enumerate(spans) if s[0] == "construct.build_table" and under_general(i))
    latin_ok = sum(1 for i, s in enumerate(spans)
                   if s[0] == "quasigroup.is_latin" and s[4]["passed"] and under_general(i))
    out.update({
        "construct.theorem.candidates": attr_sum("construct.search_theorem", "tried"),
        "construct.general.pairs_tried": attr_sum("construct.search_general", "tried"),
        "construct.general.latin_pass_ratio": latin_ok / tables if tables else 0.0,
        "quasigroup.count_associative_naive.cells": attr_sum("quasigroup.count_associative_naive", "cells"),
        "quasigroup.count_associative_naive.aborted": attr_sum("quasigroup.count_associative_naive", "aborted"),
        "quasigroup.save_table.bytes": attr_sum("quasigroup.save_table", "bytes"),
        "quasigroup.load_table.bytes": attr_sum("quasigroup.load_table", "bytes"),
        "weil.census_report.elements": attr_sum("weil.census_report", "elements"),
        "weil.census_report.subsets_calls": attr_sum("weil.census_report", "subsets"),
        "construct.load_cache.rows": attr_sum("construct.load_cache", "rows"),
        "trace.top_level_s": top_level,
    })
    return out
