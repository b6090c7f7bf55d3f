"""Timing wrappers around the library's layer functions, for the traced run.

The wrappers live here, not in the library. Each traced function is rebound
in every ``mixedgraphs.*`` namespace that holds it, and methods and cached
properties are rebound on ``MixedGraph``, so calls from one module into
another go through the wrappers and their spans nest. A span records its
name, start, end, parent span and operation id; spans stay in memory until
the run ends. Self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from functools import cached_property
from time import perf_counter
from typing import NamedTuple

from mixedgraphs.core import MixedGraph


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span; -1 for an op's root span
    op: int


def _ribbon_class(args, _result):
    return "rg" if args[0].is_ribbonless else "nonrg"


# Module-level functions: (span name, module, attribute, name suffix from
# (args, result) or None, {counter: amount from (args, result)}).
FUNCTIONS = (
    ("textfmt.parse_graph", "mixedgraphs.textfmt", "parse_graph", None, {}),
    ("textfmt.serialize_graph", "mixedgraphs.textfmt", "serialize_graph", None, {}),
    ("msep.m_separated", "mixedgraphs.msep", "m_separated", _ribbon_class, {}),
    (
        "msep.endpoint_identical_connection",
        "mixedgraphs.msep",
        "endpoint_identical_connection",
        None,
        {},
    ),
    (
        "independence.independence_model",
        "mixedgraphs.independence",
        "independence_model",
        None,
        {"independence.statements": lambda args, result: len(result)},
    ),
    (
        "independence.marginalise_condition",
        "mixedgraphs.independence",
        "marginalise_condition",
        None,
        {},
    ),
    ("independence.model_to_json", "mixedgraphs.independence", "model_to_json", None, {}),
    (
        "project.table1_closure",
        "mixedgraphs.project",
        "table1_closure",
        None,
        {"project.table1_closure.edges_generated": lambda args, result: len(result[1])},
    ),
    (
        "project.rg_to_sg",
        "mixedgraphs.project",
        "rg_to_sg_traced",
        None,
        {"project.rg_to_sg.steps": lambda args, result: len(result[1])},
    ),
    (
        "project.sg_to_ag",
        "mixedgraphs.project",
        "sg_to_ag_traced",
        None,
        {"project.sg_to_ag.steps": lambda args, result: len(result[1])},
    ),
    ("witness.dagify", "mixedgraphs.witness", "dagify", None, {}),
    (
        "witness.maximalize",
        "mixedgraphs.witness",
        "maximalize",
        None,
        {
            "witness.maximalize.edges_added": lambda args, result: len(result.edges)
            - len(args[0].edges)
        },
    ),
    ("witness.is_maximal", "mixedgraphs.witness", "is_maximal", None, {}),
    ("witness.is_maximal_literal", "mixedgraphs.witness", "is_maximal_literal", None, {}),
    ("suites.maximality_suite", "mixedgraphs.suites", "maximality_suite", None, {}),
)

METHODS = (
    ("core.MixedGraph", "__init__"),
    ("core.ancestors", "ancestors"),
    ("core.induced_subgraph", "induced_subgraph"),
)

CACHED_PROPERTIES = (
    ("core.class_tags", "class_tags"),
    ("core.ribbons", "ribbons"),
)

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._undo = []
        self.op = -1

    def _wrap(self, name, fn, suffix=None, counters=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = Span(name, start, perf_counter(), parent, self.op)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            label = f"{name}.{suffix(args, result)}" if suffix else name
            spans[index] = Span(label, start, end, parent, self.op)
            for counter, amount in (counters or {}).items():
                counts[counter] += amount(args, result)
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span."""
        self.op = op_id
        return self._wrap(ROOT, fn)(*args)

    def install(self):
        packages = [
            module
            for name, module in sys.modules.items()
            if name == "mixedgraphs" or name.startswith("mixedgraphs.")
        ]
        for name, module_name, attr, suffix, counters in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, original, suffix, counters)
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, traced)
        for name, attr in METHODS:
            original = MixedGraph.__dict__.get(attr)
            if original is None:
                self.absent.append(name)
                continue
            self._undo.append((MixedGraph, attr, original))
            setattr(MixedGraph, attr, self._wrap(name, original))
        for name, attr in CACHED_PROPERTIES:
            original = MixedGraph.__dict__.get(attr)
            if not isinstance(original, cached_property):
                self.absent.append(name)
                continue
            prop = cached_property(self._wrap(name, original.func))
            prop.__set_name__(MixedGraph, attr)
            self._undo.append((MixedGraph, attr, original))
            setattr(MixedGraph, attr, prop)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span, inner in zip(self.spans, child):
            row = out[span.name]
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += span.end - span.start - inner
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """Write every span, one JSON list per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def layer_of(span_name):
    return span_name.split(".", 1)[0]
