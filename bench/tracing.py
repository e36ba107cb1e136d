"""Spans around calls into fairspread's layers, recorded from outside the package.

A Tracer replaces each timed public function at every module attribute
it is called through, plus two class attributes, with a wrapper that
records a span (name, start, end, parent) in memory.  Span names are
per-layer metric names, so a layer's self time is the sum over its
spans of the span's duration minus the time its child spans cover.
Leaving ``installed()`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

MARK = "__bench_traced__"

# Modules whose globals route calls from one layer into another.
MODULES = ("cli", "experiments", "optimize", "cascade", "graph")

# Function name -> metric that receives the self time of its calls.
# welfare's functions take microseconds and stay inside their callers.
FUNCTION_LAYERS = {
    "main": "cli.self_s",
    "load_graph": "graph.load_graph_s",
    "generate_sbm": "graph.generate_sbm_s",
    "sample_sketches": "cascade.sample_sketches_s",
    "estimate_utilities": "cascade.estimate_utilities_s",
    "exact_utilities": "cascade.exact_utilities_s",
    "greedy_welfare": "optimize.greedy_welfare_s",
    "greedy_utilitarian": "optimize.greedy_utilitarian_s",
    "saturate_maximin": "optimize.saturate_maximin_s",
    "dc_lower_bounds": "optimize.dc_lower_bounds_s",
    "saturate_dc": "optimize.saturate_dc_s",
    "exhaustive_opt": "optimize.exhaustive_opt_s",
    "run_sweep": "experiments.self_s",
    "relative_connectedness_experiment": "experiments.self_s",
    "relative_size_experiment": "experiments.self_s",
    "rows_to_csv": "experiments.rows_to_csv_s",
}


def _count_graph(counts, args, result):
    counts["graph.edges"] += len(result[0].edges)


def _count_sketches(counts, args, result):
    counts["cascade.components"] += getattr(result, "num_comps", 0)


def _count_exact(counts, args, result):
    g = args[0]
    if g.p not in (0.0, 1.0):
        counts["cascade.exact_subsets"] += 2 ** len(g.edges)  # computed, not counted


def _count_greedy(counts, args, result):
    trace = result[1]
    counts["optimize.gain_evals"] += trace.evaluations
    counts["optimize.picks"] += len(trace.chosen)


# Layer -> function adding the counts read from one call's arguments and result.
COUNTERS = {
    "graph.load_graph_s": _count_graph,
    "cascade.sample_sketches_s": _count_sketches,
    "cascade.exact_utilities_s": _count_exact,
    "optimize.greedy_welfare_s": _count_greedy,
    "optimize.greedy_utilitarian_s": _count_greedy,
}

# (cascade class, attribute, layer) traced besides module functions.
CLASS_ATTRIBUTES = (("UndirectedSketchSet", "evaluator", "cascade.evaluator_s"),
                    ("DirectedSketchSet", "closure", "cascade.closure_s"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def _class_attributes():
    """(class, attribute name, current value, layer) for CLASS_ATTRIBUTES present."""
    cascade = importlib.import_module("fairspread.cascade")
    for cls_name, attr, layer in CLASS_ATTRIBUTES:
        cls = getattr(cascade, cls_name, None)
        if cls is not None and attr in vars(cls):
            yield cls, attr, vars(cls)[attr], layer


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._closures_seen: weakref.WeakSet = weakref.WeakSet()
        self._counters = {**COUNTERS, "cascade.closure_s": self._count_closure}

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name: str):
        count = self._counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(traced, MARK, True)
        return traced

    def _count_closure(self, counts, args, result):
        sk = args[0]
        if sk not in self._closures_seen:
            self._closures_seen.add(sk)
            counts["cascade.closure_bytes"] += sk.R * sk.graph.n**2  # computed R*n^2

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for mod_name in MODULES:
            mod = importlib.import_module(f"fairspread.{mod_name}")
            for attr, layer in FUNCTION_LAYERS.items():
                fn = vars(mod).get(attr)
                if callable(fn) and getattr(fn, "__module__", "").startswith("fairspread."):
                    self._patch(mod, attr, self._wrap(fn, layer))
        for cls, attr, value, layer in list(_class_attributes()):
            if isinstance(value, property):
                self._patch(cls, attr, property(self._wrap(value.fget, layer), doc=value.__doc__))
            else:
                self._patch(cls, attr, self._wrap(value, layer))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def traced_attributes() -> list[str]:
    """Names of fairspread attributes that currently hold a tracing wrapper."""
    found = []
    for mod_name in MODULES:
        mod = importlib.import_module(f"fairspread.{mod_name}")
        found += [f"{mod_name}.{a}" for a, v in vars(mod).items() if getattr(v, MARK, False)]
    for cls, attr, value, _ in _class_attributes():
        if getattr(getattr(value, "fget", value), MARK, False):
            found.append(f"{cls.__name__}.{attr}")
    return found


def self_times(spans: list[Span]) -> Counter:
    """Self time per span name: duration minus the time child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    totals: Counter = Counter()
    for s, t in zip(spans, own):
        totals[s.name] += t
    return totals
