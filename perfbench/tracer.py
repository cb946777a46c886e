"""Spans and counters recorded around calls into the tdspace layers.

Spans are recorded by the benchmark's own code, never inside the package:
``Tracer.call`` wraps one call into a public function, ``Tracer.span``
wraps a block of benchmark steps, and ``Tracer.patch`` temporarily
replaces a module attribute with an aggregating wrapper for calls that
are too hot for one span each (``apply_td``, ``two_tree_count``) or that
happen inside another package function (the CLI's library calls).

A span is ``(name, start, end, parent index)``; parent ``-1`` is the
top level.  Every span and aggregate adds its duration to the child time
of whatever was open around it, so self time is duration minus child
time for both kinds.  ``NullTracer`` takes the same calls and spans and
records nothing; the timed runs use it.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("words", "structure", "extensions", "simulator", "beta", "cli")


class NullTracer:
    """Tracing off: calls go straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name):
        return nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.spans: list = []
        self._stack: list = [-1]
        self._child: defaultdict = defaultdict(float)
        self.agg_time: defaultdict = defaultdict(float)
        self.agg_calls: defaultdict = defaultdict(int)
        self.counters: defaultdict = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1]
        spans.append(None)
        stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            spans[index] = (name, start, end, parent)
            self._child[parent] += end - start

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1]
        spans.append(None)
        stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            spans[index] = (name, start, end, parent)
            self._child[parent] += end - start

    @contextmanager
    def patch(self, module, attr, name, on_result=None):
        """Aggregate every call to ``module.attr`` under ``name`` while open.

        The wrapper is looked up where the package looks the name up, so
        only calls through that module attribute are seen.  A missing
        attribute (renamed by a later refactor) is reported on stderr and
        leaves the metric at zero.
        """
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; {name} stays 0", file=sys.stderr)
            yield
            return
        stack, child, clock = self._stack, self._child, self.clock
        agg_time, agg_calls = self.agg_time, self.agg_calls

        def wrapper(*args, **kwargs):
            stack.append(name)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                agg_time[name] += elapsed
                agg_calls[name] += 1
                child[stack[-1]] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def count(self, name, amount=1):
        self.counters[name] += amount

    def self_times(self) -> dict[str, float]:
        """Self time per span or aggregate name, summed over occurrences."""
        out: defaultdict = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - self._child.get(index, 0.0)
        for name, total in self.agg_time.items():
            out[name] += total - self._child.get(name, 0.0)
        return dict(out)

    def duration(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def layer_self_times(self) -> dict[str, float]:
        selfs = self.self_times()
        return {
            layer: sum(t for name, t in selfs.items() if name.startswith(layer + "."))
            for layer in LAYERS
        }

    def dump(self, path, extra: dict) -> None:
        """Write spans (times relative to tracer creation), aggregates and counters."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append(
                [names.setdefault(name, len(names)), start - self.origin, end - self.origin, parent]
            )
        doc = {
            **extra,
            "span_names": list(names),
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": rows,
            "aggregates": {
                name: {"calls": self.agg_calls[name], "total_s": total}
                for name, total in self.agg_time.items()
            },
            "counters": dict(self.counters),
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
