"""In-memory span tracer for the benchmark's traced run.

The tracer wraps entry points of the simulator's layers from outside
the package: it replaces a function or method attribute with a timing
wrapper for the duration of one traced repetition and puts the
original back afterwards, so the untraced repetitions run the program
exactly as shipped.

A span is ``[name, start, end, parent, op, note]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` the benchmark
operation (grid point or figure cell) that was current when the span
opened, and ``note`` whatever the entry point's note function pulled
out of the call (request counts, simulated statistics).  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        #: the operation new spans belong to (set by the workload or
        #: by an op marker installed with :meth:`mark_ops`)
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def span(self, owner, attr: str, name: str, note=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.
        ``note(args, result)`` runs after the span closes and its
        return value is stored on the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if note is not None:
                    record[5] = note(args, result)
                return result

            return traced

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, key) -> None:
        """Count calls of ``owner.attr`` under ``key(args, innermost
        open span name)``; a ``None`` key is not counted."""

        def make(fn):
            def counted(*args, **kwargs):
                parent = self.spans[self._stack[-1]][0] if self._stack else None
                k = key(args, parent)
                if k is not None:
                    self.counters[k] += 1
                return fn(*args, **kwargs)

            return counted

        self._replace(owner, attr, make)

    def mark_ops(self, owner, attr: str, op_of) -> None:
        """Attribute everything ``owner.attr`` does to the operation
        ``op_of(args)`` names."""

        def make(fn):
            def marked(*args, **kwargs):
                previous, self.op = self.op, op_of(args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.op = previous

            return marked

        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct
        children (spans nest strictly in one thread)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def inside(self, names: frozenset) -> list[bool]:
        """Per span: whether some enclosing span is called one of
        ``names``.  Parents precede children in ``spans``."""
        flags: list[bool] = []
        for s in self.spans:
            p = s[3]
            flags.append(p >= 0 and (flags[p] or self.spans[p][0] in names))
        return flags

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
