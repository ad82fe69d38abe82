"""In-memory span tracer for wrapping functions at layer boundaries.

A span records the layer name, start and end (perf_counter seconds), the
index of the enclosing span and an optional tag computed from the call's
arguments and result.  Spans live in flat arrays, so a traced grid of a
hundred thousand calls costs a few megabytes.  The tracer assumes one
thread: spans nest strictly, so a span's self time is its duration minus the
summed durations of its direct children.
"""
from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list = []
        self._tag_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _intern(self, table: list, ids: dict, value) -> int:
        index = ids.get(value)
        if index is None:
            index = ids[value] = len(table)
            table.append(value)
        return index

    def wrap(self, name: str, fn, tag=None):
        """Return fn wrapped in a span; tag(args, kwargs, result) labels the span."""
        name_id = self._intern(self.names, self._name_ids, name)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.tag.append(-1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()
            if tag is not None:
                self.tag[index] = self._intern(self.tags, self._tag_ids, tag(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Replace module attributes with traced wrappers; restore them on exit.

        targets holds (module, attribute, span name, tag function or None).
        """
        originals = []
        try:
            for module, attr, name, tag in targets:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, tag))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def spans(self):
        """Yield (name, duration, self time, tag) for every finished span."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[index]
        for index, duration in enumerate(durations):
            tag_id = self.tag[index]
            yield (
                self.names[self.name[index]],
                duration,
                duration - covered[index],
                None if tag_id < 0 else self.tags[tag_id],
            )

    def exact_counts(self) -> Counter:
        """Multiset of (span name, tag): identical for two runs that did the same work."""
        return Counter(
            (self.names[n], None if t < 0 else self.tags[t]) for n, t in zip(self.name, self.tag)
        )
