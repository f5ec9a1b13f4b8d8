"""In-memory span tracer that wraps a program's callables from outside.

A span records a name, its start and end on ``time.perf_counter`` and the
index of the span that was open when it began. The tracer replaces an
attribute (a module function, a class method or an instance method) with a
timing wrapper at the place its caller looks it up, and ``uninstall`` puts
every original object back, so untraced code runs the program unchanged.

Self time is a span's duration minus the duration of its direct children.
Spans are single-threaded and strictly nested, so the self times of a root
and all its descendants add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

ROOT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, ROOT for a top-level span
    root: int  # index of the top-level span this one runs under


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else ROOT
        root = self.spans[parent].root if parent != ROOT else index
        record = Span(name, 0.0, 0.0, parent, root)
        self.spans.append(record)
        self._open.append(index)
        record.start = time.perf_counter()
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, probe: Callable | None = None) -> Callable:
        """Time every call of fn as a span; probe(args, result) runs after
        the span has closed, so its cost is not charged to fn's layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, probe: Callable | None = None) -> None:
        """Replace owner.attr with a traced wrapper until uninstall()."""
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, probe))
        else:
            replacement = self.wrap(name, original, probe)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent != ROOT:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def summary(self, root_name: str) -> tuple[int, float, dict[str, float]]:
        """(number of roots named root_name, their summed duration, summed
        self seconds per span name under them, the roots included)."""
        selfs = self.self_times()
        roots = 0
        wall = 0.0
        by_name: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, selfs):
            if self.spans[s.root].name != root_name:
                continue
            if s.parent == ROOT:
                roots += 1
                wall += s.end - s.start
            by_name[s.name] += own
        return roots, wall, dict(by_name)

    def records(self) -> list[list]:
        """Spans as [name, start, end, parent] rows, for writing out."""
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
