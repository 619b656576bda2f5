"""In-memory span tracer that wraps attributes of modules and classes.

A span records a name, start, end, the index of the span that was open
when it began (its parent, -1 for none) and optional integer notes,
such as the size of an argument or of a result.  A counted attribute
gets no span; its calls are counted per name and open span, so they can
be attributed like spans.  Wrapped attributes are restored when the
tracer is closed, so an untraced run sees the original functions.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Callable


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, notes]
        self.counts: Counter = Counter()  # (name, open span) -> calls
        self._open: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _replace(self, owner, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str, note: Callable | None = None) -> None:
        """Record a span named `name` around every call of owner.attr.
        `note(args, result)` may return a dict of integers kept on the span."""
        spans, opened, clock = self.spans, self._open, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append([name, clock(), 0.0, opened[-1], None])
                opened.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    opened.pop()
                    spans[index][2] = clock()
                if note is not None:
                    spans[index][4] = note(args, result)
                return result

            return traced

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr under `name` and the span open at the
        call, without a span of their own."""
        counts, opened = self.counts, self._open

        def make(fn):
            def counted(*args, **kwargs):
                counts[name, opened[-1]] += 1
                return fn(*args, **kwargs)

            return counted

        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put back every wrapped attribute, latest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, then the call counts as
        [name, open span, calls] triples."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, notes in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent}
                if notes:
                    record["notes"] = notes
                fh.write(json.dumps(record) + "\n")
            counts = [[name, span, n] for (name, span), n in sorted(self.counts.items())]
            fh.write(json.dumps({"counts": counts}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of its interval covered by
    its child spans (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
