"""Spans recorded from the benchmark's side of each call into the program.

A span has a name, a start, an end and the span that caused it. Spans are
kept in memory and written out when the run ends. The program itself is
not edited: public names are wrapped where the program looks them up and
put back afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> dict:
        """Per span name: summed duration, summed self time and call count.

        Self time is a span's duration minus the time its child spans
        cover; children of one span never overlap, since the program runs
        on one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            total, self_time, calls = out.get(name, (0.0, 0.0, 0))
            out[name] = (total + end - start, self_time + end - start - inner, calls + 1)
        return out

    def records(self, round_id: int) -> list:
        return [
            {"round": round_id, "id": i, "name": name, "start": start,
             "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``(module, attribute, span name)`` targets for the duration."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
