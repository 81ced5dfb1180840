"""Spans and call capture around the program's public functions.

Each function is wrapped where its caller looks it up (for example
``phonotraj.cli.synthesize``, the name ``prepare_speaker`` calls), so the
program itself is not edited.  Spans live in memory as
``[name, start, end, parent]`` lists and are written out by the worker
when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans, call counts and, where asked, call arguments and results."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.calls: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, *, span: bool = True, keep: bool = False, measure=None):
        """``fn`` counted under ``name``; timed as a span if ``span``; its
        arguments and result kept in ``calls[name]`` if ``keep``; ``measure(result)``
        summed into ``sums[name]`` if given."""

        def wrapped(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            if not span:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
                self.spans.append(rec)
                self._stack.append(idx)
                rec[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = time.perf_counter()
                    self._stack.pop()
            if measure is not None:
                self.sums[name] = self.sums.get(name, 0) + measure(result)
            if keep:
                self.calls.setdefault(name, []).append((args, kwargs, result))
            return result

        return wrapped

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_time(self, name: str) -> float:
        """Summed self time of ``name`` spans: each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name)


@contextmanager
def patched(tracer: Tracer, targets):
    """Install ``tracer`` wrappers for ``(owner, attribute, name, options)``
    targets; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, opts in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, **opts))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
