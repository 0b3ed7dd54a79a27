"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions at the module attributes their
callers look up (``blockpart.mmio.build_csr``, ``blockpart.calibrate.to_vbr``
and so on), records one span per call and restores the originals when
the ``installed`` block ends. Nothing is wrapped outside that block, so
the untraced runs call the package unchanged.
"""

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "run")

    def __init__(self, name, start, end, parent, run):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run

    def __repr__(self):
        return f"Span({self.name!r}, {self.start}, {self.end}, parent={self.parent}, run={self.run})"


class SpanRecorder:
    """Spans as (name, start ns, end ns, parent index or -1, run id)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.run = 0
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, self.clock(), None, parent, self.run))
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = self.clock()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(module, attribute, span name)`` target, then restore."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def require(self, names):
        """Raise if any expected span name never fired."""
        missing = sorted(set(names) - {s.name for s in self.spans})
        if missing:
            raise RuntimeError(f"expected spans never fired: {missing}")


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out
