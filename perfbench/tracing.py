"""In-memory spans around calls into the program's layers.

The traced run wraps public functions and methods from the benchmark's
own files; nothing inside ``src/`` is changed.  A span is ``(name,
start, end, parent)``; spans nest because every wrapped call is
synchronous and single-threaded.  A layer's self time is the duration of
its spans minus the part their direct children cover; ``residual`` is
the part of the operations' wall time that no layer span covers.
"""

import functools
import time


class Tracer:
    def __init__(self):
        #: ``[name, start, end, parent_index]``; the parent of an
        #: operation's root span is ``None``.
        self.spans = []
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called *name*."""
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, owner, attribute, name):
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        # Restore what the owner itself held (a classmethod descriptor
        # rather than the bound method ``getattr`` returns).
        saved = vars(owner)[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, saved))

    def restore(self):
        while self._patched:
            owner, attribute, saved = self._patched.pop()
            setattr(owner, attribute, saved)

    # -- reports -----------------------------------------------------------

    def self_times(self, root_name):
        """Seconds of self time per span name, over the spans inside
        ``root_name`` spans (the operations), roots included."""
        child_time = [0.0] * len(self.spans)
        inside = [False] * len(self.spans)
        totals = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent is None:
                inside[i] = name == root_name
            else:
                inside[i] = inside[parent]
                child_time[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if inside[i]:
                totals[name] = (totals.get(name, 0.0)
                                + (end - start) - child_time[i])
        return totals

    def wall_and_covered(self, root_name):
        """Total duration of the ``root_name`` spans and the part of it
        that their direct children cover, computed from the intervals
        alone (an independent cross-check of :meth:`self_times`)."""
        wall = covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name != root_name:
                continue
            wall += end - start
            intervals = sorted((s, e) for _n, s, e, p in self.spans if p == i)
            cursor = start
            for s, e in intervals:
                s = max(s, cursor)
                if e > s:
                    covered += e - s
                    cursor = e
        return wall, covered

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
