"""Outside-in span tracer: wraps the public bindings of each layer.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.wrap`
replaces a module attribute or a class attribute with a wrapper that
records one span per call, so a layer is timed at exactly the name its
caller looks up.  Spans are ``(id, name, start, end, parent, thread,
key, count)`` records held in memory; :meth:`Tracer.dump` writes them
out once the run is over.  ``count`` is the work a call did (rows,
cells), summed per counter by :meth:`Tracer.counts`, so a time window
of spans carries its own counts.

Span stacks are thread-local (the service runs its engine on a worker
thread), and every wrapped callable is synchronous, so spans on one
thread always nest.  A span's *self time* is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import itertools
import json
import threading
import time
from typing import Any, Callable

__all__ = ["Tracer", "percentile"]

#: ``count(args) -> int``: the work one call did, from its positional args.
CountFn = Callable[[tuple], int]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; ``0.0`` for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil, at least 1
    return float(ordered[int(rank) - 1])


class Tracer:
    """In-memory span recorder plus the patch list that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Span name -> the counter its ``count`` values add to.
        self.counters: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        count: tuple[str, CountFn] | None = None,
        key: Callable[[tuple], Any] | None = None,
        after: Callable[[tuple, Any, float], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``count`` is ``(counter_name, fn)``; ``key`` maps the call's
        positional arguments to the span's identity (e.g. an ``IoOp``);
        ``after(args, result, end)`` runs once the call has returned.
        A call that raises still records its span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        if count is not None:
            self.counters[name] = count[0]
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    [sid, name, start, end, parent, threading.get_ident(),
                     key(args) if key else None, int(count[1](args)) if count else 0]
                )
            if after is not None:
                after(args, result, end)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def add_span(self, name: str, start: float, end: float, key: Any = None) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        self.spans.append([next(self._ids), name, start, end, 0, 0, key, 0])

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child_time: dict[int, float] = collections.defaultdict(float)
        for span in self.spans:
            if span[4]:
                child_time[span[4]] += span[3] - span[2]
        out: dict[str, float] = collections.defaultdict(float)
        for sid, name, start, end, *_ in self.spans:
            out[name] += (end - start) - child_time.get(sid, 0.0)
        return dict(out)

    def counts(self) -> collections.Counter:
        """Work per counter, summed over the recorded spans."""
        out: collections.Counter = collections.Counter()
        for span in self.spans:
            if span[1] in self.counters:
                out[self.counters[span[1]]] += span[7]
        return out

    def window(self, lo: float, hi: float) -> "Tracer":
        """A tracer holding only the spans that lie within ``[lo, hi]``."""
        part = Tracer()
        part.spans = [s for s in self.spans if lo <= s[2] and s[3] <= hi]
        part.counters = self.counters
        return part

    def calls(self) -> collections.Counter:
        """Calls per span name."""
        return collections.Counter(s[1] for s in self.spans)

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``."""
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def covered(self, lo: float, hi: float, tid: int | None = None) -> float:
        """Seconds of ``[lo, hi]`` covered by any top-level span.

        Restricted to one thread when ``tid`` is given.
        """
        intervals = sorted(
            (max(s[2], lo), min(s[3], hi))
            for s in self.spans
            if s[4] == 0 and s[5] != 0 and (tid is None or s[5] == tid)
            and s[3] > lo and s[2] < hi
        )
        total = 0.0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        return total

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "thread",
                               "key", "count"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Rebuild a tracer (for reduction only) from :meth:`dump` output."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        tracer = cls()
        tracer.spans = doc["spans"]
        tracer.counters = doc["counters"]
        return tracer
