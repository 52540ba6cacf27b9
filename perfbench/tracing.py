"""In-memory span recorder that wraps layer entry points from the outside.

The benchmark never edits the package under test.  A traced run replaces
selected public callables (bound methods on live objects, or functions on
a class or module) with wrappers that open a span around each call, and
puts the originals back when the run ends.

A span records its name, start, end, parent span and trace id.  A span
with no open parent on its thread starts a new trace, so every span of
one training round (opened under that round's span) or of one gateway
tick (one scoring call on the dispatcher thread) shares an id.  Spans are
kept in memory and written out once, after the run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional


#: Span names that only give a round its frame; every other span is a layer.
STRUCTURAL = ("run", "round")


class Span:
    __slots__ = ("id", "name", "trace", "parent", "thread", "start", "end")

    def __init__(self, span_id, name, trace, parent, thread, start):
        self.id = span_id
        self.name = name
        self.trace = trace
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "trace": self.trace,
            "parent": self.parent, "thread": self.thread,
            "start": self.start, "end": self.end,
        }


class Tracer:
    """Collects spans from any thread; see the module docstring."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
            trace = parent.trace if parent is not None else next(self._traces)
        span = Span(span_id, name, trace, parent.id if parent else None,
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`restore`.

        ``owner`` may be an instance (the wrapper shadows the bound method),
        a class (the wrapper becomes the method for every instance) or a
        module.  ``on_call(tracer, result)`` may record counts.
        """
        had_own = attr in vars(owner)
        # On a class this is the plain function, so ``self`` passes through.
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_call is not None:
                on_call(tracer, result)
            return result

        setattr(owner, attr, traced)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------
    def export(self) -> List[dict]:
        return [span.to_dict() for span in sorted(self.spans, key=lambda s: s.id)]


def _clip(span: Span, lo: float, hi: float) -> float:
    return max(0.0, min(span.end, hi) - max(span.start, lo))


def self_times(spans: Iterable[Span], lo: float, hi: float) -> Dict[int, float]:
    """Span id -> its duration inside ``[lo, hi]`` minus its children's."""
    spans = list(spans)
    own = {span.id: _clip(span, lo, hi) for span in spans}
    result = dict(own)
    for span in spans:
        if span.parent in result:
            result[span.parent] -= own[span.id]
    return result


def account(spans: List[Span], lo: float, hi: float,
            work_thread: int) -> Dict[str, float]:
    """Per-layer self time in ``[lo, hi]`` plus the unattributed remainder.

    Layer times sum over every thread.  ``unattributed_s`` is the part of
    the window that no layer span on ``work_thread`` covers (the thread
    that runs the rounds, or the gateway dispatcher).  Spans of one thread
    nest, so on that thread the layer self times plus ``unattributed_s``
    equal the window by construction.
    """
    selfs = self_times(spans, lo, hi)
    per_layer: Dict[str, float] = defaultdict(float)
    intervals = []
    for span in spans:
        if span.name in STRUCTURAL:
            continue
        per_layer[span.name] += selfs[span.id]
        if span.thread == work_thread:
            intervals.append((max(span.start, lo), min(span.end, hi)))
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return {"layers": dict(per_layer), "unattributed_s": (hi - lo) - covered}


def under(span: Span, ancestor: str, by_id: Dict[int, Span]) -> bool:
    """Whether ``span`` has an ancestor span named ``ancestor``."""
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == ancestor:
            return True
        parent = by_id.get(parent.parent)
    return False
