"""Hierarchical tracing spans for the flow engines.

A :class:`Tracer` records a tree of timed :class:`Span` objects: each
stage of the flow (and each hot inner phase — opt iterations, placement
passes, rip-up rounds, CTS levels) opens a span, does its work, and the
span's monotonic start/end plus any attached attributes become part of
the run's trace.  Traces are artifacts like GDS: they serialize to JSONL
(:mod:`repro.obs.events`) and render as timelines (:mod:`repro.obs.report`).

Two tracers exist:

* :class:`Tracer` — the real thing: thread-safe, monotonic clock (or any
  injected clock, e.g. simulated minutes for the cloud platform),
  parent/child ids tracked per thread.
* :data:`NULL_TRACER` — a no-op whose :meth:`~NullTracer.span` returns a
  shared singleton and does no allocation, timing, or bookkeeping, so
  instrumentation is effectively free when tracing is off.  Hot paths
  that would pay even for building attribute values guard them with
  ``if tracer.enabled:``.

The process-wide default is the no-op tracer; :func:`set_tracer` /
:func:`use_tracer` install a real one, and every instrumented function
also accepts an explicit ``tracer=`` argument that overrides the default.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One timed operation in a trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    #: Back-reference used only while the span is open; excluded from
    #: equality so a deserialized span compares equal to the original.
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._tracer is not None:
            if exc_type is not None:
                self.attributes.setdefault("error", exc_type.__name__)
            self._tracer.finish(self)
        return False


class _NullSpan:
    """Shared do-nothing span; every no-op ``span()`` call returns it."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attributes: dict[str, object] = {}

    def set(self, **attributes) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost tracer: short-circuits before any work happens."""

    enabled = False
    spans: tuple[Span, ...] = ()

    def span(self, name: str, **attributes) -> _NullSpan:
        return NULL_SPAN

    def add_span(self, name, start_s, end_s, parent_id=None, **attributes):
        return NULL_SPAN

    def finish(self, span: Span) -> None:
        pass

    def current(self) -> None:
        return None

    def mark(self) -> int:
        return 0

    def since(self, mark: int) -> list[Span]:
        return []

    def find(self, name: str, mark: int = 0) -> None:
        return None

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe hierarchical span recorder.

    Finished spans accumulate in :attr:`spans` in completion order
    (children before their parents).  The parent of a new span is the
    innermost span still open *on the same thread*, so concurrent flows
    on different threads produce disjoint trees on one tracer.

    ``clock`` defaults to :func:`time.perf_counter`; pass a different
    callable to trace simulated time (the cloud platform does this with
    its event clock, via :meth:`add_span`).
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[Span] = []

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attributes) -> Span:
        """Open a child span of the current one; use as a context manager."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(
            span_id=next(self._ids),
            parent_id=parent,
            name=name,
            start_s=self._clock(),
            attributes=attributes,
            _tracer=self,
        )
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end_s = self._clock()
        span._tracer = None
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # out-of-order exit: tolerate, don't corrupt
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent_id: int | None = None,
        **attributes,
    ) -> Span:
        """Record an already-timed span (simulated or derived timestamps)."""
        span = Span(
            span_id=next(self._ids),
            parent_id=parent_id,
            name=name,
            start_s=start_s,
            end_s=end_s,
            attributes=dict(attributes),
        )
        with self._lock:
            self.spans.append(span)
        return span

    # -- queries -----------------------------------------------------------

    def mark(self) -> int:
        """A position in the finished-span log; pass to :meth:`since`."""
        with self._lock:
            return len(self.spans)

    def since(self, mark: int) -> list[Span]:
        """Finished spans recorded after ``mark`` (completion order)."""
        with self._lock:
            return self.spans[mark:]

    def find(self, name: str, mark: int = 0) -> Span | None:
        """The most recently finished span named ``name`` after ``mark``."""
        with self._lock:
            for span in reversed(self.spans[mark:]):
                if span.name == name:
                    return span
        return None

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
        self._local = threading.local()


#: Process-wide default tracer; instrumentation reads it via get_tracer().
_default_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide default tracer (the no-op tracer unless installed)."""
    return _default_tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the process-wide default; returns the old one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scoped :func:`set_tracer`: restore the previous default on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
