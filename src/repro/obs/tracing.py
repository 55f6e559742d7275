"""Cross-layer causal span tracing (scheduler → service → search chains).

The metrics registry (:mod:`repro.obs.metrics`) answers *how much*; this
module answers *why this job got this plan*: a lightweight span-tree tracer
that follows one scheduling decision through every layer it touches.

* A :class:`SpanContext` is the portable identity of a span —
  ``trace_id``/``span_id``/``parent_id`` — and nothing else, so it pickles
  across process boundaries.
* :meth:`Tracer.start_span` is a context manager that opens a child of the
  *implicitly current* span (a ``contextvars.ContextVar``, so propagation
  follows the call stack and survives thread hops made with
  :meth:`Tracer.activate`).
* Cross-**process** propagation is explicit: the parent ships a
  :class:`SpanContext` inside the search work units
  (:class:`~repro.core.parallel_search.ChainProblem` /
  :class:`~repro.core.parallel_search.ChainState`), workers record finished
  :class:`SpanRecord` entries locally and return them with their results,
  and the parent folds them back in with :meth:`Tracer.extend`.  Span
  timestamps use the shared wall clock (``time.time()``), so records from
  different processes land on one consistent timeline.
* :meth:`Tracer.record_chrome` merges the span tree into a
  :class:`~repro.sim.trace.TraceRecorder` as Chrome-trace async events
  (``ph: "b"``/``"e"``) plus flow arrows (``ph: "s"``/``"f"``) from each
  parent to each child — Perfetto then draws the
  scheduler-decision → service-request → per-chain-search causality inside
  the same trace file as the virtual-time cluster timeline.

``REPRO_TRACING=off`` (default on, mirroring ``REPRO_METRICS``) makes
:meth:`start_span` return a shared no-op span whose context is ``None`` —
instrumented hot paths cost one attribute check and nothing is recorded.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional

from .. import knobs

__all__ = [
    "tracing_enabled",
    "SpanContext",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "current_span",
]


def tracing_enabled() -> bool:
    """Whether span recording is live (the ``REPRO_TRACING`` flag, default on)."""
    return knobs.get("REPRO_TRACING")


@dataclass(frozen=True)
class SpanContext:
    """Portable identity of one span (picklable, immutable).

    ``trace_id`` groups every span of one causal tree; ``span_id`` is unique
    per span (process-qualified, so ids minted in worker processes never
    collide with the parent's); ``parent_id`` is ``None`` for roots.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def child(self) -> "SpanContext":
        """Mint a fresh child context of this span."""
        return SpanContext(
            trace_id=self.trace_id, span_id=_new_id(), parent_id=self.span_id
        )


@dataclass
class SpanRecord:
    """One finished span (picklable — workers ship these back).

    Timestamps are ``time.time()`` seconds: the one clock that is consistent
    across the processes of one machine, which is what lets worker-side
    chain spans merge onto the parent's timeline.
    """

    name: str
    category: str
    start_s: float
    end_s: float
    context: SpanContext
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


_ids = itertools.count(1)


def _new_id() -> str:
    """A span/trace id unique across the processes of one run."""
    return f"{os.getpid():x}-{next(_ids):x}"


_current_span: "ContextVar[Optional[SpanContext]]" = ContextVar(
    "repro_current_span", default=None
)


def current_span() -> Optional[SpanContext]:
    """The implicitly propagated span context of the calling context."""
    return _current_span.get()


class _NullSpan:
    """Shared no-op span handle (``REPRO_TRACING=off`` / disabled tracer)."""

    __slots__ = ()
    context: Optional[SpanContext] = None

    def set(self, **_args: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_IMPLICIT = object()
"""Sentinel: ``start_span(parent=_IMPLICIT)`` parents under the current span."""


class _ActiveSpan:
    """A live span: context manager that records on exit.

    ``set(key=value, ...)`` attaches arguments at any point before exit
    (e.g. an outcome only known at the end of the spanned work).
    """

    __slots__ = ("_tracer", "name", "category", "context", "args", "_start_s", "_token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        context: SpanContext,
        args: Optional[Mapping[str, Any]],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.context = context
        self.args: Dict[str, Any] = dict(args) if args else {}
        self._start_s = 0.0
        self._token = None

    def set(self, **args: Any) -> "_ActiveSpan":
        self.args.update(args)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._start_s = time.time()
        self._token = _current_span.set(self.context)
        return self

    def __exit__(self, *_exc: object) -> bool:
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        self._tracer._append(
            SpanRecord(
                name=self.name,
                category=self.category,
                start_s=self._start_s,
                end_s=time.time(),
                context=self.context,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Collects the span tree of a run; thread-safe.

    The default process-global tracer (:func:`get_tracer`) is what every
    instrumented layer reports into, so one scheduler run's spans — whether
    opened on the scheduler thread, a plan-service worker thread or shipped
    back from a search worker process — accumulate in a single place.
    Consumers snapshot :attr:`n_records` before a run and export the delta
    (see :meth:`record_chrome`).
    """

    def __init__(self, enabled: Optional[bool] = None) -> None:
        self.enabled = tracing_enabled() if enabled is None else bool(enabled)
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Any = _IMPLICIT,
        args: Optional[Mapping[str, Any]] = None,
    ):
        """Open a span as a context manager.

        ``parent`` defaults to the implicitly current span; pass an explicit
        :class:`SpanContext` to graft the span elsewhere in the tree (e.g. a
        scheduler-side swap decision under the service-side poll that found
        the winning plan), or ``None`` to force a new root.  When tracing is
        disabled the shared no-op span (``context is None``) is returned.
        """
        if not self.enabled:
            return _NULL_SPAN
        parent_ctx = current_span() if parent is _IMPLICIT else parent
        if parent_ctx is not None:
            context = parent_ctx.child()
        else:
            context = SpanContext(trace_id=_new_id(), span_id=_new_id())
        return _ActiveSpan(self, name, category, context, args)

    @contextmanager
    def activate(self, context: Optional[SpanContext]) -> Iterator[None]:
        """Make ``context`` the implicit parent for the enclosed block.

        The cross-*thread* propagation primitive: a worker thread activates
        the context captured at submit time, then opens spans normally.
        """
        token = _current_span.set(context)
        try:
            yield
        finally:
            _current_span.reset(token)

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def extend(self, records: Iterable[SpanRecord]) -> int:
        """Fold spans recorded elsewhere (worker processes) into this tracer."""
        if not self.enabled:
            return 0
        added = list(records)
        if not added:
            return 0
        with self._lock:
            self._records.extend(added)
        return len(added)

    # ------------------------------------------------------------------ #
    # Reading / export
    # ------------------------------------------------------------------ #
    @property
    def n_records(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self, since: int = 0) -> List[SpanRecord]:
        """Finished spans recorded at index ``since`` or later."""
        with self._lock:
            return list(self._records[since:])

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def record_chrome(
        self,
        recorder: Any,
        since: int = 0,
        process: str = "planning",
        epoch_s: Optional[float] = None,
    ) -> int:
        """Merge the span tree into a Chrome-trace recorder; returns #spans.

        Spans become async events (``ph: "b"``/``"e"``) on a ``process``
        whose threads are the span categories, rebased so the earliest span
        starts at zero (or at ``epoch_s`` wall-clock seconds).  Every
        parent→child edge within the exported set additionally gets a flow
        arrow (``ph: "s"`` at the parent's begin → ``ph: "f"`` at the
        child's begin), which Perfetto renders as the causal arrows between
        tracks.  ``recorder`` is a :class:`~repro.sim.trace.TraceRecorder`
        (duck-typed — this module never imports the simulator).
        """
        records = self.records(since)
        if not records:
            return 0
        epoch = min(r.start_s for r in records) if epoch_s is None else epoch_s
        by_id = {r.context.span_id: r for r in records}
        for record in records:
            thread = record.category or "spans"
            args = dict(record.args)
            args["trace_id"] = record.context.trace_id
            args["span_id"] = record.context.span_id
            if record.context.parent_id is not None:
                args["parent_id"] = record.context.parent_id
            recorder.add_async_span(
                process,
                thread,
                record.name,
                record.start_s - epoch,
                record.end_s - epoch,
                id=record.context.span_id,
                category=record.category or "span",
                args=args,
            )
        for record in records:
            parent_id = record.context.parent_id
            parent = by_id.get(parent_id) if parent_id is not None else None
            if parent is None:
                continue
            recorder.add_flow(
                process,
                parent.category or "spans",
                parent.start_s - epoch,
                process,
                record.category or "spans",
                record.start_s - epoch,
                id=record.context.span_id,
                name="causal",
            )
        return len(records)


_TRACER = Tracer()
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented layer reports into."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests, isolated runs); returns the old one."""
    global _TRACER
    with _tracer_lock:
        previous, _TRACER = _TRACER, tracer
    return previous
