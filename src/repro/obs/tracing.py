"""Cross-layer causal span tracing (scheduler → service → search chains).

The metrics registry (:mod:`repro.obs.metrics`) answers *how much*; this
module answers *why this job got this plan*: a lightweight span-tree tracer
that follows one scheduling decision through every layer it touches.

* A :class:`SpanContext` is the identity of a span —
  ``trace_id``/``span_id``/``parent_id`` — and nothing else.
* :meth:`Tracer.start_span` is a context manager that opens a child of the
  *implicitly current* span (a ``contextvars.ContextVar``, so propagation
  follows the call stack).
* Search chains carry their parent explicitly: each
  :class:`~repro.core.search.ChainState` holds the :class:`SpanContext` of
  the search or poll that advances it, and every chain slice appends one
  finished :class:`SpanRecord` under it with :meth:`Tracer.append`.  Span
  timestamps are wall-clock seconds (``time.time()``).
* :meth:`Tracer.record_chrome` merges the span tree into a
  :class:`~repro.sim.trace.TraceRecorder` as Chrome-trace async events
  (``ph: "b"``/``"e"``) plus flow arrows (``ph: "s"``/``"f"``) from each
  parent to each child — Perfetto then draws the
  scheduler-decision → service-request → per-chain-search causality inside
  the same trace file as the virtual-time cluster timeline.

Tracing always records.  The tracer keeps only the newest
``_MAX_RECORDS`` spans; :attr:`Tracer.n_records` counts every span ever
appended, so a consumer that snapshots it before a run exports exactly
that run's spans with ``records(since)`` for as long as they are held.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional

__all__ = [
    "SpanContext",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "current_span",
]

_MAX_RECORDS = 16384
"""How many of the newest finished spans a :class:`Tracer` holds."""


@dataclass(frozen=True)
class SpanContext:
    """Identity of one span (immutable).

    ``trace_id`` groups every span of one causal tree; ``span_id`` is unique
    per span; ``parent_id`` is ``None`` for roots.
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
    """One finished span; timestamps are ``time.time()`` seconds."""

    name: str
    category: str
    start_s: float
    end_s: float
    context: SpanContext
    args: Dict[str, Any] = field(default_factory=dict)


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
        self._tracer.append(
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
    """Collects the span tree of a run; not thread-safe.

    The default process-global tracer (:func:`get_tracer`) is what every
    instrumented layer reports into, so one scheduler run's spans — the
    scheduler's, the plan service's and the search chains' alike —
    accumulate in a single place.  It holds the newest ``_MAX_RECORDS``
    spans.  Consumers snapshot :attr:`n_records` before a run and export
    the delta (see :meth:`record_chrome`).
    """

    def __init__(self) -> None:
        self._records: Deque[SpanRecord] = deque(maxlen=_MAX_RECORDS)
        self._n_records = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def start_span(
        self,
        name: str,
        category: str = "",
        parent: Any = _IMPLICIT,
        args: Optional[Mapping[str, Any]] = None,
    ) -> _ActiveSpan:
        """Open a span as a context manager.

        ``parent`` defaults to the implicitly current span; pass an explicit
        :class:`SpanContext` to graft the span elsewhere in the tree (e.g. a
        scheduler-side swap decision under the service-side poll that found
        the winning plan), or ``None`` to force a new root.
        """
        parent_ctx = current_span() if parent is _IMPLICIT else parent
        if parent_ctx is not None:
            context = parent_ctx.child()
        else:
            context = SpanContext(trace_id=_new_id(), span_id=_new_id())
        return _ActiveSpan(self, name, category, context, args)

    def append(self, record: SpanRecord) -> None:
        """Record one finished span, evicting the oldest beyond the cap."""
        self._records.append(record)
        self._n_records += 1

    # ------------------------------------------------------------------ #
    # Reading / export
    # ------------------------------------------------------------------ #
    @property
    def n_records(self) -> int:
        """Spans appended over the tracer's life, evicted ones included."""
        return self._n_records

    @property
    def first_held(self) -> int:
        """Index of the oldest span still held (``n_records`` when none is)."""
        return self._n_records - len(self._records)

    def records(self, since: int = 0) -> List[SpanRecord]:
        """Held spans whose index is ``since`` or later."""
        skip = max(0, since - self.first_held)
        return list(itertools.islice(self._records, skip, None))

    def record_chrome(self, recorder: Any, since: int = 0) -> int:
        """Merge the span tree into a Chrome-trace recorder; returns #spans.

        Spans become async events (``ph: "b"``/``"e"``) on the ``planning``
        process, whose threads are the span categories, rebased so the
        earliest span starts at zero.  Every parent→child edge within the
        exported set additionally gets a flow arrow (``ph: "s"`` at the
        parent's begin → ``ph: "f"`` at the child's begin), which Perfetto
        renders as the causal arrows between tracks.  ``recorder`` is a
        :class:`~repro.sim.trace.TraceRecorder` (duck-typed — this module
        never imports the simulator).
        """
        records = self.records(since)
        if not records:
            return 0
        process = "planning"
        epoch = min(r.start_s for r in records)
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
            )
        return len(records)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented layer reports into."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests, isolated runs); returns the old one."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    return previous
