"""The discrete-event kernel: the event queue and virtual clock of the scheduler.

:class:`SimKernel` drives the cluster scheduler (:mod:`repro.sched`).  It is
deliberately small: a priority queue of :class:`Event` records ordered by
``(time, priority, seq)`` plus a monotone virtual clock.  Executors give
events an integer ``priority`` to fix the processing order of simultaneous
events (e.g. the scheduler processes capacity changes before arrivals before
completions at the same timestamp) and a ``kind`` tag that their handler
dispatches on.

:meth:`SimKernel.run` drains timestamps: after *all* events sharing the
earliest timestamp have been handled, an optional ``on_timestamp_drained``
hook runs — which is where the cluster scheduler makes placement decisions,
so simultaneous arrivals are never starved by a decision triggered a moment
"earlier".  Without the hook it is plain event-at-a-time handling.

The clock is an *observer* clock: ``now`` is the maximum time of any
processed event and never decreases.  An event scheduled before ``now``
fires on the next pop without moving the clock backwards.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Callable, List, Optional

from ..obs.metrics import get_registry

__all__ = ["Event", "SimKernel"]


class Event:
    """One scheduled occurrence in virtual time."""

    __slots__ = ("time", "priority", "seq", "kind", "payload", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, kind: str, payload: object) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.4f}, {self.kind!r}, prio={self.priority}{flag})"


class SimKernel:
    """Event queue plus monotone virtual clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._now = start_time
        self.n_processed = 0

    # ------------------------------------------------------------------ #
    # Clock and queue state
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current virtual time: the latest processed event time (monotone)."""
        return self._now

    @property
    def empty(self) -> bool:
        self._prune()
        return not self._heap

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event (``None`` when empty)."""
        self._prune()
        return self._heap[0].time if self._heap else None

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        time: float,
        kind: str,
        payload: object = None,
        priority: int = 0,
    ) -> Event:
        """Queue an event; ties break by ``priority`` then insertion order.

        ``time`` may be at or before :attr:`now` — such events fire on the
        next pop without moving the clock backwards.
        """
        event = Event(time, priority, next(self._seq), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        """Lazily remove a scheduled event (no-op if already processed)."""
        event.cancelled = True

    # ------------------------------------------------------------------ #
    # Processing
    # ------------------------------------------------------------------ #
    def _prune(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        self._prune()
        if not self._heap:
            raise IndexError("pop from an empty SimKernel")
        event = heapq.heappop(self._heap)
        self._now = max(self._now, event.time)
        self.n_processed += 1
        return event

    def run(
        self,
        handler: Callable[[Event], None],
        on_timestamp_drained: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Drain the queue, handling events in ``(time, priority, seq)`` order.

        All events sharing the earliest timestamp are handled back to back
        (including any the handler schedules *at* that same timestamp); then
        ``on_timestamp_drained(t)`` runs, then the loop moves to the next
        timestamp.  The loop ends when no events remain — handlers and the
        drain hook may keep scheduling new ones.

        Event-drain throughput is published to the metrics registry once per
        ``run()`` (``sim_events_total``, ``sim_events_per_sec``,
        ``sim_run_seconds``) — a single batched update, so the per-event hot
        loop carries no instrumentation cost.
        """
        wall_started = _time.perf_counter()
        processed_before = self.n_processed
        # The drain below is the fleet-scale hot loop: one inlined heap pass
        # per timestamp batch instead of a peek (prune) + pop (prune again)
        # method-call round trip per event.  Semantics are identical to the
        # naive loop: cancelled events are skipped, events the handler
        # schedules *at* the batch timestamp drain in the same batch, and the
        # clock only ever moves forward.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                head = heap[0]
                if head.cancelled:
                    heappop(heap)
                    continue
                batch_time = head.time
                if batch_time > self._now:
                    self._now = batch_time
                while heap:
                    head = heap[0]
                    if head.cancelled:
                        heappop(heap)
                        continue
                    if head.time != batch_time:
                        break
                    heappop(heap)
                    self.n_processed += 1
                    handler(head)
                if on_timestamp_drained is not None:
                    on_timestamp_drained(batch_time)
        finally:
            self._publish_run_metrics(
                self.n_processed - processed_before,
                _time.perf_counter() - wall_started,
            )

    @staticmethod
    def _publish_run_metrics(n_events: int, elapsed_s: float) -> None:
        registry = get_registry()
        if n_events <= 0:
            return
        registry.counter(
            "sim_events_total", "Discrete events processed across all kernel runs"
        ).inc(n_events)
        registry.gauge(
            "sim_events_per_sec", "Event-drain throughput of the last kernel run"
        ).set(n_events / max(elapsed_s, 1e-9))
        registry.histogram(
            "sim_run_seconds", "Wall-clock seconds of whole kernel runs"
        ).observe(elapsed_s)
