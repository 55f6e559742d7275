"""The discrete-event kernel: the event queue of the cluster scheduler.

:class:`SimKernel` drives the cluster scheduler (:mod:`repro.sched`).  It is
deliberately small: a priority queue of :class:`Event` records ordered by
``(time, priority, seq)``.  Executors give events an integer ``priority`` to
fix the processing order of simultaneous events (e.g. the scheduler
processes capacity changes before arrivals before completions at the same
timestamp) and a ``kind`` tag that their handler dispatches on.

An :class:`Event` *is* its heap key: a ``list`` subclass whose three items
are ``[time, priority, seq]``, with the rest of the record in slots.  The
heap therefore compares entries with ``list``'s own C comparison (``seq`` is
unique, so it never looks past the key), holding one object per event and
running no Python ``__lt__``.

:meth:`SimKernel.run` is the one way to drain the queue.  It drains
timestamps: after *all* events sharing the earliest timestamp have been
handled, an optional ``on_timestamp_drained`` hook runs — which is where the
cluster scheduler makes placement decisions, so simultaneous arrivals are
never starved by a decision triggered a moment "earlier".  Without the hook
it is plain event-at-a-time handling.  An event scheduled before the
timestamp being drained fires next: it closes the current batch, and the
rest of that timestamp drains as a new batch after it.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Callable, List, Optional

from ..obs.metrics import get_registry

__all__ = ["Event", "SimKernel"]


class Event(list):
    """One scheduled occurrence in virtual time.

    The list items are the heap key ``[time, priority, seq]``; ``time`` is
    also a slot, since handlers read it.  Events compare as lists, by key.
    """

    __slots__ = ("time", "kind", "payload", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, kind: str, payload: object) -> None:
        self.extend((time, priority, seq))
        self.time = time
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.4f}, {self.kind!r}, prio={self[1]}{flag})"


class SimKernel:
    """Event queue drained in ``(time, priority, seq)`` order by :meth:`run`."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self.n_processed = 0

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

        ``time`` may lie before the timestamp being drained; such an event
        fires next (see the module docstring).
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
        # per timestamp batch.  Cancelled events are skipped, and events the
        # handler schedules *at* the batch timestamp drain in the same batch.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                head = heap[0]
                if head.cancelled:
                    heappop(heap)
                    continue
                batch_time = head.time
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
