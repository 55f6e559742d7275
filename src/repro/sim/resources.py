"""Resource occupancy bookkeeping of the runtime engine.

A :class:`ResourceTimeline` records when one GPU is busy, with what and in
which cost category, as a sequence of :class:`~repro.sim.trace.TraceSpan`
records.  A :class:`TimelinePool` holds one timeline per GPU of a cluster and
answers group-availability queries.

The runtime engine (:mod:`repro.runtime.engine`) charges every call's
reallocation, data-transfer and compute phases on a pool; its
:class:`~repro.runtime.engine.IterationTrace` keeps each GPU's spans and
per-category seconds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .trace import TraceSpan

__all__ = ["ResourceTimeline", "TimelinePool"]


class ResourceTimeline:
    """Busy-time ledger of one resource, FIFO-ordered.

    ``occupy`` charges a sequence of per-category durations starting at
    ``start`` and returns the completion time.  Starts may not precede the
    resource's current availability — the executor is responsible for
    querying :attr:`free_at` first, which is exactly the FIFO discipline the
    paper's model workers enforce on their request queues.
    """

    __slots__ = ("resource_id", "free_at", "spans")

    def __init__(self, resource_id: int) -> None:
        self.resource_id = resource_id
        self.free_at: float = 0.0
        self.spans: List[TraceSpan] = []

    def occupy(self, start: float, durations: Mapping[str, float], label: str) -> float:
        """Occupy the resource from ``start`` for the per-category durations.

        Zero and negative durations are skipped.  Returns the completion
        time; raises ``ValueError`` when ``start`` precedes availability.
        """
        if start < self.free_at - 1e-9:
            raise ValueError(
                f"resource {self.resource_id} asked to start at {start:.3f} "
                f"but is busy until {self.free_at:.3f}"
            )
        clock = start
        for category, duration in durations.items():
            if duration <= 0:
                continue
            self.spans.append(
                TraceSpan(name=label, category=category, start=clock, end=clock + duration)
            )
            clock += duration
        self.free_at = max(self.free_at, clock)
        return clock

    def categories(self) -> Dict[str, float]:
        """Busy seconds per cost category."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.category] = out.get(span.category, 0.0) + span.duration
        return out


class TimelinePool:
    """One timeline per GPU of a cluster, indexed by GPU id."""

    def __init__(self, n_resources: int) -> None:
        self.timelines: List[ResourceTimeline] = [
            ResourceTimeline(resource_id=rid) for rid in range(n_resources)
        ]

    def __getitem__(self, resource_id: int) -> ResourceTimeline:
        return self.timelines[resource_id]

    def free_at(self, resource_ids: Tuple[int, ...]) -> float:
        """Earliest time at which every resource in the group is free."""
        return max(self.timelines[rid].free_at for rid in resource_ids)
