"""Shared discrete-event simulation substrate.

Both simulators of the reproduction — the iteration-level runtime engine
(:mod:`repro.runtime`) that produces the paper's Figure 11/12 and Table 6
numbers, and the cluster-level multi-job scheduler (:mod:`repro.sched`) —
are built on this package instead of hand-rolled bookkeeping:

* :mod:`repro.sim.kernel` — the event queue (:class:`SimKernel`) that
  drives the scheduler: it schedules :class:`Event` records and drains
  them through :meth:`SimKernel.run`.
* :mod:`repro.sim.resources` — per-resource occupancy bookkeeping
  (:class:`ResourceTimeline`, :class:`TimelinePool`): busy spans per cost
  category with FIFO enforcement.  The engine list-schedules calls onto
  one timeline per GPU.
* :mod:`repro.sim.trace` — the unified span record (:class:`TraceSpan`) and
  the Chrome-trace (``chrome://tracing`` / Perfetto JSON) exporter
  (:class:`TraceRecorder`), so a single run — one engine iteration or a
  whole multi-job schedule — exports one merged, loadable trace file.
"""

from .kernel import Event, SimKernel
from .resources import ResourceTimeline, TimelinePool
from .trace import (
    TraceRecorder,
    TraceSpan,
    load_chrome_trace,
    validate_chrome_events,
)

__all__ = [
    "Event",
    "SimKernel",
    "ResourceTimeline",
    "TimelinePool",
    "TraceSpan",
    "TraceRecorder",
    "validate_chrome_events",
    "load_chrome_trace",
]
