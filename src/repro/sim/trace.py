"""Unified span records and Chrome-trace (Trace Event Format) export.

Every simulator in the repository describes busy time the same way: a
:class:`TraceSpan` — who (``name``), what kind of work (``category``) and
when (``start``/``end`` in virtual seconds).  A :class:`TraceRecorder`
collects spans and instantaneous markers from any number of sources (one
engine iteration, a whole multi-job schedule, or both merged) and exports
them as Chrome-trace JSON, loadable in ``chrome://tracing`` or
https://ui.perfetto.dev.

The exporter emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_:
complete events (``ph: "X"``) for spans, instant events (``ph: "i"``) for
markers, counter events (``ph: "C"``) for live metric tracks (queue depth,
free GPUs, cache hit ratio — rendered as stacked area tracks by Perfetto),
async events (``ph: "b"``/``"e"``) for the causal span trees of
:mod:`repro.obs.tracing`, flow arrows (``ph: "s"``/``"f"``) linking causally
related events across tracks, and metadata events (``ph: "M"``) naming
processes and threads.  Timestamps are microseconds; process/thread labels
are interned to stable integer ids.  :func:`validate_chrome_events` checks
the required keys (``ph``, ``ts``, ``pid``, ``tid``, ``name``) plus the
per-phase extras (numeric ``dur`` on spans, numeric ``args`` on counters,
an ``id`` on async and flow events) so exports are guaranteed to load
cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["TraceSpan", "TraceRecorder", "validate_chrome_events", "load_chrome_trace"]

_US_PER_S = 1e6


@dataclass(frozen=True)
class TraceSpan:
    """One interval of work on some resource, in virtual seconds."""

    name: str
    category: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceRecorder:
    """Collects spans/markers from many sources into one Chrome trace.

    ``process`` and ``thread`` are human-readable labels (e.g. the job name
    and ``"gpu 3"``); the recorder interns them to the integer ``pid``/``tid``
    ids the Trace Event Format requires and emits the matching metadata
    events, so the labels show up in the Perfetto UI.
    """

    _events: List[Dict[str, Any]] = field(default_factory=list)
    _pids: Dict[str, int] = field(default_factory=dict)
    _tids: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _n_threads: Dict[str, int] = field(default_factory=dict)
    """Threads interned so far per process (the next tid is this plus one)."""

    # ------------------------------------------------------------------ #
    # Label interning
    # ------------------------------------------------------------------ #
    def _pid(self, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self._events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        return pid

    def _tid(self, process: str, thread: str) -> int:
        key = (process, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._n_threads.get(process, 0) + 1
            self._n_threads[process] = tid
            self._tids[key] = tid
            self._events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": self._pid(process),
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": thread},
                }
            )
        return tid

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def add_span(
        self,
        process: str,
        thread: str,
        name: str,
        start_s: float,
        end_s: float,
        category: str = "",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one complete (``ph: "X"``) event from virtual seconds."""
        event: Dict[str, Any] = {
            "ph": "X",
            "ts": start_s * _US_PER_S,
            "dur": max(0.0, end_s - start_s) * _US_PER_S,
            "pid": self._pid(process),
            "tid": self._tid(process, thread),
            "name": name,
        }
        if category:
            event["cat"] = category
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def add_trace_span(self, process: str, thread: str, span: TraceSpan) -> None:
        """Record a :class:`TraceSpan` as a complete event."""
        self.add_span(process, thread, span.name, span.start, span.end, category=span.category)

    def add_instant(
        self,
        process: str,
        thread: str,
        name: str,
        time_s: float,
        category: str = "",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one instant (``ph: "i"``) marker event."""
        event: Dict[str, Any] = {
            "ph": "i",
            "ts": time_s * _US_PER_S,
            "pid": self._pid(process),
            "tid": self._tid(process, thread),
            "name": name,
            "s": "t",
        }
        if category:
            event["cat"] = category
        if args:
            event["args"] = dict(args)
        self._events.append(event)

    def add_counter(
        self,
        process: str,
        name: str,
        time_s: float,
        values: Mapping[str, float],
        category: str = "",
    ) -> None:
        """Record one counter (``ph: "C"``) sample at ``time_s``.

        Every distinct ``name`` (per process) renders as its own counter
        track; the ``values`` mapping's series stack within the track.
        Counter events live on ``tid`` 0 — tracks are named, not threaded.
        """
        event: Dict[str, Any] = {
            "ph": "C",
            "ts": time_s * _US_PER_S,
            "pid": self._pid(process),
            "tid": 0,
            "name": name,
            "args": {key: float(value) for key, value in values.items()},
        }
        if category:
            event["cat"] = category
        self._events.append(event)

    def add_async_span(
        self,
        process: str,
        thread: str,
        name: str,
        start_s: float,
        end_s: float,
        id: Union[str, int],
        category: str = "span",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record one async span as a ``ph: "b"``/``"e"`` event pair.

        Async events nest by ``(cat, id)`` rather than by stack order, which
        is what lets the causal span trees of :mod:`repro.obs.tracing` —
        whose spans overlap freely across threads and processes — render as
        separate tracks in Perfetto.  ``args`` travel on the begin event.
        """
        pid = self._pid(process)
        tid = self._tid(process, thread)
        begin: Dict[str, Any] = {
            "ph": "b",
            "ts": start_s * _US_PER_S,
            "pid": pid,
            "tid": tid,
            "name": name,
            "cat": category or "span",
            "id": str(id),
        }
        if args:
            begin["args"] = dict(args)
        self._events.append(begin)
        self._events.append(
            {
                "ph": "e",
                "ts": max(start_s, end_s) * _US_PER_S,
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": category or "span",
                "id": str(id),
            }
        )

    def add_flow(
        self,
        from_process: str,
        from_thread: str,
        from_time_s: float,
        to_process: str,
        to_thread: str,
        to_time_s: float,
        id: Union[str, int],
    ) -> None:
        """Record one causal flow arrow (``ph: "s"`` → ``ph: "f"``) between tracks.

        Flow events bind to the events at their ``(pid, tid, ts)``; the
        finish step carries ``bp: "e"`` (bind to enclosing slice), the form
        both chrome://tracing and Perfetto accept.  ``name``/``cat``/``id``
        must match between the two steps — the recorder guarantees that.
        Every flow is named ``causal``, in category ``flow``.
        """
        common = {"name": "causal", "cat": "flow", "id": str(id)}
        self._events.append(
            {
                "ph": "s",
                "ts": from_time_s * _US_PER_S,
                "pid": self._pid(from_process),
                "tid": self._tid(from_process, from_thread),
                **common,
            }
        )
        self._events.append(
            {
                "ph": "f",
                "bp": "e",
                "ts": to_time_s * _US_PER_S,
                "pid": self._pid(to_process),
                "tid": self._tid(to_process, to_thread),
                **common,
            }
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    @property
    def n_events(self) -> int:
        return len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """The recorded Trace Event Format events (validated)."""
        out = list(self._events)
        validate_chrome_events(out)
        return out

    def to_json(self) -> Dict[str, Any]:
        """The full Chrome-trace JSON object."""
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # json.dumps takes the C encoder; json.dump always streams through
        # the pure-Python one.  Same bytes, about twice as fast.
        path.write_text(json.dumps(self.to_json()))
        return path


_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

_ID_PHASES = ("b", "e", "n", "s", "t", "f")
"""Async (``b``/``e``/``n``) and flow (``s``/``t``/``f``) events match their
counterparts by ``id`` — a missing id silently orphans them in the UI."""


def validate_chrome_events(events: Sequence[Mapping[str, Any]]) -> None:
    """Check every event carries the Trace Event Format required keys.

    Raises ``ValueError`` on the first violation: a missing required key, a
    non-numeric timestamp, a complete event without a duration, a counter
    event without a mapping of numeric series values, or an async/flow event
    without the ``id`` its begin/end (or start/finish) matching needs.
    """
    for index, event in enumerate(events):
        for key in _REQUIRED_KEYS:
            if key not in event:
                raise ValueError(f"trace event {index} misses required key {key!r}: {event}")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"trace event {index} has non-numeric ts: {event['ts']!r}")
        if event["ph"] == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ValueError(f"complete trace event {index} misses numeric 'dur': {event}")
        if event["ph"] in _ID_PHASES:
            identifier = event.get("id")
            if not isinstance(identifier, (str, int)) or identifier in ("", None):
                raise ValueError(
                    f"async/flow trace event {index} misses its 'id': {event}"
                )
        if event["ph"] == "C":
            args = event.get("args")
            if not isinstance(args, Mapping) or not args:
                raise ValueError(
                    f"counter trace event {index} misses its 'args' series: {event}"
                )
            for series, value in args.items():
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"counter trace event {index} series {series!r} has "
                        f"non-numeric value {value!r}"
                    )


def load_chrome_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a Chrome-trace JSON file and validate its events.

    Accepts both the object form (``{"traceEvents": [...]}``) and the bare
    array form; returns the validated event list.
    """
    with Path(path).open() as handle:
        payload = json.load(handle)
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    validate_chrome_events(events)
    return events
