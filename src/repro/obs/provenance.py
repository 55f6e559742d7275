"""Decision-provenance ledger: *why* each scheduling decision went that way.

Where :mod:`repro.obs.tracing` records *when* the layers of one decision
ran, the provenance ledger records the arithmetic behind the decisions
themselves, as structured events:

* ``decision_wave`` — one :meth:`~repro.sched.costing.PlanCosting.score`
  call: every candidate ``(job, partition)`` with its scored cost,
  feasibility and how the service answered it;
* ``placement`` — the candidate the policy actually picked, with the reason
  and the plan's cache lineage (cold / warm-started-from-*X* / exact hit);
* ``swap`` — one hot-swap evaluation at an iteration boundary, **accept or
  reject**, with the full margin arithmetic (planned vs. candidate cost,
  switch charge, amortization over remaining iterations, the ratio and the
  threshold it was held against);
* ``plan_request`` — one :meth:`~repro.service.server.PlanService` answer:
  hit/cold/warm plus which cached entry seeded a warm-started search.

Events append to the process-global :class:`ProvenanceLedger`
(:func:`get_ledger`), mirroring the metrics registry and tracer; a
scheduler run snapshots :attr:`ProvenanceLedger.n_events` before starting
and serializes its delta as a ``PROVENANCE_*.jsonl`` file next to the
Chrome trace (one JSON object per line, ``kind`` + ``seq`` always present).
The ledger holds the newest ``_MAX_EVENTS`` events; ``seq`` keeps counting
past evictions, so a file whose first events were evicted shows the gap.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

__all__ = [
    "ProvenanceLedger",
    "get_ledger",
    "set_ledger",
    "write_provenance",
    "load_provenance",
]


_MAX_EVENTS = 16384
"""How many of the newest events a :class:`ProvenanceLedger` holds."""


class ProvenanceLedger:
    """Bounded log of decision events; thread-safe.

    Events are plain dicts (JSON-serializable by construction of the
    callers); the ledger stamps each with a monotonically increasing
    ``seq`` so files stay ordered even when several threads record.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=_MAX_EVENTS)
        self._n_events = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event, evicting the oldest beyond the cap."""
        with self._lock:
            event = {"kind": kind, "seq": self._n_events}
            event.update(fields)
            self._events.append(event)
            self._n_events += 1

    @property
    def n_events(self) -> int:
        """Events recorded over the ledger's life, evicted ones included."""
        with self._lock:
            return self._n_events

    @property
    def first_held(self) -> int:
        """``seq`` of the oldest event still held (``n_events`` when none is)."""
        with self._lock:
            return self._n_events - len(self._events)

    def events(self, since: int = 0, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Held events whose ``seq`` is ``since`` or later (optionally by kind)."""
        with self._lock:
            skip = max(0, since - (self._n_events - len(self._events)))
            selected = list(itertools.islice(self._events, skip, None))
        if kind is not None:
            selected = [event for event in selected if event.get("kind") == kind]
        return selected

    def write_jsonl(self, path: Union[str, Path], since: int = 0) -> Path:
        """Serialize events (from ``since``) as one JSON object per line."""
        return write_provenance(self.events(since), path)


def write_provenance(events: Iterable[Dict[str, Any]], path: Union[str, Path]) -> Path:
    """Write provenance events to ``path`` (``PROVENANCE_*.jsonl``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, default=str))
            handle.write("\n")
    return path


def load_provenance(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load and validate a ``PROVENANCE_*.jsonl`` file.

    Raises ``ValueError`` on malformed content: a line that is not a JSON
    object, or an object without its ``kind`` — the contract the report CLI
    (and CI) hold provenance files to.
    """
    events: List[Dict[str, Any]] = []
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed provenance line: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(
                    f"{path}:{lineno}: provenance line is not an object: {event!r}"
                )
            if not isinstance(event.get("kind"), str) or not event["kind"]:
                raise ValueError(
                    f"{path}:{lineno}: provenance event misses its 'kind': {event!r}"
                )
            events.append(event)
    return events


_LEDGER = ProvenanceLedger()
_ledger_lock = threading.Lock()


def get_ledger() -> ProvenanceLedger:
    """The process-global ledger every decision layer records into."""
    return _LEDGER


def set_ledger(ledger: ProvenanceLedger) -> ProvenanceLedger:
    """Swap the global ledger (tests, isolated runs); returns the old one."""
    global _LEDGER
    with _ledger_lock:
        previous, _LEDGER = _LEDGER, ledger
    return previous
