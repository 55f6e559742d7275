"""Every ``REPRO_*`` environment knob, declared and parsed in one place.

Each knob is one :class:`Knob` row of :data:`KNOBS`: name, kind, default and
a one-line doc.  :func:`get` is the only environment read in the package; it
runs at call time (every read site is an import or a constructor), so tests
flip knobs with ``monkeypatch.setenv``.  :func:`snapshot` returns every
knob's effective value, which ``METRICS_*.json`` snapshots record.

Parsing is strict and uniform.  Unset or blank means the declared default.
Flags accept exactly ``on/1/true/yes/enabled`` and
``off/0/false/no/disabled`` in any case; choices accept their listed words
in any case.  Anything else raises one :class:`ValueError` that names the
knob, the raw value and the accepted form.

This module imports nothing else from ``repro``, so any layer may use it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["Knob", "KNOBS", "get", "snapshot"]

_ON = ("on", "1", "true", "yes", "enabled")
_OFF = ("off", "0", "false", "no", "disabled")


@dataclass(frozen=True)
class Knob:
    """One environment knob.

    ``kind`` is ``flag``, ``float`` (finite, ``0 < x <= high``), ``int``
    (``x >= 0``), ``choice`` (one of ``choices``) or ``path`` (a directory;
    an existing non-directory is rejected).
    """

    name: str
    kind: str
    default: object
    doc: str
    high: float = math.inf
    choices: Tuple[str, ...] = ()

    def accepted(self) -> str:
        """The accepted form, as error messages state it."""
        if self.kind == "flag":
            return f"one of {'/'.join(_ON)} or {'/'.join(_OFF)}"
        if self.kind == "float" and math.isinf(self.high):
            return "a finite number > 0"
        if self.kind == "float":
            return f"a number in (0, {self.high:g}]"
        if self.kind == "int":
            return "an integer >= 0"
        if self.kind == "choice":
            return f"one of {'/'.join(self.choices)}"
        return "a directory path"

    def parse(self, raw: str) -> object:
        """The value of a non-blank raw string; raises ``ValueError`` if invalid."""
        text = raw.strip()
        word = text.lower()
        value: object = None
        if self.kind == "flag":
            if word in _ON or word in _OFF:
                value = word in _ON
        elif self.kind == "float":
            try:
                number = float(word)
            except ValueError:
                number = math.nan
            if math.isfinite(number) and 0 < number <= self.high:
                value = number
        elif self.kind == "int":
            try:
                number = int(word)
            except ValueError:
                number = None
            if number is not None and number >= 0:
                value = number
        elif self.kind == "choice":
            value = word if word in self.choices else None
        elif not os.path.exists(text) or os.path.isdir(text):
            value = text
        if value is None:
            raise ValueError(
                f"{self.name}={raw!r} is invalid: expected {self.accepted()}"
            )
        return value


KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("REPRO_SEARCH_BUDGET_SCALE", "float", 1.0,
             "Scales the benchmark harness's MCMC budget (iterations and wall clock)."),
        Knob("REPRO_BENCH_SCALE", "choice", "small",
             "`full` runs every point of every figure benchmark; `small` is the CI subset.",
             choices=("small", "full")),
        Knob("REPRO_CORE_BUDGET", "int", 0,
             "Cores the global core-budget governor hands out (0: `os.cpu_count()`)."),
        Knob("REPRO_PARALLEL_START_METHOD", "choice", None,
             "Start method of parallel-search workers (unset: the platform default).",
             choices=("fork", "forkserver", "spawn")),
        Knob("REPRO_METRICS", "flag", True,
             "Off makes the metrics registry a no-op and its exporters write nothing."),
        Knob("REPRO_TRACING", "flag", True,
             "Off disables causal span tracing and the decision-provenance ledger."),
        Knob("REPRO_ARTIFACT_DIR", "path", None,
             "Directory relative BENCH/TRACE/METRICS/PROVENANCE paths resolve against."),
        Knob("REPRO_TRACE_SAMPLE", "float", 1.0,
             "Deterministic keep-rate of Chrome-trace payload events.",
             high=1.0),
        Knob("REPRO_TRACE_MAX_EVENTS", "int", 0,
             "Cap on retained Chrome-trace payload events (0: unbounded)."),
        Knob("REPRO_LOG_LEVEL", "choice", "warning",
             "Level of the `repro.*` loggers.",
             choices=("debug", "info", "warning", "error", "critical")),
        Knob("REPRO_LOG_FORMAT", "choice", "text",
             "`json` emits one JSON object per log line; `text` one readable line.",
             choices=("text", "json")),
    )
}
"""The declared knobs, by name."""


def get(name: str) -> object:
    """The effective value of knob ``name``: parsed from the environment, or its default."""
    knob = KNOBS[name]
    raw: Optional[str] = os.environ.get(name)
    if raw is None or not raw.strip():
        return knob.default
    return knob.parse(raw)


def snapshot() -> Dict[str, object]:
    """Every knob's effective value, by name (JSON-serialisable)."""
    return {name: get(name) for name in KNOBS}
