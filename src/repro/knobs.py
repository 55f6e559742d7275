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

    ``kind`` is ``flag``, ``float`` (finite, ``x > 0``) or ``choice`` (one
    of ``choices``).
    """

    name: str
    kind: str
    default: object
    doc: str
    choices: Tuple[str, ...] = ()

    def accepted(self) -> str:
        """The accepted form, as error messages state it."""
        if self.kind == "flag":
            return f"one of {'/'.join(_ON)} or {'/'.join(_OFF)}"
        if self.kind == "float":
            return "a finite number > 0"
        return f"one of {'/'.join(self.choices)}"

    def parse(self, raw: str) -> object:
        """The value of a non-blank raw string; raises ``ValueError`` if invalid."""
        word = raw.strip().lower()
        value: object = None
        if self.kind == "flag":
            if word in _ON or word in _OFF:
                value = word in _ON
        elif self.kind == "float":
            try:
                number = float(word)
            except ValueError:
                number = math.nan
            if math.isfinite(number) and number > 0:
                value = number
        elif self.kind == "choice":
            value = word if word in self.choices else None
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
