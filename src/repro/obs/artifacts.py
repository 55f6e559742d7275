"""Where run artifacts land: the ``REPRO_ARTIFACT_DIR`` knob.

Benchmarks and traced runs emit a family of sibling files —
``BENCH_*.json``, ``TRACE_*.json``, ``METRICS_*.json``,
``PROVENANCE_*.jsonl`` — that historically always landed in the repository
root.  ``REPRO_ARTIFACT_DIR`` (default ``.``: the current working
directory, which in CI *is* the repo root, so the default changes nothing
there) redirects every writer in one place: benchmarks resolve their
output paths through :func:`artifact_path`, and the regression checker
resolves relative baseline/current paths against the same directory.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Dict, Union

from .. import knobs

__all__ = ["artifact_dir", "artifact_path", "machine_fingerprint"]


def artifact_dir(default: Union[str, Path] = ".") -> Path:
    """The directory run artifacts are written to (``REPRO_ARTIFACT_DIR``).

    Falls back to ``default`` (``.``: the current working directory) when the
    knob is unset; benchmarks pass their historical repo-root default so the
    knob redirects them without changing the no-knob behaviour.  The
    directory is created on first use by the writers (``Path.mkdir`` in
    their save paths), not here — reading the knob has no filesystem side
    effects.
    """
    value = knobs.get("REPRO_ARTIFACT_DIR")
    return Path(value) if value else Path(default)


def artifact_path(name: Union[str, Path], default_dir: Union[str, Path] = ".") -> Path:
    """Resolve one artifact file name inside :func:`artifact_dir`.

    Absolute names pass through untouched, so explicit ``--output /tmp/x``
    style arguments always win over the knob.
    """
    name = Path(name)
    if name.is_absolute():
        return name
    return artifact_dir(default_dir) / name


def machine_fingerprint() -> Dict[str, object]:
    """The machine identity block benchmark reports embed.

    One shared implementation so every ``BENCH_*.json`` records the same
    fields the same way — historically each benchmark hand-rolled its own
    dict and recorded only ``os.cpu_count()``, which made a report with
    ``parallel_workers: 4`` but ``cores: 1`` impossible to interpret.

    * ``cores`` — ``os.cpu_count()``: the machine's logical core count;
    * ``usable_cores`` — the scheduler-affinity mask size, which is what a
      containerised run can actually use (falls back to ``cores``).
    """
    cores = os.cpu_count() or 1
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = cores
    return {
        "cores": cores,
        "usable_cores": usable,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
