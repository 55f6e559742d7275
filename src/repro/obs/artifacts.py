"""The machine identity block stamped on benchmark reports."""

from __future__ import annotations

import os
import platform
from typing import Dict

import numpy

__all__ = ["machine_fingerprint"]


def machine_fingerprint() -> Dict[str, object]:
    """The machine identity block benchmark reports embed.

    * ``cores`` — ``os.cpu_count()``: the machine's logical core count;
    * ``usable_cores`` — the scheduler-affinity mask size, which is what a
      containerised run can actually use (falls back to ``cores``);
    * ``platform`` and ``python`` — the OS and interpreter version;
    * ``numpy`` — ``numpy.__version__``: every search outcome, and so every
      digest, depends on the raw words numpy's PCG64 generator produces.
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
        "numpy": numpy.__version__,
    }
