"""Exporters of a :class:`~repro.obs.metrics.MetricsRegistry`.

Three export paths, one registry:

* :func:`snapshot` / :func:`write_metrics_snapshot` — the JSON form
  (``registry.to_dict()`` plus run metadata), written to ``METRICS_*.json``
  files next to the existing ``BENCH_*``/``TRACE_*`` reports;
* :func:`to_prometheus` — the Prometheus text exposition format (v0.0.4):
  ``# HELP``/``# TYPE`` headers, escaped label values, and the
  ``_bucket``/``_sum``/``_count`` triplet for histograms with cumulative
  ``le`` buckets ending at ``+Inf``;
* :func:`record_counter_tracks` — Chrome-trace **counter events**
  (``ph: "C"``) emitted through the shared
  :class:`~repro.sim.trace.TraceRecorder`, which is how a scheduler run's
  merged trace gains live metric tracks (running/queued jobs, free GPUs,
  cache hit ratio, …) alongside its spans.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import knobs
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "to_prometheus",
    "snapshot",
    "write_metrics_snapshot",
    "record_counter_tracks",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize_name(name: str) -> str:
    """Coerce a metric name into the Prometheus grammar."""
    name = _NAME_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = f"_{name}"
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{_sanitize_name(name)}="{_escape_label_value(value)}"'
        for name, value in pairs
    )
    return "{" + inner + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    registry.collect()
    lines: List[str] = []
    for instrument in registry.instruments():
        name = _sanitize_name(instrument.name)
        if instrument.help:
            lines.append(f"# HELP {name} {_escape_help(instrument.help)}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        label_names = instrument.label_names
        for key, series in instrument.series_items():
            labels = list(zip(label_names, key))
            if isinstance(instrument, Histogram):
                running = 0
                for bound, count in zip(
                    instrument.bucket_bounds, series.bucket_counts
                ):
                    running += count
                    bucket_labels = labels + [("le", _format_value(bound))]
                    lines.append(
                        f"{name}_bucket{_label_str(bucket_labels)} {running}"
                    )
                inf_labels = labels + [("le", "+Inf")]
                lines.append(f"{name}_bucket{_label_str(inf_labels)} {series.count}")
                lines.append(
                    f"{name}_sum{_label_str(labels)} {_format_value(series.sum)}"
                )
                lines.append(f"{name}_count{_label_str(labels)} {series.count}")
                # Exact observed extremes alongside the P² quantile estimates
                # (0 on an empty series, matching the JSON snapshot form).
                low = series.min if series.count else 0.0
                high = series.max if series.count else 0.0
                lines.append(f"{name}_min{_label_str(labels)} {_format_value(low)}")
                lines.append(f"{name}_max{_label_str(labels)} {_format_value(high)}")
            elif isinstance(instrument, (Counter, Gauge)):
                lines.append(
                    f"{name}{_label_str(labels)} {_format_value(series[0])}"
                )
    return "\n".join(lines) + "\n" if lines else ""


SNAPSHOT_SCHEMA_VERSION = 2
"""Version stamp of the ``METRICS_*.json`` layout.  Version 2 added
histogram ``min``/``max`` alongside the P² quantiles; consumers (the run
report CLI, dashboards) can branch on it instead of sniffing keys."""


def snapshot(
    registry: MetricsRegistry, extra: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The JSON snapshot object: registry contents plus caller metadata."""
    data = registry.to_dict()
    data["schema_version"] = SNAPSHOT_SCHEMA_VERSION
    if extra:
        data["meta"] = dict(extra)
    return data


def write_metrics_snapshot(
    registry: MetricsRegistry,
    path: Union[str, Path],
    extra: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write the JSON snapshot to ``path`` (``METRICS_*.json``); returns it.

    The file also records every knob's effective value under ``knobs``, so
    it names the configuration that produced it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = snapshot(registry, extra)
    data["knobs"] = knobs.snapshot()
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=str) + "\n")
    return path


def record_counter_tracks(
    recorder: Any,
    process: str,
    samples: Sequence[Tuple[float, Mapping[str, float]]],
    category: str = "metrics",
) -> int:
    """Emit time-series samples as Chrome-trace counter tracks.

    ``samples`` is a chronological list of ``(time_seconds, {track: value})``
    mappings; every distinct track name becomes its own counter track in the
    Perfetto/chrome://tracing UI (grouped under ``process``).  Returns the
    number of counter events emitted.  ``recorder`` is a
    :class:`~repro.sim.trace.TraceRecorder` (kept duck-typed so this module
    never imports the simulator).
    """
    emitted = 0
    for time_s, values in samples:
        for track, value in values.items():
            recorder.add_counter(
                process, track, time_s, {track: float(value)}, category=category
            )
            emitted += 1
    return emitted
