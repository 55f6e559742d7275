"""Unified telemetry: metrics registry, structured logging, exporters.

The observability layer every subsystem reports through:

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry` with
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` instruments (labeled
  series, streaming p50/p90/p99);
* :mod:`repro.obs.log` — the ``repro.*`` structured logger hierarchy
  (``REPRO_LOG_LEVEL``, ``REPRO_LOG_FORMAT=text|json``);
* :mod:`repro.obs.export` — JSON snapshots (``METRICS_*.json``), Prometheus
  text exposition and Chrome-trace counter tracks;
* :mod:`repro.obs.tracing` — the causal span tracer (``SpanContext``
  propagation along the call stack or through an explicit parent,
  Chrome-trace async-event/flow-arrow export);
* :mod:`repro.obs.provenance` — the decision-provenance ledger
  (``PROVENANCE_*.jsonl``: costing waves, placements, swap arithmetic,
  plan-request lineage);
* :mod:`repro.obs.report` — the ``python -m repro.obs.report <run dir>``
  CLI digesting one run's TRACE/METRICS/PROVENANCE files;
* :mod:`repro.obs.artifacts` — the machine identity block perfbench
  stamps on its reports.

All of it always records.  The tracer and the ledger are process-global and
hold only their newest records, so a long-lived process stays bounded; a run
exports its own records by the counts it snapshots when it starts.
"""

from .artifacts import machine_fingerprint
from .export import (
    SNAPSHOT_SCHEMA_VERSION,
    record_counter_tracks,
    snapshot,
    to_prometheus,
    write_metrics_snapshot,
)
from .log import JsonFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    get_registry,
    set_registry,
)
from .provenance import (
    ProvenanceLedger,
    get_ledger,
    load_provenance,
    set_ledger,
    write_provenance,
)
from .tracing import (
    SpanContext,
    SpanRecord,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "P2Quantile",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "get_logger",
    "configure_logging",
    "JsonFormatter",
    "to_prometheus",
    "snapshot",
    "write_metrics_snapshot",
    "SNAPSHOT_SCHEMA_VERSION",
    "record_counter_tracks",
    "machine_fingerprint",
    "SpanContext",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "current_span",
    "ProvenanceLedger",
    "get_ledger",
    "set_ledger",
    "write_provenance",
    "load_provenance",
]
