"""Process-wide metrics registry: counters, gauges and histograms.

Every subsystem used to carry its own ad-hoc dataclass counters
(``ServiceStats``, ``ScheduleReport``, ``EvalCacheStats``, ``wave_stats``)
with no histograms, no percentiles and no common export path.  This module
is the shared instrumentation substrate they now report through:

* a :class:`MetricsRegistry` hands out named :class:`Counter`,
  :class:`Gauge` and :class:`Histogram` instruments.  Instruments may
  declare label names; ``instrument.labels(**values)`` returns (and interns)
  the per-label-tuple series, so hot paths resolve a series once and update
  it with a single method call;
* :class:`Histogram` combines fixed cumulative buckets (for Prometheus
  exposition) with streaming P² quantile estimation for p50/p90/p99 — no
  sample retention, O(1) memory per series.

Like the rest of the library, the registry is not thread-safe.

Exporters (JSON snapshot, Prometheus text exposition, Chrome-trace counter
events) live in :mod:`repro.obs.export`; the structured logging setup in
:mod:`repro.obs.log`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "DEFAULT_BUCKETS",
]

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)
"""Default latency buckets (seconds), Prometheus-style."""

_DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


# ---------------------------------------------------------------------- #
# Streaming quantiles (P² algorithm)
# ---------------------------------------------------------------------- #
class P2Quantile:
    """Jain & Chlamtac's P² streaming quantile estimator.

    Tracks one quantile ``q`` with five markers in O(1) memory and O(1)
    update time — no sample retention.  Below five observations the estimate
    is the exact interpolated quantile of the observed values.
    """

    __slots__ = ("q", "_initial", "_heights", "_positions", "_desired", "_dn")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._dn = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, x: float) -> None:
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
            return
        h, pos = self._heights, self._positions
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 3
            for i in range(1, 5):
                if x < h[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._dn[i]
        for i in range(1, 4):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d >= 0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        rank = self.q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


# ---------------------------------------------------------------------- #
# Instruments
# ---------------------------------------------------------------------- #
class _Instrument:
    """Common machinery: named series keyed by interned label tuples."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: Dict[Tuple[str, ...], Any] = {}
        if not self.label_names:
            self._series[()] = self._new_series()

    def _new_series(self) -> Any:
        raise NotImplementedError

    def _label_key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def labels(self, **labels: object) -> "_Instrument":
        """The child series for one label-value combination (interned)."""
        key = self._label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._new_series()
            self._series[key] = series
        return _Child(self, key, series)

    def _default_series(self) -> Any:
        if self.label_names:
            raise ValueError(
                f"{self.name} is labeled by {self.label_names}; use .labels(...)"
            )
        return self._series[()]

    def series_items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        return sorted(self._series.items())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": [
                {
                    "labels": dict(zip(self.label_names, key)),
                    **self._series_dict(series),
                }
                for key, series in self.series_items()
            ],
        }

    def _series_dict(self, series: Any) -> Dict[str, Any]:
        raise NotImplementedError


class _Child:
    """A bound (instrument, label-tuple) pair — what hot paths hold on to."""

    __slots__ = ("_parent", "_key", "_series")

    def __init__(self, parent: _Instrument, key: Tuple[str, ...], series: Any) -> None:
        self._parent = parent
        self._key = key
        self._series = series

    def __getattr__(self, attr: str) -> Any:
        method = getattr(self._parent, f"_series_{attr}", None)
        if method is None:
            raise AttributeError(attr)
        return partial(method, self._series)


class Counter(_Instrument):
    """A monotonically increasing count (events, requests, iterations)."""

    kind = "counter"

    def _new_series(self) -> List[float]:
        return [0.0]

    def _series_inc(self, series: List[float], amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        series[0] += amount

    def inc(self, amount: float = 1.0) -> None:
        self._series_inc(self._default_series(), amount)

    def _series_dict(self, series: List[float]) -> Dict[str, Any]:
        return {"value": series[0]}


class Gauge(_Instrument):
    """A value that goes up and down (in-flight requests, free GPUs)."""

    kind = "gauge"

    def _new_series(self) -> List[float]:
        return [0.0]

    def _series_set(self, series: List[float], value: float) -> None:
        series[0] = float(value)

    def set(self, value: float) -> None:
        self._series_set(self._default_series(), value)

    def _series_dict(self, series: List[float]) -> Dict[str, Any]:
        return {"value": series[0]}


class _HistogramSeries:
    """State of one histogram series: buckets + moments + P² quantiles."""

    __slots__ = ("count", "sum", "min", "max", "bucket_counts", "quantiles")

    def __init__(self, bounds: Tuple[float, ...], quantiles: Tuple[float, ...]) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.quantiles = tuple(P2Quantile(q) for q in quantiles)


class Histogram(_Instrument):
    """A distribution: fixed cumulative buckets plus streaming percentiles.

    ``observe(v)`` updates count/sum/min/max, the fixed bucket counts and
    one P² estimator per tracked quantile (p50/p90/p99 by default), so a
    snapshot can report percentiles without retaining samples.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = _DEFAULT_QUANTILES,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds: {bounds}")
        self.bucket_bounds = bounds
        self.quantile_points = tuple(quantiles)
        super().__init__(name, help, label_names)

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self.bucket_bounds, self.quantile_points)

    def _series_observe(self, series: _HistogramSeries, value: float) -> None:
        value = float(value)
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value
        placed = False
        for index, bound in enumerate(self.bucket_bounds):
            if value <= bound:
                series.bucket_counts[index] += 1
                placed = True
                break
        if not placed:
            series.bucket_counts[-1] += 1
        for quantile in series.quantiles:
            quantile.observe(value)

    def observe(self, value: float) -> None:
        self._series_observe(self._default_series(), value)

    def _series_dict(self, series: _HistogramSeries) -> Dict[str, Any]:
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self.bucket_bounds, series.bucket_counts):
            running += count
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = series.count
        data: Dict[str, Any] = {
            "count": series.count,
            "sum": series.sum,
            "min": series.min if series.count else 0.0,
            "max": series.max if series.count else 0.0,
            "mean": series.sum / series.count if series.count else 0.0,
            "buckets": cumulative,
        }
        for estimator in series.quantiles:
            data[f"p{round(estimator.q * 100):d}"] = estimator.value()
        return data


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
class MetricsRegistry:
    """Named instruments plus collector callbacks, with one export surface.

    Re-requesting an existing name returns the same instrument (families are
    process-wide singletons per registry), so independently constructed
    components share series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Instrument] = {}
        self._collectors: List[Callable[[], None]] = []

    # -- instrument factories ------------------------------------------- #
    def _get_or_create(
        self, cls: type, name: str, help: str, label_names: Sequence[str], **kwargs: Any
    ) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"{name} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        instrument = cls(name, help, label_names, **kwargs)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        quantiles: Sequence[float] = _DEFAULT_QUANTILES,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets, quantiles=quantiles
        )

    # -- collectors ----------------------------------------------------- #
    def register_collector(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Register a callback run just before every snapshot/export.

        Collectors let components with cheap internal counters (e.g. the
        estimator's eval cache) publish gauges lazily instead of updating
        the registry on their hot paths.  Returns ``fn`` for symmetry with
        :meth:`unregister_collector`.
        """
        self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn: Callable[[], None]) -> None:
        try:
            self._collectors.remove(fn)
        except ValueError:
            pass

    def collect(self) -> None:
        """Run the registered collectors (snapshot/export call this)."""
        for fn in list(self._collectors):
            fn()

    # -- export surface ------------------------------------------------- #
    def instruments(self) -> List[_Instrument]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of every instrument's series."""
        self.collect()
        return {
            "metrics": {
                instrument.name: instrument.to_dict()
                for instrument in self.instruments()
            },
        }


_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (instrumented modules use this)."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
