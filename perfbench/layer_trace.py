"""Per-layer time attribution for the benchmark's traced run.

The traced run times calls into each layer's public functions from the
benchmark's own code: :meth:`LayerTracer.install` replaces those functions
with timing wrappers (at every place the name is looked up, since module
functions are imported by name) and :meth:`LayerTracer.uninstall` restores
the originals.  Nothing under ``src/`` is edited.

Attribution is exact by construction.  At every instant the tracer knows the
open spans that have no open child ("charged" spans) and splits the elapsed
wall time equally between them, so the self times of all layers plus the
benchmark's own unattributed time add up to the traced wall time.  On one
thread this is the usual rule (a span's time minus its children's); when a
plan-service worker thread searches while the submitting thread waits, the
worker's spans are children of the waiting span, so the wait is charged to
the search that caused it and not twice.

Parentage crosses the plan-service pool through the repo's own span
context: :class:`~repro.service.server.PlanService` captures the caller's
``repro.obs.tracing`` context at submit time and re-activates it on the
worker thread, so a worker-side root span finds the benchmark span that
submitted its request.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

BENCH = "bench"

LAYERS = (
    BENCH,
    "core.estimator",
    "core.search",
    "service",
    "sched.partition",
    "sched.policies",
    "sched.costing",
    "sim.kernel",
    "sched.scheduler",
    "sched.profiles",
    "runtime.engine",
    "realloc",
    "sim.trace",
    "capacity",
)

Around = Callable[["LayerTracer", Any, Callable, tuple, dict], Any]
"""``around(tracer, caller_span, original, args, kwargs) -> result``: runs the
original call and updates the tracer's counters from its arguments/result."""


class _Span:
    __slots__ = ("layer", "parent", "start", "children", "open")

    def __init__(self, layer: str, parent: Optional["_Span"], start: float) -> None:
        self.layer = layer
        self.parent = parent
        self.start = start
        self.children = 0
        self.open = True


@dataclass(frozen=True)
class Wrap:
    """One public function or method to time as part of ``layer``.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    ``around`` (optional) updates counters; it runs on the outermost call of
    the layer, and also on calls nested in the same layer when ``nested``.
    """

    layer: str
    target: str
    around: Optional[Around] = None
    nested: bool = False


class LayerTracer:
    """Collects per-layer call counts, self and inclusive times, counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._charged: set = set()
        self._last = time.perf_counter()
        self._links: Dict[str, _Span] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counters: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _advance(self, now: float) -> None:
        charged = self._charged
        if charged:
            share = (now - self._last) / len(charged)
            for span in charged:
                self.self_s[span.layer] += share
        self._last = now

    def _open(self, layer: str, parent: Optional[_Span]) -> _Span:
        now = time.perf_counter()
        span = _Span(layer, parent, now)
        with self._lock:
            self._advance(now)
            if parent is not None:
                parent.children += 1
                self._charged.discard(parent)
            self._charged.add(span)
            self.calls[layer] += 1
        return span

    def _close(self, span: _Span) -> None:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            span.open = False
            self._charged.discard(span)
            self.incl_s[span.layer] += now - span.start
            parent = span.parent
            if parent is not None:
                parent.children -= 1
                if parent.children == 0 and parent.open:
                    self._charged.add(parent)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Thread-safe counter increment."""
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> List[_Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _worker_parent(self) -> Optional[_Span]:
        """Parent of a span opened on an otherwise idle (pool) thread."""
        from repro.obs.tracing import current_span

        context = current_span()
        if context is None:
            return None
        return self._links.get(context.span_id) or self._links.get(context.parent_id)

    def link(self, repro_span_id: str, span: Optional[_Span]) -> None:
        """Make work carried out under a repo span a child of ``span``."""
        if span is not None:
            self._links[repro_span_id] = span

    @contextmanager
    def root(self) -> Iterator[None]:
        """The benchmark's own span around the traced round (main thread)."""
        span = self._open(BENCH, None)
        stack = self._stack()
        stack.append(span)
        try:
            yield
        finally:
            stack.pop()
            self._close(span)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, layer: str, around: Optional[Around] = None,
             nested: bool = False) -> Callable:
        """``fn`` timed as ``layer`` (same-layer nesting opens no new span)."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            top = stack[-1] if stack else None
            if top is not None and top.layer == layer:
                if nested and around is not None:
                    return around(tracer, top, fn, args, kwargs)
                return fn(*args, **kwargs)
            parent = top if top is not None else tracer._worker_parent()
            span = tracer._open(layer, parent)
            stack.append(span)
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(tracer, top, fn, args, kwargs)
            finally:
                stack.pop()
                tracer._close(span)

        return wrapper

    def install(self, wraps: List[Wrap]) -> None:
        """Replace every listed target wherever its name is looked up."""
        for spec in wraps:
            module_name, _, path = spec.target.partition(":")
            owner: Any = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, spec.layer, spec.around, spec.nested)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            # A module function: patch every module that bound the same object.
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not name.startswith(("repro", "perfbench")):
                    continue
                if getattr(module, "__dict__", {}).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Counter hooks
# ---------------------------------------------------------------------- #
def _estimator_call(tracer, caller, fn, args, kwargs):
    stats = args[0].eval_cache_stats
    hits, misses = stats.hits, stats.misses
    result = fn(*args, **kwargs)
    tracer.count("estimator.hits", stats.hits - hits)
    tracer.count("estimator.misses", stats.misses - misses)
    return result


def _advance_chain(tracer, caller, fn, args, kwargs):
    state = args[1]
    iterations, accepted = state.n_iterations, state.n_accepted
    result = fn(*args, **kwargs)
    tracer.count("search.iterations", result.n_iterations - iterations)
    tracer.count("search.accepted", result.n_accepted - accepted)
    return result


def _submit(tracer, caller, fn, args, kwargs):
    from repro.obs.tracing import current_span, get_tracer

    context = current_span()
    if context is not None:
        tracer.link(context.span_id, caller)
        future = fn(*args, **kwargs)
    else:
        # No repo span is open (a direct client call): open one so the
        # service carries its context onto the worker thread.
        with get_tracer().start_span("perfbench request", category="perfbench") as span:
            if span.context is not None:
                tracer.link(span.context.span_id, caller)
            future = fn(*args, **kwargs)

    def on_response(done) -> None:
        if done.exception() is not None:
            return
        stats = done.result().stats
        if not (stats.cache_hit or stats.dedup_joined):
            tracer.count("service.queue_wait_s", stats.queue_seconds)

    future.add_done_callback(on_response)
    return future


def _service_close(tracer, caller, fn, args, kwargs):
    result = fn(*args, **kwargs)
    stats = args[0].stats
    for field in ("requests", "cache_hits", "warm_starts", "dedup_joins",
                  "session_polls", "cache_refreshes"):
        tracer.count(f"service.{field}", getattr(stats, field))
    return result


def _counting(name: str) -> Around:
    def around(tracer, caller, fn, args, kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return around


def _decide(tracer, caller, fn, args, kwargs):
    decision = fn(*args, **kwargs)
    tracer.count("policies.decide_calls")
    if not decision.is_noop:
        tracer.count("policies.placing")
    return decision


def _kernel_run(tracer, caller, fn, args, kwargs):
    kernel, handler, *rest = args
    drained = rest[0] if rest else kwargs.pop("on_timestamp_drained", None)
    before = kernel.n_processed
    # Event handlers are the scheduler's code running inside the kernel loop.
    result = fn(
        kernel,
        tracer.wrap(handler, "sched.scheduler"),
        on_timestamp_drained=(
            None if drained is None else tracer.wrap(drained, "sched.scheduler")
        ),
    )
    tracer.count("kernel.events", kernel.n_processed - before)
    return result


def _scheduler_run(tracer, caller, fn, args, kwargs):
    report = fn(*args, **kwargs)
    costing = args[0].costing
    tracer.count("costing.waves", costing.wave_stats["waves"])
    tracer.count("costing.candidates", costing.candidates_scored)
    return report


def _profile(tracer, caller, fn, args, kwargs):
    profiler = args[0]
    runs = profiler.engine_runs
    result = fn(*args, **kwargs)
    tracer.count("profiles.profile_calls")
    tracer.count("profiles.engine_runs", profiler.engine_runs - runs)
    return result


def _trace_save(tracer, caller, fn, args, kwargs):
    tracer.count("trace.events", args[0].n_events)
    return fn(*args, **kwargs)


def _whatif(tracer, caller, fn, args, kwargs):
    report = fn(*args, **kwargs)
    tracer.count("capacity.candidates", len(report.outcomes))
    return report


_EST = "repro.core.estimator:RuntimeEstimator."
_SEARCH = "repro.core.search:"
_SVC = "repro.service.server:"
_REC = "repro.sim.trace:TraceRecorder."

WRAPS: List[Wrap] = [
    *(Wrap("core.estimator", _EST + m, _estimator_call)
      for m in ("cost", "cost_delta", "time_cost", "max_memory")),
    Wrap("core.search", _SEARCH + "MCMCSearcher.search"),
    Wrap("core.search", _SEARCH + "MCMCSearcher.initial_candidate"),
    Wrap("core.search", _SEARCH + "MCMCSearcher.advance_chain", _advance_chain, nested=True),
    Wrap("core.search", _SEARCH + "SearchSession.start"),
    Wrap("core.search", _SEARCH + "SearchSession.poll"),
    Wrap("core.search", _SEARCH + "SearchSession.stop"),
    Wrap("core.search", "repro.core.pruning:allocation_options"),
    Wrap("service", _SVC + "PlanService.plan"),
    Wrap("service", _SVC + "PlanService.submit", _submit, nested=True),
    Wrap("service", _SVC + "PlanService.start_session"),
    Wrap("service", _SVC + "PlanService.stop_session"),
    Wrap("service", _SVC + "PlanService.close", _service_close),
    Wrap("service", _SVC + "PlanSession.poll"),
    Wrap("service", _SVC + "PlanSession.stop"),
    *(Wrap("service", "repro.service.cache:PlanCache." + m)
      for m in ("get", "peek", "put", "refresh")),
    Wrap("service", "repro.service.warm_start:select_warm_start"),
    Wrap("service", "repro.service.warm_start:adapt_plan"),
    Wrap("sched.partition", "repro.sched.partition:PartitionManager.distinct_shapes",
         _counting("partition.shape_queries")),
    *(Wrap("sched.partition", "repro.sched.partition:PartitionManager." + m)
      for m in ("candidates", "allocate", "release")),
    *(Wrap("sched.policies", f"repro.sched.policies:{cls}.decide", _decide)
      for cls in ("FirstFitPolicy", "BestThroughputPolicy", "PriorityPolicy",
                  "StaticEqualPolicy")),
    Wrap("sched.costing", "repro.sched.costing:PlanCosting.score"),
    Wrap("sched.costing", "repro.sched.costing:PlanCosting.score_one"),
    Wrap("sim.kernel", "repro.sim.kernel:SimKernel.run", _kernel_run),
    Wrap("sim.kernel", "repro.sim.kernel:SimKernel.schedule"),
    Wrap("sim.kernel", "repro.sim.kernel:SimKernel.cancel"),
    Wrap("sched.scheduler", "repro.sched.scheduler:ClusterScheduler.__init__"),
    Wrap("sched.scheduler", "repro.sched.scheduler:ClusterScheduler.run", _scheduler_run),
    Wrap("sched.scheduler", "repro.sched.scheduler:ClusterScheduler.record_chrome"),
    Wrap("sched.profiles", "repro.sched.profiles:IterationProfiler.profile", _profile),
    Wrap("sched.profiles", "repro.sched.profiles:MigrationCostModel.switch_seconds",
         _counting("profiles.switch_calls")),
    Wrap("runtime.engine", "repro.runtime.engine:RuntimeEngine.__init__"),
    Wrap("runtime.engine", "repro.runtime.engine:RuntimeEngine.run_iteration",
         _counting("engine.iterations")),
    Wrap("realloc", "repro.realloc.remap:plan_reallocation", _counting("realloc.plans")),
    Wrap("realloc", "repro.realloc.remap:reallocation_time"),
    *(Wrap("sim.trace", _REC + m)
      for m in ("add_span", "add_trace_span", "add_instant", "add_counter",
                "add_async_span", "add_flow", "events", "to_json")),
    Wrap("sim.trace", _REC + "save", _trace_save),
    Wrap("sim.trace", "repro.obs.tracing:Tracer.record_chrome"),
    Wrap("sim.trace", "repro.obs.export:record_counter_tracks"),
    Wrap("capacity", "repro.capacity.whatif:capacity_whatif", _whatif),
]
"""The layer boundaries: the public entry points of each module."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """The per-layer metrics of one traced round (BENCHMARK.json names)."""
    c, s, n = tracer.counters, tracer.self_s, tracer.calls
    requests = c["service.requests"]
    iterations = c["search.iterations"]
    wall = tracer.incl_s[BENCH]
    return {
        "core.estimator.calls": n["core.estimator"],
        "core.estimator.self_s": s["core.estimator"],
        "core.estimator.eval_cache_hit_ratio": _ratio(
            c["estimator.hits"], c["estimator.hits"] + c["estimator.misses"]
        ),
        "core.search.iterations": iterations,
        "core.search.self_s": s["core.search"],
        "core.search.iters_per_s": _ratio(iterations, tracer.incl_s["core.search"]),
        "core.search.accept_ratio": _ratio(c["search.accepted"], iterations),
        "service.requests": requests,
        "service.hit_ratio": _ratio(c["service.cache_hits"], requests),
        "service.warm_ratio": _ratio(c["service.warm_starts"], requests),
        "service.dedup_ratio": _ratio(c["service.dedup_joins"], requests),
        "service.queue_wait_s": c["service.queue_wait_s"],
        "service.self_s": s["service"],
        "service.session_polls": c["service.session_polls"],
        "service.cache_refreshes": c["service.cache_refreshes"],
        "sched.partition.shape_queries": c["partition.shape_queries"],
        "sched.partition.self_s": s["sched.partition"],
        "sched.policies.decide_calls": c["policies.decide_calls"],
        "sched.policies.placing_ratio": _ratio(
            c["policies.placing"], c["policies.decide_calls"]
        ),
        "sched.policies.self_s": s["sched.policies"],
        "sched.costing.waves": c["costing.waves"],
        "sched.costing.candidates": c["costing.candidates"],
        "sched.costing.self_s": s["sched.costing"],
        "sim.kernel.events": c["kernel.events"],
        "sim.kernel.self_s": s["sim.kernel"],
        "sched.scheduler.self_s": s["sched.scheduler"],
        "sched.profiles.profile_calls": c["profiles.profile_calls"],
        "sched.profiles.engine_runs": c["profiles.engine_runs"],
        "sched.profiles.switch_calls": c["profiles.switch_calls"],
        "sched.profiles.self_s": s["sched.profiles"],
        "runtime.engine.iterations": c["engine.iterations"],
        "runtime.engine.self_s": s["runtime.engine"],
        "realloc.plans": c["realloc.plans"],
        "realloc.self_s": s["realloc"],
        "sim.trace.events": c["trace.events"],
        "sim.trace.self_s": s["sim.trace"],
        "capacity.candidates": c["capacity.candidates"],
        "capacity.self_s": s["capacity"],
        "bench.traced_wall_s": wall,
        "bench.unattributed_ratio": _ratio(s[BENCH], wall),
    }
