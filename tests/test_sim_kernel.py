"""Tests of the shared simulation kernel: events, resources, traces."""

import json

import pytest

from repro.sim import (
    ResourceTimeline,
    SimKernel,
    TimelinePool,
    TraceRecorder,
    TraceSpan,
    load_chrome_trace,
    validate_chrome_events,
)


def _recording(kernel, on_event=None):
    """A handler that records ``(time, kind)`` in handling order."""
    seen = []

    def handler(event):
        seen.append((event.time, event.kind))
        if on_event is not None:
            on_event(event)

    return handler, seen


class TestSimKernel:
    def test_events_pop_in_time_priority_seq_order(self):
        kernel = SimKernel()
        kernel.schedule(2.0, "late")
        kernel.schedule(1.0, "b", priority=1)
        kernel.schedule(1.0, "a", priority=0)
        kernel.schedule(1.0, "c", priority=1)
        handler, seen = _recording(kernel)
        kernel.run(handler)
        assert [kind for _, kind in seen] == ["a", "b", "c", "late"]
        assert kernel.n_processed == 4

    def test_past_events_fire_next(self):
        kernel = SimKernel()
        drains = []

        def spawn_past(event):
            if event.kind == "x":
                kernel.schedule(3.0, "past")

        handler, seen = _recording(kernel, spawn_past)
        kernel.schedule(5.0, "x")
        kernel.schedule(5.0, "peer")
        kernel.schedule(7.0, "later")
        kernel.run(handler, on_timestamp_drained=drains.append)
        # The past event fires next: it closes the 5.0 batch, and the rest
        # of 5.0 drains as a batch of its own after it.  Nothing already
        # handled runs again.
        assert seen == [(5.0, "x"), (3.0, "past"), (5.0, "peer"), (7.0, "later")]
        assert drains == [5.0, 3.0, 5.0, 7.0]

    def test_cancelled_events_are_skipped(self):
        kernel = SimKernel()
        drains = []

        def cancel_victim(event):
            if event.kind == "killer":
                kernel.cancel(victim)

        handler, seen = _recording(kernel, cancel_victim)
        doomed = kernel.schedule(1.0, "doomed")
        kernel.schedule(2.0, "kept")
        kernel.schedule(3.0, "killer")
        victim = kernel.schedule(3.0, "victim", priority=1)
        kernel.cancel(doomed)
        kernel.run(handler, on_timestamp_drained=drains.append)
        assert seen == [(2.0, "kept"), (3.0, "killer")]
        assert drains == [2.0, 3.0]
        assert kernel.n_processed == 2

    def test_run_drains_timestamps_before_hook(self):
        kernel = SimKernel()
        seen = []
        drains = []

        def handler(event):
            seen.append((event.time, event.kind))
            if event.kind == "spawn":
                # Same-timestamp events scheduled mid-drain are included.
                kernel.schedule(event.time, "child", priority=9)

        kernel.schedule(1.0, "spawn")
        kernel.schedule(1.0, "peer")
        kernel.schedule(2.0, "later")
        kernel.run(handler, on_timestamp_drained=drains.append)
        assert seen == [(1.0, "spawn"), (1.0, "peer"), (1.0, "child"), (2.0, "later")]
        assert drains == [1.0, 2.0]
        assert kernel.n_processed == 4

    def test_handler_may_keep_scheduling(self):
        kernel = SimKernel()
        ticks = []

        def handler(event):
            ticks.append(event.time)
            if event.time < 3.0:
                kernel.schedule(event.time + 1.0, "tick")

        kernel.schedule(0.0, "tick")
        kernel.run(handler)
        assert ticks == [0.0, 1.0, 2.0, 3.0]

    def test_equal_keys_pop_in_insertion_order_around_cancellations(self):
        import random

        rng = random.Random(5)
        kernel = SimKernel()
        # Many events share each (time, priority); payloads are unhashable
        # and unorderable, so nothing but the key may break a tie.
        events = [
            kernel.schedule(float(i % 3), "e", payload=[i], priority=i % 2)
            for i in range(600)
        ]
        cancelled = set(rng.sample(range(600), 200))
        for i in cancelled:
            kernel.cancel(events[i])
        seen = []
        kernel.run(lambda event: seen.append(event.payload[0]))
        kept = [i for i in range(600) if i not in cancelled]
        assert seen == sorted(kept, key=lambda i: (i % 3, i % 2, i))
        assert kernel.n_processed == 400


class TestResourceTimeline:
    def test_occupy_and_categories(self):
        timeline = ResourceTimeline(resource_id=7)
        end = timeline.occupy(0.0, {"compute": 2.0, "idle": 0.0, "comm": 1.0}, "call")
        assert end == pytest.approx(3.0)
        assert timeline.free_at == pytest.approx(3.0)
        assert [s.category for s in timeline.spans] == ["compute", "comm"]
        assert timeline.categories() == pytest.approx({"compute": 2.0, "comm": 1.0})

    def test_fifo_enforced(self):
        timeline = ResourceTimeline(resource_id=0)
        timeline.occupy(0.0, {"compute": 2.0}, "a")
        with pytest.raises(ValueError):
            timeline.occupy(1.0, {"compute": 1.0}, "b")

    def test_pool_group_queries(self):
        pool = TimelinePool(3)
        pool[1].occupy(0.0, {"compute": 4.0}, "x")
        pool[2].occupy(0.0, {"comm": 1.0}, "y")
        assert pool.free_at((0, 1, 2)) == pytest.approx(4.0)
        assert pool.free_at((0, 2)) == pytest.approx(1.0)


class TestChromeTraceRoundTrip:
    """Satellite: every emitted event carries the Trace Event Format required
    keys (``ph``, ``ts``, ``pid``, ``tid``, ``name``) and the exported file
    loads cleanly via ``json.load``."""

    def _recorder(self):
        recorder = TraceRecorder()
        recorder.add_span("job a", "gpu 0", "actor_train", 0.5, 1.5, category="compute")
        recorder.add_trace_span("job a", "gpu 1", TraceSpan("gen", "compute", 2.0, 2.25))
        recorder.add_instant("cluster", "events", "failure: node 0", 1.0,
                             args={"detail": "node 0 down"})
        return recorder

    def test_required_keys_present_on_every_event(self):
        events = self._recorder().events()
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for event in events:
            if event["ph"] == "X":
                assert isinstance(event["dur"], float)

    def test_round_trip_through_json_load(self, tmp_path):
        path = self._recorder().save(tmp_path / "trace.json")
        with open(path) as handle:
            payload = json.load(handle)  # loads cleanly
        assert payload["traceEvents"]
        events = load_chrome_trace(path)
        assert len(events) == len(payload["traceEvents"])
        # Unit conversion: the span starts at 2.0 s.
        gen = next(e for e in events if e["name"] == "gen")
        assert gen["ts"] == pytest.approx(2.0e6)
        assert gen["dur"] == pytest.approx(0.25e6)

    def test_process_and_thread_metadata(self):
        events = self._recorder().events()
        names = {
            (e["pid"], e["tid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M"
        }
        labels = {label for _, _, label in names}
        assert {"job a", "gpu 0", "gpu 1", "cluster", "events"} <= labels

    def test_validation_rejects_broken_events(self):
        with pytest.raises(ValueError):
            validate_chrome_events([{"ph": "X", "ts": 0, "pid": 1, "tid": 1}])  # no name
        with pytest.raises(ValueError):
            validate_chrome_events(
                [{"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]  # no dur
            )
        with pytest.raises(ValueError):
            validate_chrome_events(
                [{"ph": "i", "ts": "zero", "pid": 1, "tid": 1, "name": "x"}]
            )


class TestEngineChromeExport:
    def test_iteration_trace_exports_loadable_chrome_trace(self, tmp_path):
        from repro.algorithms import build_graph
        from repro.cluster import make_cluster
        from repro.core import ParallelStrategy, instructgpt_workload, symmetric_plan
        from repro.runtime import RuntimeEngine

        cluster = make_cluster(8)
        workload = instructgpt_workload("7b", "7b", batch_size=64)
        graph = build_graph("ppo")
        plan = symmetric_plan(graph, cluster, ParallelStrategy(1, 8, 1), n_microbatches=4)
        trace = RuntimeEngine(cluster, workload).run_iteration(graph, plan)
        path = trace.export_chrome_trace(str(tmp_path / "iteration.json"))
        events = load_chrome_trace(path)
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert set(graph.call_names) <= span_names
        # One thread row per GPU plus the calls overview row.
        thread_labels = {
            e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"calls"} | {f"gpu {g}" for g in range(8)} <= thread_labels
