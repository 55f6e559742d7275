"""Tests for the per-GPU worker timelines the runtime engine charges calls on.

The engine models each of ReaL's model workers as one
:class:`~repro.sim.resources.ResourceTimeline` and the cluster's workers as a
:class:`~repro.sim.resources.TimelinePool` with one timeline per GPU.
"""

import pytest

from repro.sim import ResourceTimeline, TimelinePool


class TestModelWorker:
    def test_occupy_advances_clock(self):
        worker = ResourceTimeline(resource_id=0)
        end = worker.occupy(0.0, {"compute": 1.0, "coll_comm": 0.5}, "call")
        assert end == pytest.approx(1.5)
        assert worker.free_at == pytest.approx(1.5)

    def test_occupy_rejects_time_travel(self):
        worker = ResourceTimeline(resource_id=0)
        worker.occupy(0.0, {"compute": 2.0}, "a")
        with pytest.raises(ValueError):
            worker.occupy(1.0, {"compute": 1.0}, "b")

    def test_zero_durations_skipped(self):
        worker = ResourceTimeline(resource_id=0)
        worker.occupy(0.0, {"compute": 0.0, "pp_comm": 0.0}, "a")
        assert worker.spans == []
        assert worker.free_at == 0.0

    def test_categories_aggregated(self):
        worker = ResourceTimeline(resource_id=1)
        worker.occupy(0.0, {"compute": 1.0}, "a")
        worker.occupy(2.0, {"compute": 2.0, "bubble": 1.0}, "b")
        cats = worker.categories()
        assert cats["compute"] == pytest.approx(3.0)
        assert cats["bubble"] == pytest.approx(1.0)


class TestWorkerPool:
    def test_pool_indexing_and_len(self):
        pool = TimelinePool(4)
        assert len(pool.timelines) == 4
        assert pool[2].resource_id == 2

    def test_free_at_is_max_over_group(self):
        pool = TimelinePool(4)
        pool[1].occupy(0.0, {"compute": 3.0}, "x")
        assert pool.free_at((0, 1, 2)) == pytest.approx(3.0)
