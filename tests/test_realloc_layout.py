"""Tests for parameter layouts under 3D parallel strategies."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import DeviceMesh, full_cluster_mesh, make_cluster
from repro.core import ParallelStrategy
from repro.model import get_model_config
from repro.model.memory import PARAM_BYTES
from repro.realloc import EMBEDDING_BLOCK, HEAD_BLOCK, ParamLayout, layer_assignment


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(16)


class TestLayerAssignment:
    def test_even_split(self):
        stages = layer_assignment(32, 4)
        assert [len(s) for s in stages] == [8, 8, 8, 8]
        assert stages[0] == range(0, 8)

    def test_uneven_split_front_loaded(self):
        stages = layer_assignment(10, 3)
        assert [len(s) for s in stages] == [4, 3, 3]

    def test_pp_greater_than_layers_rejected(self):
        with pytest.raises(ValueError):
            layer_assignment(4, 8)

    def test_covers_all_layers_exactly_once(self):
        stages = layer_assignment(80, 7)
        seen = [layer for stage in stages for layer in stage]
        assert seen == list(range(80))


class TestParamLayout:
    def layout(self, cluster, dp, tp, pp, size="7b"):
        return ParamLayout(
            config=get_model_config(size),
            mesh=full_cluster_mesh(cluster),
            parallel=ParallelStrategy(dp=dp, tp=tp, pp=pp),
        )

    def test_rank_coordinate_roundtrip(self, cluster):
        layout = self.layout(cluster, dp=2, tp=4, pp=2)
        ranks = [
            layout.rank_of_coords(pp_r, dp_r, tp_r)
            for pp_r in range(2) for dp_r in range(2) for tp_r in range(4)
        ]
        # Coordinates map one to one onto the ranks, TP innermost.
        assert ranks == list(range(16))

    def test_embedding_on_first_stage_head_on_last(self, cluster):
        layout = self.layout(cluster, dp=1, tp=4, pp=4)
        assert layout.stage_of_block(EMBEDDING_BLOCK) == 0
        assert layout.stage_of_block(HEAD_BLOCK) == 3
        assert layout.stage_of_block(0) == 0
        assert layout.stage_of_block(31) == 3

    def test_block_bytes(self, cluster):
        config = get_model_config("7b")
        layout = self.layout(cluster, dp=2, tp=4, pp=2)
        assert layout.block_bytes(0) == config.layer_params() * PARAM_BYTES
        assert layout.block_bytes(EMBEDDING_BLOCK) == config.embedding_params() * PARAM_BYTES
        with pytest.raises(ValueError):
            layout.block_bytes(999)

    def test_holders_are_dp_replicas(self, cluster):
        layout = self.layout(cluster, dp=2, tp=4, pp=2)
        shard = layout.shard_interval(tp_rank=1)
        holders = [gpu for gpu, held in layout.holder_intervals(0).items() if held == shard]
        assert len(holders) == 2  # one per DP rank

    def test_strategy_must_match_mesh(self, cluster):
        with pytest.raises(ValueError):
            ParamLayout(
                config=get_model_config("7b"),
                mesh=full_cluster_mesh(cluster),
                parallel=ParallelStrategy(1, 4, 2),
            )

    def test_total_param_bytes_conserved(self, cluster):
        """Sum of per-GPU shards equals dp x the model's total parameter bytes."""
        config = get_model_config("7b")
        for dp, tp, pp in [(2, 4, 2), (1, 8, 2), (4, 2, 2), (16, 1, 1)]:
            layout = ParamLayout(
                config=config, mesh=full_cluster_mesh(cluster),
                parallel=ParallelStrategy(dp, tp, pp),
            )
            total = sum(
                layout.block_bytes(block) * (hi - lo)
                for block in layout.block_ids()
                for lo, hi in layout.stage_holders(layout.stage_of_block(block)).values()
            )
            assert total == pytest.approx(dp * config.param_count() * PARAM_BYTES, rel=1e-6)

    def test_holder_intervals_cover_unit_range(self, cluster):
        layout = self.layout(cluster, dp=2, tp=4, pp=2)
        intervals = layout.holder_intervals(5)
        covered = sorted(set(intervals.values()))
        assert covered[0][0] == 0.0
        assert covered[-1][1] == 1.0

    def test_gpu_blocks_nonempty_for_every_gpu(self, cluster):
        layout = self.layout(cluster, dp=2, tp=2, pp=4)
        holders = {gpu for stage in range(4) for gpu in layout.stage_holders(stage)}
        assert holders == set(layout.mesh.device_ids)

    def test_gpu_blocks_empty_for_foreign_gpu(self, cluster):
        node0 = DeviceMesh(cluster, 0, 1, 0, 8)
        layout = ParamLayout(
            config=get_model_config("7b"), mesh=node0, parallel=ParallelStrategy(2, 4, 1)
        )
        for block in layout.block_ids():
            assert 15 not in layout.holder_intervals(block)


@given(
    dp=st.sampled_from([1, 2, 4]),
    tp=st.sampled_from([1, 2, 4]),
    pp=st.sampled_from([1, 2, 4]),
)
def test_every_block_fully_covered(dp, tp, pp):
    """Property: for any strategy, every parameter block is fully covered."""
    cluster = make_cluster(dp * tp * pp)
    config = get_model_config("7b")
    layout = ParamLayout(config=config, mesh=full_cluster_mesh(cluster),
                         parallel=ParallelStrategy(dp, tp, pp))
    for block in (EMBEDDING_BLOCK, HEAD_BLOCK, 0, config.n_layers - 1):
        intervals = sorted(set(layout.holder_intervals(block).values()))
        # Consecutive intervals tile [0, 1) without gaps.
        assert intervals[0][0] == pytest.approx(0.0)
        assert intervals[-1][1] == pytest.approx(1.0)
        for (_prev_lo, prev_hi), (next_lo, _next_hi) in zip(intervals[:-1], intervals[1:]):
            assert prev_hi == pytest.approx(next_lo)
