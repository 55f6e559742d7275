"""Unit and property tests for the communication cost models."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import CommModel, make_cluster


@pytest.fixture(scope="module")
def comm():
    return CommModel(make_cluster(16))


class TestP2P:
    def test_zero_bytes_free(self, comm):
        assert comm.p2p_time_cross(0, cross_node=True) == 0.0

    def test_cross_node_slower_than_intra(self, comm):
        intra = comm.p2p_time_cross(1e9, cross_node=False)
        cross = comm.p2p_time_cross(1e9, cross_node=True)
        assert cross > intra


class TestCollectives:
    def test_allreduce_single_rank_free(self, comm):
        assert comm.allreduce_time(1e9, 1, cross_node=False) == 0.0

    def test_allreduce_monotone_in_bytes(self, comm):
        small = comm.allreduce_time(1e6, 8, cross_node=False)
        large = comm.allreduce_time(1e9, 8, cross_node=False)
        assert large > small

    def test_allreduce_cross_node_slower(self, comm):
        intra = comm.allreduce_time(1e9, 8, cross_node=False)
        cross = comm.allreduce_time(1e9, 8, cross_node=True)
        assert cross > intra

    def test_allreduce_is_about_twice_reduce_scatter(self, comm):
        ar = comm.allreduce_time(1e9, 8, cross_node=False)
        rs = comm.reduce_scatter_time(1e9, 8, cross_node=False)
        assert ar == pytest.approx(2 * rs, rel=0.2)

    def test_allgather_equals_reduce_scatter(self, comm):
        assert comm.allgather_time(1e8, 4, False) == comm.reduce_scatter_time(1e8, 4, False)

    def test_broadcast_zero_destinations_free(self, comm):
        assert comm.broadcast_time(1e9, 0, cross_node=False) == 0.0

    def test_broadcast_group_skips_self(self, comm):
        assert comm.broadcast_group_time(1e9, 0, (0,)) == 0.0
        assert comm.broadcast_group_time(1e9, 0, (0, 1)) > 0.0

    def test_group_crosses_nodes(self, comm):
        # A broadcast group is charged the inter-node rate once any
        # destination sits on another node than the source.
        within = comm.broadcast_group_time(1e9, 0, (1, 7))
        across = comm.broadcast_group_time(1e9, 0, (1, 8))
        assert across > within
        assert across == comm.broadcast_time(1e9, 2, cross_node=True)
        assert within == comm.broadcast_time(1e9, 2, cross_node=False)


@given(nbytes=st.floats(min_value=1.0, max_value=1e12), n=st.integers(min_value=2, max_value=64))
def test_allreduce_always_positive(nbytes, n):
    """Property: any non-trivial all-reduce has a strictly positive cost."""
    comm = CommModel(make_cluster(64))
    assert comm.allreduce_time(nbytes, n, cross_node=True) > 0


@given(
    nbytes=st.floats(min_value=1.0, max_value=1e11),
    n_small=st.integers(min_value=2, max_value=8),
    extra=st.integers(min_value=1, max_value=56),
)
def test_allreduce_monotone_in_participants(nbytes, n_small, extra):
    """Property: adding participants never makes a cross-node all-reduce cheaper."""
    comm = CommModel(make_cluster(64))
    small = comm.allreduce_time(nbytes, n_small, cross_node=True)
    large = comm.allreduce_time(nbytes, n_small + extra, cross_node=True)
    assert large >= small
