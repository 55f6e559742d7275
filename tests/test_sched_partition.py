"""Unit tests for partitions and the free-space manager of the scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.cluster.topology import enumerate_device_meshes
from repro.sched import Partition, PartitionManager, equal_node_partitions


def _all_placements(cluster):
    """Every valid mesh of ``cluster`` as a partition (brute-force enumeration)."""
    return [Partition(mesh) for mesh in enumerate_device_meshes(cluster)]


def _free_set(manager):
    """The GPUs ``manager`` reports free, asked one single-GPU partition at a time."""
    return {
        gid
        for p in _all_placements(manager.cluster)
        if p.n_gpus == 1 and manager.is_free(p)
        for gid in p.device_ids
    }


class TestPartition:
    def test_spec_shape_matches_region(self):
        for partition in _all_placements(make_cluster(32)):
            spec = partition.spec
            assert (spec.n_nodes, spec.gpus_per_node) == partition.shape
            assert spec.n_gpus == partition.n_gpus

    def test_same_shape_partitions_share_spec(self):
        by_shape = {}
        for partition in _all_placements(make_cluster(32)):
            by_shape.setdefault(partition.shape, []).append(partition)
        for shape, group in by_shape.items():
            specs = {p.spec for p in group}
            assert len(specs) == 1, f"shape {shape} produced distinct specs"

    def test_describe_mentions_gpu_count(self):
        partition = PartitionManager(make_cluster(16)).distinct_shapes(min_gpus=16)[0]
        assert "16 GPUs" in partition.describe()


class TestEqualNodePartitions:
    def test_exact_tiling(self):
        cluster = make_cluster(64)
        slots = equal_node_partitions(cluster, 8)
        covered = set()
        for slot in slots:
            assert not covered & slot.device_id_set
            covered |= slot.device_id_set
        assert covered == set(range(64))

    def test_uneven_split_leaves_remainder_unused(self):
        cluster = make_cluster(64)  # 8 nodes
        slots = equal_node_partitions(cluster, 3)
        assert all(slot.n_gpus == 2 * 8 for slot in slots)

    def test_too_many_slots_rejected(self):
        with pytest.raises(ValueError):
            equal_node_partitions(make_cluster(16), 3)
        with pytest.raises(ValueError):
            equal_node_partitions(make_cluster(16), 0)


class TestPartitionManager:
    def test_initially_all_free(self):
        manager = PartitionManager(make_cluster(16))
        assert manager.n_free == 16
        assert manager.n_available == 16

    def test_candidates_sorted_smallest_first(self):
        manager = PartitionManager(make_cluster(16))
        sizes = [p.n_gpus for p in manager.distinct_shapes()]
        assert sizes == sorted(sizes)
        assert sizes == [1, 2, 4, 8, 16]

    def test_candidates_respect_bounds(self):
        manager = PartitionManager(make_cluster(32))
        shapes = manager.distinct_shapes(min_gpus=8, max_gpus=16)
        assert [p.n_gpus for p in shapes] == [8, 16]

    def test_allocate_removes_and_release_returns(self):
        manager = PartitionManager(make_cluster(16))
        partition = manager.distinct_shapes(min_gpus=8, max_gpus=8)[0]
        manager.allocate(partition, owner=1)
        assert manager.n_free == 8
        assert _free_set(manager) == set(range(8, 16))
        assert not any(
            p.device_id_set & partition.device_id_set for p in manager.distinct_shapes()
        )
        manager.release(1)
        assert manager.n_free == 16

    def test_double_allocate_rejected(self):
        manager = PartitionManager(make_cluster(16))
        whole = manager.distinct_shapes(min_gpus=16)[0]
        manager.allocate(manager.distinct_shapes(min_gpus=2, max_gpus=2)[0], owner=1)
        with pytest.raises(ValueError, match=r"not free: \[0, 1\]$"):
            manager.allocate(whole, owner=2)
        assert manager.n_free == 14  # the failed allocation took nothing

    def test_fail_node_removes_capacity(self):
        manager = PartitionManager(make_cluster(16))
        failed = manager.fail_node(0)
        assert len(failed) == 8
        assert manager.n_available == 8
        assert _free_set(manager) == set(range(8, 16))
        assert all(p.device_id_set.isdisjoint(failed) for p in manager.distinct_shapes())

    def test_release_after_failure_keeps_failed_gpus_out(self):
        manager = PartitionManager(make_cluster(16))
        partition = manager.distinct_shapes(min_gpus=8, max_gpus=8)[0]
        manager.allocate(partition, owner=1)
        manager.fail_node(0)  # the first 8-GPU placement lives on node 0
        manager.release(1)
        assert manager.n_free == 8  # only node 1 is free
        manager.restore_node(0)
        assert manager.n_free == 16

    def test_restore_out_of_range_node_rejected(self):
        manager = PartitionManager(make_cluster(16))
        for node in (-1, 2, 5):
            with pytest.raises(ValueError, match="out of range"):
                manager.fail_node(node)
            with pytest.raises(ValueError, match="out of range"):
                manager.restore_node(node)
        assert _free_set(manager) == set(range(16))

    def test_extra_free_enables_hypothetical_candidates(self):
        manager = PartitionManager(make_cluster(16))
        full = manager.distinct_shapes(min_gpus=16)[0]
        manager.allocate(full, owner=1)
        assert manager.distinct_shapes(min_gpus=8) == []
        hypothetical = manager.distinct_shapes(min_gpus=8, extra_free=full.device_id_set)
        assert [p.n_gpus for p in hypothetical] == [8, 16]
        # The hypothesis leaves the manager's free space untouched.
        assert manager.n_free == 0

    def test_distinct_shapes_deduplicates(self):
        manager = PartitionManager(make_cluster(32))
        shapes = [p.shape for p in manager.distinct_shapes(min_gpus=8)]
        assert len(shapes) == len(set(shapes))

    @settings(max_examples=20, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=6),
        min_gpus=st.integers(min_value=1, max_value=16),
    )
    def test_candidates_are_valid_free_meshes(self, n_nodes, min_gpus):
        manager = PartitionManager(make_cluster(n_nodes * 8))
        manager.allocate(manager.distinct_shapes(min_gpus=2, max_gpus=2)[0], owner=0)
        for partition in manager.distinct_shapes(min_gpus=min_gpus):
            assert partition.n_gpus >= min_gpus
            assert manager.is_free(partition)
            # The carved spec must be constructible (valid mesh shape).
            assert partition.spec.n_gpus == partition.n_gpus


class TestMaskEquivalence:
    """The bitmask queries must match brute-force enumerate-and-filter.

    ``_reference`` enumerates every device mesh and keeps those inside a free
    set the test tracks on its own.  Randomized allocate/release/fail/restore
    walks, allocating placements the reference picks, then check
    ``distinct_shapes`` against the reference's first placement of each
    shape, and ``is_free`` (on every mesh) and ``n_free`` against the
    tracked free set.
    """

    @staticmethod
    def _reference(cluster, free, min_gpus=1, max_gpus=None):
        """Valid meshes inside ``free``, smallest first, then by location."""
        limit = cluster.n_gpus if max_gpus is None else min(max_gpus, cluster.n_gpus)
        meshes = [
            mesh
            for mesh in enumerate_device_meshes(cluster, min_gpus=max(1, min_gpus))
            if mesh.n_gpus <= limit and mesh.device_id_set <= free
        ]
        meshes.sort(key=lambda m: (m.n_gpus, m.node_start, m.gpu_start))
        return meshes

    @staticmethod
    def _observed(meshes):
        return [(m.n_gpus, m.node_start, m.gpu_start, m.shape) for m in meshes]

    @classmethod
    def _first_per_shape(cls, meshes):
        first = {}
        for mesh in meshes:
            first.setdefault(mesh.shape, mesh)
        return cls._observed(first.values())

    @staticmethod
    def _walk(rng, manager, n_nodes, n_steps):
        """A random mutation walk over the manager's API; returns the owners'
        partitions and the free set tracked alongside."""
        cluster = manager.cluster
        free = set(range(cluster.n_gpus))
        owners = {}
        failed_nodes = set()
        gpn = cluster.gpus_per_node
        for step in range(n_steps):
            move = rng.random()
            if move < 0.45:
                options = TestMaskEquivalence._reference(cluster, free)
                if options:
                    partition = Partition(rng.choice(options))
                    owner = 1000 + step
                    manager.allocate(partition, owner=owner)
                    owners[owner] = partition
                    free -= partition.device_id_set
            elif move < 0.65 and owners:
                owner = rng.choice(sorted(owners))
                held = owners.pop(owner).device_id_set
                manager.release(owner)
                free |= {g for g in held if g // gpn not in failed_nodes}
            elif move < 0.85 and len(failed_nodes) < n_nodes:
                node = rng.choice([n for n in range(n_nodes) if n not in failed_nodes])
                manager.fail_node(node)
                failed_nodes.add(node)
                free -= set(range(node * gpn, (node + 1) * gpn))
            elif failed_nodes:
                node = rng.choice(sorted(failed_nodes))
                failed_nodes.discard(node)
                manager.restore_node(node)
                held = set().union(*(p.device_id_set for p in owners.values()))
                free |= set(range(node * gpn, (node + 1) * gpn)) - held
        return owners, free

    @settings(max_examples=15, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        min_gpus=st.integers(min_value=1, max_value=24),
        use_inf=st.booleans(),
    )
    def test_candidates_match_brute_force_under_mutations(
        self, n_nodes, seed, min_gpus, use_inf
    ):
        import random

        rng = random.Random(seed)
        manager = PartitionManager(make_cluster(n_nodes * 8))
        owners, free = self._walk(rng, manager, n_nodes, rng.randint(0, 6))
        assert manager.n_free == len(free)
        for mesh in enumerate_device_meshes(manager.cluster):
            assert manager.is_free(Partition(mesh)) == (mesh.device_id_set <= free)

        max_gpus = float("inf") if use_inf else rng.choice((8, 16, 24, None))
        extra = frozenset()
        if owners and rng.random() < 0.5:
            extra = next(iter(owners.values())).device_id_set
        observed = self._observed(
            p.region
            for p in manager.distinct_shapes(
                min_gpus=min_gpus, max_gpus=max_gpus, extra_free=extra
            )
        )
        expected = self._first_per_shape(
            self._reference(manager.cluster, free | extra, min_gpus, max_gpus)
        )
        assert observed == expected

    @settings(max_examples=15, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=5),
        min_gpus=st.integers(min_value=1, max_value=24),
        n_allocs=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_distinct_shapes_is_first_hit_per_shape(
        self, n_nodes, min_gpus, n_allocs, seed
    ):
        import random

        rng = random.Random(seed)
        cluster = make_cluster(n_nodes * 8)
        manager = PartitionManager(cluster)
        free = set(range(cluster.n_gpus))
        for i in range(n_allocs):
            options = self._reference(cluster, free)
            if not options:
                break
            partition = Partition(rng.choice(options))
            manager.allocate(partition, owner=i)
            free -= partition.device_id_set
        representatives = manager.distinct_shapes(min_gpus=min_gpus)
        assert self._observed(p.region for p in representatives) == (
            self._first_per_shape(self._reference(cluster, free, min_gpus))
        )
