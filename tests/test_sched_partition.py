"""Unit tests for partitions and the free-space manager of the scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_cluster
from repro.cluster.topology import enumerate_device_meshes
from repro.sched import Partition, PartitionManager


def _all_placements(cluster):
    """Every valid mesh of ``cluster`` as a partition (brute-force enumeration)."""
    return [Partition(mesh) for mesh in enumerate_device_meshes(cluster)]


def _free_set(manager):
    """The GPUs ``manager`` reports free, asked one single-GPU partition at a time."""
    return {
        gid
        for p in _all_placements(manager.cluster)
        if p.n_gpus == 1 and manager.is_free(p)
        for gid in p.region.device_ids
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
    """The free-space index must match brute-force enumerate-and-filter.

    ``_reference`` enumerates every device mesh and keeps those inside a free
    set the test tracks on its own.  Randomized allocate/release/fail/restore
    walks, allocating placements the reference picks, check after *every*
    step ``distinct_shapes`` (under random bounds and ``extra_free``
    hypotheses, some overlapping failed GPUs) against the reference's first
    placement of each shape, and ``is_free`` (on every mesh) and ``n_free``
    against the tracked free set.  Clusters have 4- or 8-GPU nodes, and one
    has more than 64 nodes, so its node bitsets span several machine words.
    """

    @staticmethod
    def _meshes(cluster):
        """Every mesh of ``cluster`` with its GPU set, computed once per walk."""
        return [(mesh, mesh.device_id_set) for mesh in enumerate_device_meshes(cluster)]

    @staticmethod
    def _reference(cluster, free, min_gpus=1, max_gpus=None, meshes=None):
        """Valid meshes inside ``free``, smallest first, then by location."""
        limit = cluster.n_gpus if max_gpus is None else min(max_gpus, cluster.n_gpus)
        if meshes is None:
            meshes = TestMaskEquivalence._meshes(cluster)
        inside = [
            mesh
            for mesh, ids in meshes
            if max(1, min_gpus) <= mesh.n_gpus <= limit and ids <= free
        ]
        inside.sort(key=lambda m: (m.n_gpus, m.node_start, m.gpu_start))
        return inside

    @staticmethod
    def _observed(meshes):
        return [(m.n_gpus, m.node_start, m.gpu_start, m.shape) for m in meshes]

    @classmethod
    def _first_per_shape(cls, meshes):
        first = {}
        for mesh in meshes:
            first.setdefault(mesh.shape, mesh)
        return cls._observed(first.values())

    @classmethod
    def _walk(cls, rng, manager, n_steps, meshes):
        """A random mutation walk over the manager's API.

        Yields ``(owners, free, failed_nodes)`` after every step: the owners'
        partitions, and the free set and failed nodes tracked alongside.
        """
        cluster = manager.cluster
        n_nodes = cluster.n_nodes
        free = set(range(cluster.n_gpus))
        owners = {}
        failed_nodes = set()
        gpn = cluster.gpus_per_node
        for step in range(n_steps):
            move = rng.random()
            if move < 0.45:
                options = cls._reference(cluster, free, meshes=meshes)
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
            yield owners, free, failed_nodes

    @staticmethod
    def _extra_free(rng, cluster, owners, failed_nodes):
        """A hypothetical ``extra_free`` set: nothing, an owner's GPUs, a
        failed node's GPUs with or without an owner's, or random GPUs."""
        gpn = cluster.gpus_per_node
        extra = set()
        kind = rng.randrange(4)
        if kind in (1, 2) and owners:
            extra |= owners[rng.choice(sorted(owners))].device_id_set
        if kind == 2 and failed_nodes:
            node = rng.choice(sorted(failed_nodes))
            extra |= set(range(node * gpn, (node + 1) * gpn))
        if kind == 3:
            extra |= set(rng.sample(range(cluster.n_gpus), rng.randint(1, cluster.n_gpus)))
        return frozenset(extra)

    @classmethod
    def _check(cls, rng, manager, owners, free, failed_nodes, meshes):
        cluster = manager.cluster
        gpn = cluster.gpus_per_node
        assert manager.n_free == len(free)
        for mesh, ids in meshes:
            assert manager.is_free(Partition(mesh)) == (ids <= free)
        min_gpus = rng.randint(1, 3 * gpn)
        max_gpus = rng.choice((gpn // 2, gpn, 2 * gpn, 3 * gpn, None, float("inf")))
        extra = cls._extra_free(rng, cluster, owners, failed_nodes)
        observed = cls._observed(
            p.region
            for p in manager.distinct_shapes(
                min_gpus=min_gpus, max_gpus=max_gpus, extra_free=extra
            )
        )
        expected = cls._first_per_shape(
            cls._reference(cluster, free | extra, min_gpus, max_gpus, meshes)
        )
        assert observed == expected
        # The hypothesis leaves the manager's own answers untouched.
        assert manager.n_free == len(free)

    @settings(max_examples=15, deadline=None)
    @given(
        n_nodes=st.integers(min_value=1, max_value=5),
        gpus_per_node=st.sampled_from((4, 8)),
        seed=st.integers(min_value=0, max_value=10_000),
        n_steps=st.integers(min_value=0, max_value=40),
    )
    def test_candidates_match_brute_force_under_mutations(
        self, n_nodes, gpus_per_node, seed, n_steps
    ):
        import random

        rng = random.Random(seed)
        manager = PartitionManager(make_cluster(n_nodes * gpus_per_node, gpus_per_node))
        meshes = self._meshes(manager.cluster)
        self._check(rng, manager, {}, set(range(manager.cluster.n_gpus)), set(), meshes)
        for owners, free, failed_nodes in self._walk(rng, manager, n_steps, meshes):
            self._check(rng, manager, owners, free, failed_nodes, meshes)

    @pytest.mark.parametrize("gpus_per_node", [4, 8])
    def test_index_spanning_several_machine_words(self, gpus_per_node):
        import random

        rng = random.Random(20 + gpus_per_node)
        manager = PartitionManager(make_cluster(70 * gpus_per_node, gpus_per_node))
        meshes = self._meshes(manager.cluster)
        n_high = 0
        for owners, free, failed_nodes in self._walk(rng, manager, 60, meshes):
            self._check(rng, manager, owners, free, failed_nodes, meshes)
            n_high += any(p.region.node_start + p.region.n_nodes > 64 for p in owners.values())
        assert n_high  # the walk did use nodes past the first 64-bit word

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
