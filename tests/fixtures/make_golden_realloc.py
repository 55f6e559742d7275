"""Regenerate the exact reallocation prices used by ``tests/test_golden_realloc.py``.

``golden_realloc_exact.json`` pins, bit for bit, what
``ReallocCostModel(cluster, exact=True).cost`` returns (``seconds`` and
``bytes_sent`` as ``float.hex``, ``n_broadcasts`` as an int) for seeded
option pairs of the 7b, 13b, 34b and 70b models.  The pairs are drawn on
three clusters of different node widths (2 x 8, 4 x 8 and 4 x 4 GPUs), in
five mesh relations:

* ``equal`` — one mesh, two strategies;
* ``sub_node`` — two different sub-node slices;
* ``cross_node`` — two different meshes, at least one spanning nodes;
* ``overlapping`` — two different single-node meshes sharing a GPU;
* ``disjoint`` — two single-node meshes sharing no GPU.

Every strategy is one :func:`~repro.core.enumerate_strategies` allows for
the model with TP within a node.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden_realloc.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.cluster import ClusterSpec, DeviceMesh, enumerate_device_meshes, make_cluster
from repro.core import Allocation, ParallelStrategy, enumerate_strategies
from repro.model import get_model_config
from repro.realloc import ReallocCost, ReallocCostModel

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_realloc_exact.json"

SIZES = ("7b", "13b", "34b", "70b")
RELATIONS = ("equal", "sub_node", "cross_node", "overlapping", "disjoint")
CLUSTERS = ((2, 8), (4, 8), (4, 4))
"""``(n_nodes, gpus_per_node)`` of each cluster pairs are drawn on."""
PAIRS_PER_CELL = 4
"""Pairs per (cluster, model size, relation) cell."""
SEED = 41


def _cluster(n_nodes: int, gpus_per_node: int) -> ClusterSpec:
    return make_cluster(n_nodes * gpus_per_node, gpus_per_node=gpus_per_node)


def _relation(a: DeviceMesh, b: DeviceMesh) -> str:
    if a == b:
        return "equal"
    width = a.cluster.gpus_per_node
    if a.n_nodes == b.n_nodes == 1 and a.gpus_per_node < width and b.gpus_per_node < width:
        return "sub_node"
    if a.n_nodes > 1 or b.n_nodes > 1:
        return "cross_node"
    if set(a.device_ids) & set(b.device_ids):
        return "overlapping"
    return "disjoint"


def _mesh_doc(mesh: DeviceMesh) -> List[int]:
    return [mesh.node_start, mesh.n_nodes, mesh.gpu_start, mesh.gpus_per_node]


def _alloc(cluster: ClusterSpec, mesh: List[int], parallel: List[int]) -> Allocation:
    return Allocation(DeviceMesh(cluster, *mesh), ParallelStrategy(*parallel))


def draw_pairs() -> List[Dict]:
    """The seeded option pairs, each a JSON-able description."""
    rng = random.Random(SEED)
    pairs: List[Dict] = []
    for n_nodes, gpus_per_node in CLUSTERS:
        cluster = _cluster(n_nodes, gpus_per_node)
        meshes = enumerate_device_meshes(cluster)
        by_relation: Dict[str, List[Tuple[DeviceMesh, DeviceMesh]]] = {r: [] for r in RELATIONS}
        for a in meshes:
            for b in meshes:
                by_relation[_relation(a, b)].append((a, b))
        for size in SIZES:
            config = get_model_config(size)

            def strategies(mesh: DeviceMesh) -> List[ParallelStrategy]:
                return enumerate_strategies(mesh.n_gpus, config, max_tp=gpus_per_node)

            for relation in RELATIONS:
                seen = set()
                while len(seen) < PAIRS_PER_CELL:
                    a, b = rng.choice(by_relation[relation])
                    src, dst = rng.choice(strategies(a)), rng.choice(strategies(b))
                    if a == b and src == dst:
                        continue  # priced as free without planning
                    key = (a, b, src, dst)
                    if key in seen:
                        continue
                    seen.add(key)
                    pairs.append({
                        "cluster": [n_nodes, gpus_per_node],
                        "model": size,
                        "relation": relation,
                        "src": [_mesh_doc(a), [src.dp, src.tp, src.pp]],
                        "dst": [_mesh_doc(b), [dst.dp, dst.tp, dst.pp]],
                    })
    return pairs


def price(model: ReallocCostModel, pair: Dict) -> ReallocCost:
    """``model``'s exact cost of one pair (``model`` must be on the pair's cluster)."""
    cluster = model.cluster
    src = _alloc(cluster, *pair["src"])
    dst = _alloc(cluster, *pair["dst"])
    return model.cost(get_model_config(pair["model"]), src, dst)


def cost_doc(cost: ReallocCost) -> Dict:
    return {
        "seconds": cost.seconds.hex(),
        "bytes_sent": float(cost.bytes_sent).hex(),
        "n_broadcasts": cost.n_broadcasts,
    }


def fresh_prices(pairs: List[Dict]) -> Iterator[Dict]:
    """Each pair priced by its own new exact model."""
    for pair in pairs:
        yield cost_doc(price(ReallocCostModel(_cluster(*pair["cluster"]), exact=True), pair))


def shared_prices(pairs: List[Dict], order: List[int]) -> Dict[int, Dict]:
    """Pairs priced in ``order`` by one exact model per cluster, by index."""
    models = {tuple(shape): ReallocCostModel(_cluster(*shape), exact=True) for shape in CLUSTERS}
    return {
        i: cost_doc(price(models[tuple(pairs[i]["cluster"])], pairs[i])) for i in order
    }


def main() -> None:
    pairs = draw_pairs()
    for pair, cost in zip(pairs, fresh_prices(pairs)):
        pair["cost"] = cost
    GOLDEN_PATH.write_text(json.dumps({"seed": SEED, "pairs": pairs}, indent=1) + "\n")
    print(f"wrote {len(pairs)} pairs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
