"""Regenerate the warm-start adaptation pins used by ``tests/test_service_warm_start.py``.

``golden_warm_start.json`` pins ``adapt_plan(...).to_dict()`` (or ``None``)
for every case the cross-shape adaptation tests parametrize: PPO and GRPO
plans cached on 2- or 3-node clusters and projected onto 1 or 2 nodes at
batch 32 or 64, and plans cached on 16 GPUs projected onto sub-node slices
of 2, 4 and 8 GPUs.  The cached plan comes from an iteration-bound search,
so each pin is a pure function of the case.  Any change to the nearest-option
choice of :func:`repro.service.warm_start.adapt_plan` moves a pin.

Run from the repository root (only needed when intentionally re-baselining)::

    PYTHONPATH=src python tests/fixtures/make_golden_warm_start.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.algorithms import build_grpo_graph, build_ppo_graph
from repro.cluster import ClusterSpec, make_cluster
from repro.core import (
    MCMCSearcher,
    PruneConfig,
    SearchConfig,
    allocation_options,
    instructgpt_workload,
)
from repro.core.pruning import _CallOptions
from repro.service import PlanCacheEntry, adapt_plan, fingerprint_request

FIXTURES = Path(__file__).resolve().parent
GOLDEN_PATH = FIXTURES / "golden_warm_start.json"

GRAPHS = {"ppo": build_ppo_graph, "grpo": build_grpo_graph}
SEARCH = SearchConfig(max_iterations=10, time_budget_s=600.0, record_history=False)
SRC_NODES = (2, 3)
DST_NODES = (1, 2)
BATCH_SIZES = (32, 64)
SLICE_WIDTHS = (2, 4, 8)


def shrink_case(algorithm: str, src_nodes: int, dst_nodes: int, batch_size: int) -> str:
    return f"{algorithm}_src{src_nodes}n_dst{min(dst_nodes, src_nodes)}n_b{batch_size}"


def slice_case(algorithm: str, dst_width: int) -> str:
    return f"{algorithm}_slice{dst_width}"


def cases() -> Iterator[Tuple[str, str, int, ClusterSpec, ClusterSpec]]:
    """``(name, algorithm, batch_size, source cluster, target cluster)``."""
    for algorithm in sorted(GRAPHS):
        for src_nodes in SRC_NODES:
            for dst_nodes in DST_NODES:
                for batch_size in BATCH_SIZES:
                    yield (
                        shrink_case(algorithm, src_nodes, dst_nodes, batch_size),
                        algorithm,
                        batch_size,
                        make_cluster(src_nodes * 8),
                        make_cluster(min(dst_nodes, src_nodes) * 8),
                    )
        for width in SLICE_WIDTHS:
            yield (
                slice_case(algorithm, width),
                algorithm,
                32,
                make_cluster(16),
                make_cluster(width, gpus_per_node=width),
            )


def cached_entry(graph, workload, cluster: ClusterSpec) -> PlanCacheEntry:
    """A genuine cache entry: short search on the source cluster."""
    searcher = MCMCSearcher(graph, workload, cluster, config=SEARCH)
    result = searcher.search()
    peak = searcher.estimator.max_memory(result.best_plan).max_bytes
    fingerprint = fingerprint_request(graph, workload, cluster, SEARCH)
    return PlanCacheEntry.from_search_result(fingerprint, result, peak)


def compile_options(options) -> Dict[str, _CallOptions]:
    """Each call's option list compiled as a search problem compiles it."""
    return {name: _CallOptions(choices) for name, choices in options.items()}


def adapt(algorithm: str, batch_size: int, src: ClusterSpec, dst: ClusterSpec):
    """``(graph, target options, adapted plan or None)`` of one case."""
    graph = GRAPHS[algorithm]()
    workload = instructgpt_workload("7b", "7b", batch_size=batch_size)
    entry = cached_entry(graph, workload, src)
    options = allocation_options(graph, workload, dst, PruneConfig())
    return graph, options, adapt_plan(entry, graph, dst, compile_options(options))


def pin(plan) -> Optional[Dict]:
    return None if plan is None else plan.to_dict()


def main() -> None:
    golden = {
        name: pin(adapt(algorithm, batch_size, src, dst)[2])
        for name, algorithm, batch_size, src, dst in cases()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
