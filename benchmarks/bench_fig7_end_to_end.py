"""Figure 7: end-to-end weak-scaling throughput versus the baseline systems.

The paper compares ReaL against DeepSpeed-Chat, OpenRLHF, NeMo-Aligner and
veRL while scaling the actor (7B..70B) and the batch with the cluster
(16..128 GPUs).  Expected shape: ReaL achieves the highest throughput at every
point (up to ~3.6x over the weakest baseline), with veRL the strongest
baseline; some baselines become infeasible (OOM) at the larger scales.
"""

from conftest import bench_scale, bench_search_config, run_once

from repro.baselines import (
    DeepSpeedChatSystem,
    NeMoAlignerSystem,
    OpenRLHFSystem,
    RealHeuristicSystem,
    RealSystem,
    VeRLSystem,
)
from repro.experiments import format_table, run_comparison, weak_scaling_settings


def run_figure7():
    settings = weak_scaling_settings()
    if bench_scale() != "full":
        settings = settings[:2]  # 7B@16 GPUs and 13B@32 GPUs
    systems = [
        DeepSpeedChatSystem(),
        OpenRLHFSystem(),
        NeMoAlignerSystem(),
        VeRLSystem(),
        RealHeuristicSystem(),
        RealSystem(search_config=bench_search_config()),
    ]
    records = run_comparison(settings, systems)
    return settings, records


def test_figure7_end_to_end_throughput(benchmark):
    settings, records = run_once(benchmark, run_figure7)
    rows = [r.as_row() for r in records]
    print()
    print(format_table(rows, title="Figure 7: weak-scaling throughput (PFLOP/s) vs baselines"))

    for setting in settings:
        here = [r for r in records if r.setting == setting.name]
        real = next(r for r in here if r.system == "ReaL")
        assert real.feasible, "ReaL must run every weak-scaling point"
        # ReaL is at least as fast as every feasible baseline (small tolerance
        # for estimator-vs-engine mismatch).
        for record in here:
            if record.system != "ReaL" and record.feasible:
                assert real.petaflops >= record.petaflops * 0.95
