"""Figure 17: strong scaling throughput and static-memory utilisation.

With the problem size fixed, adding GPUs first yields linear or super-linear
gains (parallelizing compute and trading memory for communication) and then
hits diminishing returns once auto-regressive generation's memory I/O becomes
the bottleneck.  The paper recommends static-memory utilisation (< 60% means
diminishing returns) as the heuristic for choosing the cluster size.
"""

from conftest import bench_scale, bench_search_config, run_once

from repro.baselines import RealSystem
from repro.experiments import evaluate_setting, format_table, strong_scaling_settings


def run_figure17():
    gpu_counts = (8, 16, 32) if bench_scale() != "full" else (8, 16, 32, 64, 96, 128)
    rows = []
    for actor in (["7b"] if bench_scale() != "full" else ["7b", "13b", "34b"]):
        settings = strong_scaling_settings(actor, gpu_counts=gpu_counts)
        for setting in settings:
            record = evaluate_setting(
                setting, RealSystem(search_config=bench_search_config())
            )
            rows.append(
                {
                    "actor": actor.upper(),
                    "GPUs": setting.n_gpus,
                    "PFLOP/s": round(record.petaflops, 2) if record.feasible else "OOM",
                    "static mem util": round(record.extra["static_mem_util"], 3)
                    if record.extra
                    else "-",
                }
            )
    return rows


def test_figure17_strong_scaling(benchmark):
    rows = run_once(benchmark, run_figure17)
    print()
    print(format_table(rows, title="Figure 17: strong scaling and static memory utilisation"))
    by_actor = {}
    for row in rows:
        if row["PFLOP/s"] != "OOM":
            by_actor.setdefault(row["actor"], []).append(row)
    for actor, actor_rows in by_actor.items():
        throughputs = [row["PFLOP/s"] for row in actor_rows]
        utils = [row["static mem util"] for row in actor_rows]
        # Throughput grows with the cluster (strong scaling) ...
        assert throughputs[-1] > throughputs[0]
        # ... while static memory utilisation per GPU falls.
        assert utils[-1] < utils[0]
