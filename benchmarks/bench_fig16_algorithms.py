"""Figure 16: RLHF algorithms beyond PPO (DPO, GRPO, ReMax) vs the heuristic.

Any algorithm expressible as a DAG of generation/inference/training calls can
be planned by ReaL.  Expected shape: the searched plans beat the symmetric
heuristic for every algorithm; ReMax gains the most (its two generation calls
can run concurrently) while GRPO gains the least (its 8x grouped batch makes
the workload compute-bound).
"""

from conftest import bench_scale, bench_search_config, run_once

from repro.experiments import algorithm_settings, format_table, run_heuristic_comparison


def run_figure16():
    if bench_scale() == "full":
        settings = algorithm_settings("70b", n_gpus=128)
    else:
        settings = algorithm_settings("7b", n_gpus=16)
    records = run_heuristic_comparison(settings)
    rows = []
    improvements = {}
    by_setting = {}
    for record in records:
        by_setting.setdefault(record.setting, {})[record.system] = record
    for setting in settings:
        pair = by_setting[setting.name]
        real, heur = pair["ReaL"], pair["ReaL-Heuristic"]
        improvement = (real.petaflops / heur.petaflops - 1) * 100 if heur.feasible else float("inf")
        improvements[setting.algorithm] = improvement
        rows.append(
            {
                "algorithm": setting.algorithm.upper(),
                "ReaL-Heuristic PFLOP/s": round(heur.petaflops, 2),
                "ReaL PFLOP/s": round(real.petaflops, 2),
                "improvement": f"{improvement:+.1f}%",
            }
        )
    return rows, improvements


def test_figure16_algorithms_beyond_ppo(benchmark):
    rows, improvements = run_once(benchmark, run_figure16)
    print()
    print(format_table(rows, title="Figure 16: DPO / GRPO / ReMax throughput vs heuristic"))
    # The searched plan never loses to the heuristic for any algorithm.
    assert all(value >= -2.0 for value in improvements.values())
