"""Regenerate the exact pins of the paper figure/table checks.

Each ``bench_fig*``/``bench_table*`` check computes its numbers in a
``run_*`` function and then asserts only thresholds (>= 0.95 of optimum,
< 30% estimator error, ...), so a change that moves a paper number inside
its threshold passes those checks.  ``tests/fixtures/paper_pins.json``
records what each of the 17 checks computes at the default scale and
search budget, and ``bench_paper_pins.py`` compares a fresh run with it
using ``==``:

* ReaL against the baselines at every figure point (Figs. 2, 7, 8, 9, 11,
  16 and 17, Tables 6 and 7), with full-precision times and throughputs
  where the check keeps them;
* Fig. 12's profiling cost, estimates, engine times, errors and plan order;
* Fig. 13's ``ratio@100%`` and ``final ratio``, Fig. 14's search spaces
  and best costs and Fig. 15's optimality fractions;
* the per-call plans of Tables 2-5 and the model configurations of
  Table 1 and the kernel timings of Fig. 10.

Wall-clock fields are left out: Fig. 13's ``search time (s)``,
``ratio@25%`` and ``ratio@50%`` depend on how fast the machine runs.  Every
search is bound by its iteration count alone (``bench_search_config``), so
the pins are a pure function of the seeds.

Run from the repository root, only for a deliberate outcome change::

    PYTHONPATH=src python benchmarks/make_paper_pins.py
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro import knobs

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR.parent / "tests" / "fixtures" / "paper_pins.json"

# Fig. 13 fields that depend on elapsed wall time, not on the seeds.
WALL_CLOCK_FIELDS = ("search time (s)", "ratio@25%", "ratio@50%")


def _record(record) -> Dict[str, Any]:
    return {
        "setting": record.setting,
        "system": record.system,
        "feasible": record.feasible,
        "seconds_per_iteration": record.seconds_per_iteration,
        "petaflops": record.petaflops,
        "extra": record.extra,
    }


def _levels(levels) -> list:
    return [
        {
            "name": level.name,
            "use_cuda_graph": level.use_cuda_graph,
            "seconds_per_iteration": level.seconds_per_iteration,
            "call_seconds": level.call_seconds,
            "plan": {name: list(alloc.key) for name, alloc in level.plan.items()},
        }
        for level in levels
    ]


def _fig8(out):
    rows, speedups = out
    return {"rows": rows, "speedups": {str(ctx): ratios for ctx, ratios in speedups.items()}}


def _fig12_right(rows):
    by_setting: Dict[str, list] = {}
    for row in rows:
        by_setting.setdefault(row["setting"], []).append(row)
    order = {
        setting: [r["plan"] for r in sorted(setting_rows, key=lambda r: r["real (s)"])]
        for setting, setting_rows in by_setting.items()
    }
    return {"rows": rows, "plan order": order}


def _fig13(rows):
    return [{k: v for k, v in row.items() if k not in WALL_CLOCK_FIELDS} for row in rows]


def _fig16(out):
    rows, improvements = out
    return {"rows": rows, "improvements": improvements}


def _table6(tables):
    return {
        label: {
            "rows": rows,
            "summary": [[system, graph, seconds] for (system, graph), seconds in summary.items()],
        }
        for label, (rows, summary) in tables.items()
    }


# check name -> (module, run function, extractor of the pinned values)
CHECKS: Dict[str, Tuple[str, str, Callable[[Any], Any]]] = {
    "fig2_opportunity": ("bench_fig2_opportunity", "run_figure2", _levels),
    "fig7_end_to_end": (
        "bench_fig7_end_to_end", "run_figure7", lambda out: [_record(r) for r in out[1]]
    ),
    "fig8_heuristic": ("bench_fig8_heuristic", "run_figure8", _fig8),
    "fig9_progressive": (
        "bench_fig9_progressive", "run_figure9",
        lambda out: {label: _levels(levels) for label, levels in out.items()},
    ),
    "fig10_kernel_trace": (
        "bench_fig10_kernel_trace", "run_figure10",
        lambda out: {"decode": out[0], "train": out[1]},
    ),
    "fig11_gpu_breakdown": ("bench_fig11_gpu_breakdown", "run_figure11", lambda out: out),
    "fig12_left_profiler_cost": (
        "bench_fig12_estimator", "run_profiler_cost", lambda out: out[0]
    ),
    "fig12_right_estimator_accuracy": (
        "bench_fig12_estimator", "run_estimator_accuracy", _fig12_right
    ),
    "fig13_search_progress": ("bench_fig13_search_progress", "run_figure13", _fig13),
    "fig14_pruning": ("bench_fig14_pruning", "run_figure14", lambda out: out),
    "fig15_optimality": ("bench_fig15_optimality", "run_figure15", lambda out: out),
    "fig16_algorithms": ("bench_fig16_algorithms", "run_figure16", _fig16),
    "fig17_strong_scaling": ("bench_fig17_strong_scaling", "run_figure17", lambda out: out),
    "table1_model_configs": ("bench_table1_model_configs", "build_table1", lambda out: out),
    "table6_breakdown": ("bench_table6_breakdown", "run_table6", _table6),
    "table7_baselines": ("bench_table7_baselines", "run_table7", lambda out: out),
    "tables2_5_plans": ("bench_tables2_5_plans", "run_tables", lambda out: out),
}


def default_scale() -> bool:
    """Whether the benchmark knobs are at the defaults the pins were taken at."""
    return (
        knobs.get("REPRO_BENCH_SCALE") != "full"
        and knobs.get("REPRO_SEARCH_BUDGET_SCALE") == 1.0
    )


def run_check(name: str) -> Any:
    """Run one check's ``run_*`` function; return its pinned values as JSON data."""
    module_name, function, extract = CHECKS[name]
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    module = importlib.import_module(module_name)
    # A JSON round trip turns tuples into lists and int keys into strings,
    # exactly as the fixture stores them.
    return json.loads(json.dumps(extract(getattr(module, function)())))


def collect() -> Dict[str, Any]:
    return {name: run_check(name) for name in CHECKS}


def main() -> None:
    if not default_scale():
        raise SystemExit("pins are taken at the default REPRO_BENCH_SCALE and "
                         "REPRO_SEARCH_BUDGET_SCALE; unset both")
    PINS_PATH.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")


if __name__ == "__main__":
    main()
