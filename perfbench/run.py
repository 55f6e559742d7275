"""End-to-end benchmark of the ReaL planner/scheduler stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan_search --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``plan_search``, ``fleet_replay``, ``online_replan``
(see perfbench/DESIGN.md for why each exists and what it should move).  The
run sets the workload up several times (``setup_s`` is the median, plus the
one-off import time), then repeats measured rounds of identical inputs for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines before
it carry the outcome digest (identical for identical code and seed), the
machine fingerprint and every ``REPRO_*`` variable set.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan_search", "fleet_replay", "online_replan")
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reset_process_telemetry() -> None:
    """Fresh global tracer, ledger and registry, as in a new process.

    The repo's span tracer and provenance ledger keep every record of the
    process; without this, later rounds would pay for earlier rounds' history.
    """
    from repro.obs import (
        MetricsRegistry, ProvenanceLedger, Tracer, set_ledger, set_registry, set_tracer,
    )

    set_tracer(Tracer())
    set_ledger(ProvenanceLedger())
    set_registry(MetricsRegistry())


def _one_round(workload, tracer=None):
    """One checked round; traced when given a tracer (no reference loop then)."""
    from perfbench.clock import Clock

    _reset_process_telemetry()
    gc.collect()
    if tracer is None:
        return workload.check(workload.run_round(Clock())), None, None
    from perfbench.layer_trace import WRAPS, layer_metrics

    tracer.install(WRAPS)
    try:
        with tracer.root():
            raw = workload.run_round(Clock(calibrated=False))
    finally:
        tracer.uninstall()
    return workload.check(raw), layer_metrics(tracer), dict(tracer.calls)


def _end_to_end(rounds, setup_s):
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_op_ratio": ((attempted - failed) / attempted, "ratio"),
        "op_p50_s": (statistics.median(s for r in rounds for s in r.op_seconds), "s"),
        "round_s": (statistics.median(r.round_seconds for r in rounds), "s"),
        "gpu_s_per_iter": (rounds[0].gpu_s_per_iter, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    if leaf == "iters_per_s":
        return "1/s"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_ratio"):
        return "ratio"
    return "count"


def _per_layer(traced, untraced_wall, traced_wall):
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(traced_wall) / statistics.median(untraced_wall) - 1.0
    )
    return {n: {"value": v, "unit": _unit(n)} for n, v in sorted(metrics.items())}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.clock import Clock

    clock = Clock()
    workloads, import_s = clock.measure(importlib.import_module, "perfbench.workloads")
    from perfbench.layer_trace import LayerTracer
    from repro.obs import machine_fingerprint

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, str(tmp_root))
        setups = [clock.measure(workload.setup)[1] for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setups)

        rounds, traced, untraced_wall, traced_wall = [], [], [], []
        missing = set()
        measure_started = time.perf_counter()
        while (
            time.perf_counter() - measure_started < args.seconds
            or not rounds
            or (args.trace and not traced)
        ):
            # Traced runs alternate untraced and traced rounds of one input.
            tracer = LayerTracer() if args.trace and len(rounds) % 2 == 1 else None
            result, layers, calls = _one_round(workload, tracer)
            rounds.append(result)
            if layers is None:
                untraced_wall.append(result.wall_seconds)
            else:
                traced.append(layers)
                traced_wall.append(result.wall_seconds)
                missing.update(
                    layer for layer in workloads.EXPECTED_LAYERS[args.workload]
                    if not calls[layer]
                )
            print(f"round {len(rounds)}{' traced' if layers else ''}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in result.stages.items())
                  + f" wall_s={result.wall_seconds:.6g}"
                  + f" failed={result.failed}/{result.attempted}", flush=True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    digests = {r.digest for r in rounds}
    correct = len(digests) == 1 and all(r.failed == 0 for r in rounds)
    if args.trace:
        metrics = _per_layer(traced, untraced_wall, traced_wall)
        if missing:
            print(f"traced run: no calls recorded in {sorted(missing)}", file=sys.stderr)
            correct = False
        for name, entry in metrics.items():
            print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = _end_to_end(rounds, setup_s)
    print("digest:", " ".join(sorted(digests)))
    print("machine:", json.dumps(machine_fingerprint(), sort_keys=True))
    print("repro_env:", json.dumps(
        {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    ))
    print("wall_s:", f"{time.perf_counter() - STARTED:.3f}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
