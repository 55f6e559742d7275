"""Compare two checkouts on one perfbench workload with alternating runs.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace X``
once in the parent checkout and once in the change checkout.  Which side runs
first alternates from pair to pair, so slow drift of the machine lands on
both sides alike.  After the last pair it prints, for each metric of
``BENCHMARK.json`` (the ``end_to_end`` ones with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``), each side's median and interquartile
range, the relative change of the medians (``change / parent - 1``, signed,
in percent), and in how many pairs the change was better (by the metric's
``better`` direction; a tie is no win).  It also prints whether the two
digests of each pair are equal: timings of runs whose outcomes differ
compare different work.  Each side's ``machine:`` line is printed before
the summary, and a pair whose two runs report different ``usable_cores``
is flagged, since wall-clock rates are only comparable at equal usable
cores.  A run that exits non-zero stops the comparison with the tail of
its stderr.

Run from the repository root of the change::

    python3 benchmarks/perf_pairs.py --parent ../parent --change . \\
        --workload online_replan --seed 101 --pairs 5

It only reads perfbench's output; neither checkout is modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan_search", "fleet_replay", "online_replan")


def parse_run(stdout: str) -> Tuple[str, bool, Dict[str, float]]:
    """``(digest, correct, {metric: value})`` of one perfbench run's stdout."""
    lines = stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest:")]
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return (digests[0] if digests else ""), result.get("correct") is True, metrics


def parse_machine(stdout: str) -> Dict[str, object]:
    """The ``machine:`` fingerprint of one perfbench run's stdout (``{}`` if absent)."""
    for line in stdout.splitlines():
        if line.startswith("machine:"):
            return json.loads(line.split(":", 1)[1])
    return {}


def machine_lines(parent: Sequence[str], change: Sequence[str]) -> List[str]:
    """Each side's distinct ``machine:`` lines, in order of first appearance."""
    lines: List[str] = []
    for side, stdouts in (("parent", parent), ("change", change)):
        seen: List[str] = []
        for stdout in stdouts:
            machine = json.dumps(parse_machine(stdout), sort_keys=True)
            if machine not in seen:
                seen.append(machine)
        lines.extend(f"{side} machine: {machine}" for machine in seen)
    return lines


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def relative_change(before: float, after: float) -> str:
    """``after / before - 1`` as a signed percentage (``n/a`` from zero)."""
    if before == 0:
        return "n/a"
    return f"{(after / before - 1.0) * 100.0:+.2f}%"


def summarize(
    parent: Sequence[str], change: Sequence[str], better: Dict[str, str]
) -> List[str]:
    """Report lines for the paired stdouts ``parent[i]``/``change[i]``.

    ``better`` maps each end-to-end metric to ``"lower"`` or ``"higher"``;
    metrics a run reports outside it are ignored.
    """
    runs = [(parse_run(p), parse_run(c)) for p, c in zip(parent, change)]
    n_pairs = len(runs)
    lines = [f"{n_pairs} pairs (parent, change)"]
    for name, direction in better.items():
        if not all(name in p[2] and name in c[2] for p, c in runs):
            continue
        before = [p[2][name] for p, _ in runs]
        after = [c[2][name] for _, c in runs]
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        p_q1, p_med, p_q3 = _quartiles(before)
        c_q1, c_med, c_q3 = _quartiles(after)
        lines.append(
            f"{name} ({direction} is better): parent median {p_med:.6g} IQR {p_q3 - p_q1:.3g}"
            f" | change median {c_med:.6g} IQR {c_q3 - c_q1:.3g}"
            f" | medians {relative_change(p_med, c_med)}"
            f" | change better in {wins}/{n_pairs}"
        )
    for i, ((p, c), p_out, c_out) in enumerate(zip(runs, parent, change), 1):
        verdict = "equal" if p[0] == c[0] else f"DIFFER ({p[0][:12]} vs {c[0][:12]})"
        correct = "" if p[1] and c[1] else "  NOT CORRECT"
        p_cores = parse_machine(p_out).get("usable_cores")
        c_cores = parse_machine(c_out).get("usable_cores")
        cores = "" if p_cores == c_cores else f"  USABLE CORES DIFFER ({p_cores} vs {c_cores})"
        lines.append(f"pair {i}: digests {verdict}{correct}{cores}")
    return lines


STDERR_TAIL_LINES = 20


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    """One perfbench run's stdout; exits with its stderr tail if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        tail = "\n".join(proc.stderr.rstrip().splitlines()[-STDERR_TAIL_LINES:])
        raise SystemExit(
            f"perfbench in {checkout} exited with {proc.returncode}; stderr tail:\n{tail}"
        )
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs, compared on the per-layer metrics")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    better = {entry["name"]: entry["better"] for entry in metrics}
    parent: List[str] = []
    change: List[str] = []
    sides = [(parent, args.parent), (change, args.change)]
    for i in range(args.pairs):
        for runs, checkout in sides if i % 2 == 0 else sides[::-1]:
            runs.append(_run(checkout, args.workload, args.seed, args.seconds, args.trace))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s per run,"
          f" trace {args.trace}")
    print("\n".join(machine_lines(parent, change) + summarize(parent, change, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
