"""Gate end-to-end outcomes: run every perfbench workload and seed and compare digests.

For each ``workload`` x ``seed`` in ``tests/fixtures/perfbench_digests.json``
this runs ``perfbench/run.py --trace 0`` for the workload's ``SECONDS`` and
fails when the run is not ``"correct"`` (a failed operation or rounds that
disagree), when it printed fewer than 2 ``round N:`` lines (one round cannot
show that rounds agree), or when its ``digest:`` line differs from the pinned
one.  ``--correct-only`` skips the digest comparison (for interpreters whose
digests are not pinned).  On success the last line is an ``OK:`` verdict
naming how many runs passed.

Run from the repository root::

    python3 benchmarks/check_perfbench_digests.py
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "perfbench_digests.json"
MIN_ROUNDS = 2
# A second round starts only if the first, its check included, ended within
# --seconds.  One round takes 3-4 s (fleet_replay, online_replan) and 14-16 s
# (plan_search) on 2 x86_64 cores; these allow a machine 2.5x slower.
SECONDS = {"fleet_replay": "10", "online_replan": "12", "plan_search": "40"}


def run(workload: str, seed: str) -> tuple:
    """``(error or None, digest)`` of one perfbench run, echoing its output."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", SECONDS[workload], "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    print(proc.stdout, end="", flush=True)
    print(proc.stderr, end="", file=sys.stderr, flush=True)
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest:")]
    if proc.returncode or not digests:
        return "run crashed or printed no digest", ""
    if json.loads(lines[-1]).get("correct") is not True:
        return "run is not correct", digests[0]
    n_rounds = sum(line.startswith("round ") for line in lines)
    if n_rounds < MIN_ROUNDS:
        return (f"{n_rounds} round(s) in {SECONDS[workload]} s, need >= "
                f"{MIN_ROUNDS} to compare rounds"), digests[0]
    return None, digests[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--correct-only", action="store_true",
                        help="check only that every run is correct")
    args = parser.parse_args(argv)
    failed, drifted = [], []
    n_runs = 0
    for workload, seeds in sorted(json.loads(FIXTURE.read_text()).items()):
        for seed, expected in sorted(seeds.items()):
            n_runs += 1
            error, digest = run(workload, seed)
            if error is not None:
                failed.append(f"{workload} seed {seed}: {error}")
            elif not args.correct_only and digest != expected:
                drifted.append(f"{workload} seed {seed}: digest {digest}, pinned {expected}")
    for error in failed + drifted:
        print(f"FAILED {error}", file=sys.stderr)
    if drifted:
        print(
            "The outcome changed.  If that is intended, update "
            f"{FIXTURE.relative_to(ROOT)} and declare the change in CHANGES.md.",
            file=sys.stderr,
        )
    if failed or drifted:
        return 1
    if args.correct_only:
        print(f"OK: {n_runs}/{n_runs} workload x seed runs correct")
    else:
        print(f"OK: {n_runs}/{n_runs} workload x seed digests match "
              f"{FIXTURE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
