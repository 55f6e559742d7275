"""Gate end-to-end outcomes: run every perfbench workload and seed and compare digests.

For each ``workload`` x ``seed`` in ``tests/fixtures/perfbench_digests.json``
this runs ``perfbench/run.py --seconds 1 --trace 0`` and fails when the run
is not ``"correct"`` (a failed operation or rounds that disagree) or when its
``digest:`` line differs from the pinned one.  ``--correct-only`` skips the
digest comparison (for interpreters whose digests are not pinned).  On
success the last line is an ``OK:`` verdict naming how many runs passed.

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


def run(workload: str, seed: str) -> tuple:
    """``(correct, digest)`` of one perfbench run, echoing its output."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    print(proc.stdout, end="", flush=True)
    print(proc.stderr, end="", file=sys.stderr, flush=True)
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("digest:")]
    if proc.returncode or not digests:
        return False, ""
    return json.loads(lines[-1]).get("correct") is True, digests[0]


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
            correct, digest = run(workload, seed)
            if not correct:
                failed.append(f"{workload} seed {seed}: run is not correct")
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
