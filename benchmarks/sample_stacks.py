"""Sample where a perfbench workload spends its CPU time, by SIGPROF.

cProfile hooks every Python call, which slows call-heavy code such as the
MCMC proposal loop about 3x and skews the shares it reports.  This sampler
instead arms ``ITIMER_PROF``: every ``--interval`` seconds of the process's
CPU time the kernel sends SIGPROF, and the handler records the interrupted
Python stack (code objects only, no strings).  Time spent in C, numpy
included, is charged to the Python function that called it.

After ``--rounds`` rounds of one perfbench workload (``Clock(calibrated=False)``,
so no calibration loop is sampled) it prints, per function:

* ``self`` — the share of samples whose innermost frame is the function;
* ``incl`` — the share of samples with the function anywhere on the stack
  (counted once per sample, so recursion does not inflate it).

With ``--callers PATTERN`` it prints instead, for the samples whose innermost
function matches the regular expression ``PATTERN``, the share of each
immediate caller.  That splits a hot leaf by who calls it, for example the
dataclass constructors behind ``__create_fn__.<locals>.__init__`` self time::

    python3 benchmarks/sample_stacks.py --workload plan_search --callers '__create_fn__'

Run from the repository root (Unix only; the sampler acts on its own
process)::

    python3 benchmarks/sample_stacks.py --workload online_replan --seed 1 --rounds 1

It imports ``perfbench`` (and through it the ``repro`` package under
``src/``) and nothing else of the repository.
"""

from __future__ import annotations

import argparse
import re
import signal
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan_search", "fleet_replay", "online_replan")

Stack = Tuple[CodeType, ...]
"""An interrupted stack, innermost frame first."""


class StackSampler:
    """Count the Python stacks SIGPROF interrupts while the sampler is active.

    Use as a context manager around the code to sample; ``stacks`` maps each
    distinct stack to its sample count.  Only the main thread's stack is
    seen (Python runs signal handlers there).
    """

    def __init__(self, interval: float = 0.001) -> None:
        if not hasattr(signal, "SIGPROF"):
            raise RuntimeError("stack sampling needs SIGPROF (a Unix platform)")
        if not interval > 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.stacks: Counter = Counter()
        self._previous = None

    def _sample(self, signum, frame) -> None:
        stack = []
        while frame is not None:
            stack.append(frame.f_code)
            frame = frame.f_back
        self.stacks[tuple(stack)] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def label(code: CodeType) -> str:
    """``path:function`` with the path relative to the repository if inside it."""
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except (OSError, ValueError):
        path = Path(path.name)
    return f"{path.as_posix()}:{getattr(code, 'co_qualname', code.co_name)}"


def aggregate(stacks: Dict[Stack, int]) -> List[Tuple[str, float, float]]:
    """``(function, self_share, inclusive_share)`` rows, by self share.

    Code objects with the same label (say, two functions of one name defined
    in one file) are counted as one function.
    """
    total = sum(stacks.values())
    if not total:
        return []
    self_counts: Counter = Counter()
    inclusive: Counter = Counter()
    for stack, count in stacks.items():
        labels = [label(code) for code in stack]
        self_counts[labels[0]] += count
        for name in set(labels):
            inclusive[name] += count
    rows = [(name, self_counts[name] / total, inclusive[name] / total) for name in inclusive]
    rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
    return rows


def callers(stacks: Dict[Stack, int], pattern: str) -> Tuple[int, List[Tuple[str, float]]]:
    """Immediate callers of the samples whose innermost function matches.

    Returns the number of matching samples and ``(caller, share)`` rows, by
    share, where each share is of the matching samples.  A matching frame
    with nothing above it is charged to ``<root>``.
    """
    regex = re.compile(pattern)
    counts: Counter = Counter()
    for stack, count in stacks.items():
        if regex.search(label(stack[0])):
            counts[label(stack[1]) if len(stack) > 1 else "<root>"] += count
    matched = sum(counts.values())
    rows = [(name, count / matched) for name, count in counts.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return matched, rows


def sample(fn: Callable[[], object], interval: float = 0.001) -> Counter:
    """The stacks sampled while ``fn()`` runs."""
    with StackSampler(interval) as sampler:
        fn()
    return sampler.stacks


def format_rows(rows: List[Tuple[str, float, float]], n_samples: int, top: int) -> str:
    lines = [f"{n_samples} samples", f"{'self':>7} {'incl':>7}  function"]
    for name, self_share, inclusive_share in rows[:top]:
        lines.append(f"{self_share:7.1%} {inclusive_share:7.1%}  {name}")
    return "\n".join(lines)


def format_callers(
    pattern: str, matched: int, rows: List[Tuple[str, float]], n_samples: int, top: int
) -> str:
    share = matched / n_samples if n_samples else 0.0
    lines = [
        f"{matched} of {n_samples} samples ({share:.1%}) end in a function matching {pattern!r}",
        f"{'share':>7}  immediate caller",
    ]
    for name, caller_share in rows[:top]:
        lines.append(f"{caller_share:7.1%}  {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--interval", type=float, default=0.001,
                        help="CPU seconds between samples")
    parser.add_argument("--top", type=int, default=30, help="rows to print")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="print the immediate callers of the samples whose "
                             "innermost function matches this regular expression")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.callers is not None:
        try:
            re.compile(args.callers)
        except re.error as exc:
            parser.error(f"--callers: {exc}")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.clock import Clock
    from perfbench.workloads import make_workload

    with tempfile.TemporaryDirectory() as tmp:
        workload = make_workload(args.workload, args.seed, tmp)
        workload.setup()

        def rounds() -> None:
            for _ in range(args.rounds):
                workload.run_round(Clock(calibrated=False))

        stacks = sample(rounds, args.interval)
    n_samples = sum(stacks.values())
    if args.callers is not None:
        matched, rows = callers(stacks, args.callers)
        print(format_callers(args.callers, matched, rows, n_samples, args.top))
    else:
        print(format_rows(aggregate(stacks), n_samples, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
