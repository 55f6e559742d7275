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

With ``--ops`` it samples only inside the operations perfbench times, as
perfbench times them: each round runs on a subclass of perfbench's ``Clock``
(calibration on) whose ``measure`` arms the sampler and a ``gc.callbacks``
recorder around the operation alone, so neither the calibration loop nor the
workload's glue between operations is seen.  It then also prints, per
operation name, the garbage collections of each generation and the
milliseconds they took, per operation (the first operation of each name in
a round — fleet_replay's cold replay — is a row of its own)::

    python3 benchmarks/sample_stacks.py --workload fleet_replay --ops --rounds 2

Run from the repository root (Unix only; the sampler acts on its own
process)::

    python3 benchmarks/sample_stacks.py --workload online_replan --seed 1 --rounds 1

It imports ``perfbench`` (and through it the ``repro`` package under
``src/``) and nothing else of the repository.
"""

from __future__ import annotations

import argparse
import gc
import re
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

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


class GCRecorder:
    """Count garbage collections per generation, and their wall seconds,
    from ``gc.callbacks`` while the recorder is active (a context manager)."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started = None

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "GCRecorder":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


class OpRecord(NamedTuple):
    """One timed operation: its name, wall seconds and the collections
    (per generation) and GC seconds inside it."""

    name: str
    wall_s: float
    collections: Tuple[int, int, int]
    gc_s: float


class OpSampler:
    """Sample stacks and record GC only while an operation runs."""

    def __init__(self, interval: float = 0.001) -> None:
        self.sampler = StackSampler(interval)
        self.records: List[OpRecord] = []

    @property
    def stacks(self) -> Counter:
        return self.sampler.stacks

    def run(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        recorder = GCRecorder()
        started = time.perf_counter()
        with recorder, self.sampler:
            result = fn(*args, **kwargs)
        self.records.append(OpRecord(
            name, time.perf_counter() - started, tuple(recorder.collections),
            sum(recorder.seconds),
        ))
        return result


def op_clock(base: type, ops: OpSampler) -> type:
    """A subclass of the clock class ``base`` (perfbench's ``Clock``) whose
    ``measure`` runs the operation itself through ``ops``; whatever ``base``
    does around the operation, calibration included, is not sampled.  An
    operation is named by the callable's qualified name, with
    ``" (first)"`` for its first operation of that name on the clock."""

    class OpClock(base):
        def measure(self, fn: Callable, *args: Any, **kwargs: Any):
            name = getattr(fn, "__qualname__", repr(fn))
            seen = self.__dict__.setdefault("_names_seen", set())
            label = name if name in seen else f"{name} (first)"
            seen.add(name)
            return super().measure(lambda *a, **k: ops.run(label, fn, *a, **k), *args, **kwargs)

    return OpClock


def gc_rows(records: List[OpRecord]) -> List[Tuple[str, int, float, Tuple[float, ...], float, float]]:
    """Per operation name, in order of first appearance: ``(name, n_ops,
    mean wall s, mean collections per generation, mean GC s, max GC s)``."""
    groups: Dict[str, List[OpRecord]] = {}
    for record in records:
        groups.setdefault(record.name, []).append(record)
    rows = []
    for name, group in groups.items():
        n = len(group)
        rows.append((
            name,
            n,
            sum(r.wall_s for r in group) / n,
            tuple(sum(r.collections[g] for r in group) / n for g in range(3)),
            sum(r.gc_s for r in group) / n,
            max(r.gc_s for r in group),
        ))
    return rows


def format_gc_rows(records: List[OpRecord]) -> str:
    lines = [
        f"GC inside {len(records)} timed operations (per operation means; from gc.callbacks)",
        f"{'ops':>5} {'wall_ms':>9} {'gen0':>6} {'gen1':>6} {'gen2':>6} "
        f"{'gc_ms':>7} {'max_gc_ms':>9}  operation",
    ]
    for name, n, wall_s, collections, gc_s, max_gc_s in gc_rows(records):
        gen0, gen1, gen2 = collections
        lines.append(
            f"{n:5d} {wall_s * 1e3:9.2f} {gen0:6.2f} {gen1:6.2f} {gen2:6.2f} "
            f"{gc_s * 1e3:7.2f} {max_gc_s * 1e3:9.2f}  {name}"
        )
    return "\n".join(lines)


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
    parser.add_argument("--ops", action="store_true",
                        help="sample only inside the timed operations (calibrated "
                             "clock, as perfbench) and print GC per operation")
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

    ops = OpSampler(args.interval) if args.ops else None
    with tempfile.TemporaryDirectory() as tmp:
        workload = make_workload(args.workload, args.seed, tmp)
        workload.setup()
        if ops is not None:
            clock = op_clock(Clock, ops)
            for _ in range(args.rounds):
                workload.run_round(clock())
            stacks = ops.stacks
        else:

            def rounds() -> None:
                for _ in range(args.rounds):
                    workload.run_round(Clock(calibrated=False))

            stacks = sample(rounds, args.interval)
    n_samples = sum(stacks.values())
    if ops is not None:
        print(format_gc_rows(ops.records))
        print()
    if args.callers is not None:
        matched, rows = callers(stacks, args.callers)
        print(format_callers(args.callers, matched, rows, n_samples, args.top))
    else:
        print(format_rows(aggregate(stacks), n_samples, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
