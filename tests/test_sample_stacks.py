"""``benchmarks/sample_stacks.py``: SIGPROF sampling and its self/inclusive shares."""

from __future__ import annotations

import importlib.util
import signal
import time
from collections import Counter
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "sample_stacks.py"
_spec = importlib.util.spec_from_file_location("sample_stacks", _PATH)
sample_stacks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sample_stacks)

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGPROF"), reason="needs SIGPROF")


def outer():
    return inner() + inner()


def inner():
    started = time.process_time()
    total = 0
    while time.process_time() - started < 0.15:
        total += 1
    return total


def _label(fn):
    return sample_stacks.label(fn.__code__)


def test_aggregate_counts_self_innermost_and_inclusive_once_per_sample():
    code_outer, code_inner = outer.__code__, inner.__code__
    stacks = Counter({
        (code_inner, code_outer): 6,
        (code_outer,): 2,
        # Recursion: outer appears twice but counts once for inclusive.
        (code_inner, code_outer, code_outer): 2,
    })
    rows = {name: (own, incl) for name, own, incl in sample_stacks.aggregate(stacks)}
    assert rows[_label(inner)] == (0.8, 0.8)
    assert rows[_label(outer)] == (0.2, 1.0)
    assert [name for name, *_ in sample_stacks.aggregate(stacks)] == [
        _label(inner), _label(outer)
    ]
    assert sample_stacks.aggregate(Counter()) == []


def helper():
    return inner()


def test_callers_splits_matching_leaf_samples_by_immediate_caller():
    code_outer, code_inner, code_helper = outer.__code__, inner.__code__, helper.__code__
    stacks = Counter({
        (code_inner, code_outer): 3,
        (code_inner, code_helper, code_outer): 1,
        (code_inner,): 1,
        # Inner is on the stack but not innermost: not a matching sample.
        (code_outer, code_inner): 5,
    })
    matched, rows = sample_stacks.callers(stacks, r":inner$")
    assert matched == 5
    assert rows == [(_label(outer), 0.6), ("<root>", 0.2), (_label(helper), 0.2)]
    text = sample_stacks.format_callers(":inner$", matched, rows, 10, top=2)
    assert text.splitlines()[0] == "5 of 10 samples (50.0%) end in a function matching ':inner$'"
    assert len(text.splitlines()) == 4
    assert sample_stacks.callers(stacks, "no_such_function") == (0, [])


def test_label_names_the_repository_path_and_qualified_name():
    assert _label(outer) == "tests/test_sample_stacks.py:outer"
    assert _label(sample_stacks.StackSampler._sample) == (
        "benchmarks/sample_stacks.py:StackSampler._sample"
    )


def test_sampling_a_tiny_callable_charges_the_busy_function():
    previous = signal.getsignal(signal.SIGPROF)
    stacks = sample_stacks.sample(outer, interval=0.002)
    # The timer is disarmed and the previous handler restored.
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous
    n_samples = sum(stacks.values())
    assert n_samples >= 20
    rows = {name: (own, incl) for name, own, incl in sample_stacks.aggregate(stacks)}
    own, incl = rows[_label(inner)]
    assert own > 0.5
    assert rows[_label(outer)][1] >= incl > 0.9
    text = sample_stacks.format_rows(sample_stacks.aggregate(stacks), n_samples, 3)
    assert text.splitlines()[0] == f"{n_samples} samples"
    assert _label(inner) in text


def test_rejects_a_nonpositive_interval():
    with pytest.raises(ValueError, match="interval"):
        sample_stacks.StackSampler(0.0)


def test_main_rejects_a_malformed_callers_pattern(capsys):
    with pytest.raises(SystemExit) as exc:
        sample_stacks.main(["--workload", "plan_search", "--callers", "("])
    assert exc.value.code == 2
    assert "--callers" in capsys.readouterr().err


_CLOCK_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "clock.py"
_clock_spec = importlib.util.spec_from_file_location("perfbench_clock", _CLOCK_PATH)
perfbench_clock = importlib.util.module_from_spec(_clock_spec)
_clock_spec.loader.exec_module(perfbench_clock)


def churn():
    """A tiny operation that makes garbage cycles until a few collections ran."""
    import gc

    before = gc.get_stats()[0]["collections"]
    while gc.get_stats()[0]["collections"] < before + 3:
        node = []
        node.append(node)
    return inner()


def test_ops_clock_samples_and_counts_gc_inside_operations_only():
    import gc

    callbacks = list(gc.callbacks)
    ops = sample_stacks.OpSampler(interval=0.002)
    clock = sample_stacks.op_clock(perfbench_clock.Clock, ops)()
    assert clock.calibrated  # calibrated, as perfbench times operations
    result, seconds = clock.measure(churn)
    assert result > 0 and seconds > 0
    clock.measure(churn)
    gc.collect()  # outside any operation: not recorded
    # Calibration ran around each operation but none of it was sampled.
    labels = {sample_stacks.label(code) for stack in ops.stacks for code in stack}
    assert _label(inner) in labels
    assert not any(name.endswith(("calibrate", "_reference_loop")) for name in labels)
    assert [r.name for r in ops.records] == ["churn (first)", "churn"]
    for record in ops.records:
        assert record.collections[0] >= 3
        assert record.wall_s >= 0.1 and record.gc_s > 0
    rows = sample_stacks.gc_rows(ops.records)
    assert [(name, n) for name, n, *_ in rows] == [("churn (first)", 1), ("churn", 1)]
    text = sample_stacks.format_gc_rows(ops.records)
    assert text.splitlines()[0].startswith("GC inside 2 timed operations")
    assert text.splitlines()[-1].endswith("  churn")
    # The recorder leaves gc.callbacks as it found it.
    assert gc.callbacks == callbacks


def test_gc_recorder_counts_each_generation_while_active():
    import gc

    with sample_stacks.GCRecorder() as recorder:
        gc.collect(0)
        gc.collect(2)
    gc.collect(1)
    assert recorder.collections == [1, 0, 1]
    assert all(seconds >= 0 for seconds in recorder.seconds)
