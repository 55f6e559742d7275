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
