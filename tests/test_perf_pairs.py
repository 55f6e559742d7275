"""The summary of ``benchmarks/perf_pairs.py`` on canned perfbench output.

Nothing here runs perfbench: each run is the tail of its stdout.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

BETTER = {"op_p50_s": "lower", "ok_op_ratio": "higher", "peak_rss_mb": "lower"}


def _stdout(digest, op_p50_s, peak_rss_mb, correct=True, machine=None):
    metrics = {
        "op_p50_s": {"value": op_p50_s, "unit": "s"},
        "ok_op_ratio": {"value": 1.0, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return "\n".join([
        "round 1: wall_s=1.0 failed=0/3",
        f"digest: {digest}",
        "machine: " + json.dumps(machine or {"cores": 2}),
        "repro_env: {}",
        "wall_s: 2.0",
        json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_digest_correctness_and_metrics():
    digest, correct, metrics = perf_pairs.parse_run(_stdout("abc", 0.5, 80.0, correct=False))
    assert digest == "abc" and correct is False
    assert metrics == {"op_p50_s": 0.5, "ok_op_ratio": 1.0, "peak_rss_mb": 80.0}


def test_summary_reports_medians_iqr_wins_and_digests():
    parent = [_stdout("d1", t, 80.0) for t in (0.10, 0.12, 0.11, 0.13, 0.09)]
    change = [_stdout("d1", t, 81.0) for t in (0.09, 0.11, 0.12, 0.10, 0.08)]
    change[2] = _stdout("d2", 0.12, 81.0)
    lines = perf_pairs.summarize(parent, change, BETTER)
    assert lines[0] == "5 pairs (parent, change)"
    by_metric = {line.split()[0]: line for line in lines[1:4]}
    assert by_metric["op_p50_s"] == (
        "op_p50_s (lower is better): parent median 0.11 IQR 0.02"
        " | change median 0.1 IQR 0.02 | medians -9.09% | change better in 4/5"
    )
    # Equal values are no win, in either direction.
    assert by_metric["ok_op_ratio"].endswith("change better in 0/5")
    assert by_metric["peak_rss_mb"].endswith("| medians +1.25% | change better in 0/5")
    assert "| medians +0.00% |" in by_metric["ok_op_ratio"]
    assert lines[4:] == [
        "pair 1: digests equal",
        "pair 2: digests equal",
        "pair 3: digests DIFFER (d1 vs d2)",
        "pair 4: digests equal",
        "pair 5: digests equal",
    ]


def test_summary_flags_incorrect_runs_and_skips_unreported_metrics():
    lines = perf_pairs.summarize(
        [_stdout("d", 0.1, 80.0)], [_stdout("d", 0.2, 79.0, correct=False)],
        dict(BETTER, round_s="lower"),
    )
    assert not any(line.startswith("round_s") for line in lines)
    assert (
        "parent median 80 IQR 0 | change median 79 IQR 0 | medians -1.25% | change better in 1/1"
        in lines[3]
    )
    assert lines[-1] == "pair 1: digests equal  NOT CORRECT"


def test_pairs_on_different_usable_cores_are_flagged():
    two, four = {"cores": 4, "usable_cores": 2}, {"cores": 4, "usable_cores": 4}
    parent = [_stdout("d", 0.1, 80.0, machine=two), _stdout("d", 0.1, 80.0, machine=two)]
    change = [_stdout("d", 0.1, 80.0, machine=two), _stdout("d", 0.1, 80.0, machine=four)]
    assert perf_pairs.parse_machine(parent[0]) == two
    lines = perf_pairs.summarize(parent, change, BETTER)
    assert lines[-2:] == [
        "pair 1: digests equal",
        "pair 2: digests equal  USABLE CORES DIFFER (2 vs 4)",
    ]
    assert perf_pairs.machine_lines(parent, change) == [
        'parent machine: {"cores": 4, "usable_cores": 2}',
        'change machine: {"cores": 4, "usable_cores": 2}',
        'change machine: {"cores": 4, "usable_cores": 4}',
    ]


@pytest.mark.parametrize("argv", [["--workload", "plan_search"], ["--parent", "a", "--change", "b"]])
def test_cli_requires_checkouts_workload_and_seed(argv):
    with pytest.raises(SystemExit):
        perf_pairs.main(argv)


def _traced_stdout(digest, estimator_self_s, hit_ratio):
    """The tail of a ``--trace 1`` run: per-layer lines, then the JSON."""
    metrics = {
        "core.estimator.self_s": {"value": estimator_self_s, "unit": "s"},
        "core.estimator.eval_cache_hit_ratio": {"value": hit_ratio, "unit": "ratio"},
        "bench.traced_wall_s": {"value": 5.0, "unit": "s"},
    }
    return "\n".join([
        "round 1: requests=112 wall_s=3.0 failed=0/112",
        "round 2 traced: requests=112 wall_s=5.0 failed=0/112",
        *(f"  {name:40s} {entry['value']:.6g} {entry['unit']}" for name, entry in metrics.items()),
        f"digest: {digest}",
        'machine: {"cores": 2}',
        "repro_env: {}",
        "wall_s: 9.0",
        json.dumps({"correct": True, "attempted": 224, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_trace_mode_compares_per_layer_metrics(monkeypatch, capsys):
    outputs = {
        "parent": [_traced_stdout("d", s, 0.10) for s in (3.4, 3.5, 3.3)],
        "change": [_traced_stdout("d", s, 0.06) for s in (2.9, 3.0, 3.6)],
    }
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((str(checkout), trace))
        return outputs[str(checkout)].pop(0)

    monkeypatch.setattr(perf_pairs, "_run", fake_run)
    assert perf_pairs.main([
        "--parent", "parent", "--change", "change", "--workload", "plan_search",
        "--seed", "107", "--pairs", "3", "--trace", "1",
    ]) == 0
    # Alternating sides, every run traced.
    assert calls == [("parent", 1), ("change", 1), ("change", 1), ("parent", 1),
                     ("parent", 1), ("change", 1)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload plan_search, seed 107, 20 s per run, trace 1"
    # Each side's machine line comes before the summary.
    assert lines[1:3] == ['parent machine: {"cores": 2}', 'change machine: {"cores": 2}']
    by_metric = {line.split()[0]: line for line in lines[2:]}
    # Directions come from BENCHMARK.json's per_layer list.
    assert by_metric["core.estimator.self_s"] == (
        "core.estimator.self_s (lower is better): parent median 3.4 IQR 0.1"
        " | change median 3 IQR 0.35 | medians -11.76% | change better in 2/3"
    )
    assert by_metric["core.estimator.eval_cache_hit_ratio"].startswith(
        "core.estimator.eval_cache_hit_ratio (higher is better)"
    )
    assert by_metric["bench.traced_wall_s"].endswith("change better in 0/3")
    assert not any(line.startswith("op_p50_s") for line in lines)


@pytest.mark.parametrize(
    "before, after, expected",
    [(0.02, 0.015, "-25.00%"), (2.0, 3.0, "+50.00%"), (5.0, 5.0, "+0.00%"), (0.0, 1.0, "n/a")],
)
def test_relative_change_of_medians(before, after, expected):
    assert perf_pairs.relative_change(before, after) == expected


def test_failed_run_exits_with_its_stderr_tail(monkeypatch):
    stderr = "".join(f"noise {i}\n" for i in range(40)) + "ValueError: boom\n"

    def fake_subprocess_run(cmd, **kwargs):
        assert cmd[-2:] == ["--trace", "0"]
        return perf_pairs.subprocess.CompletedProcess(cmd, 2, stdout="", stderr=stderr)

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_subprocess_run)
    with pytest.raises(SystemExit) as failure:
        perf_pairs._run(Path("parent"), "plan_search", 107, 20.0, 0)
    message = str(failure.value.code)
    assert message.startswith("perfbench in parent exited with 2; stderr tail:\n")
    tail = message.splitlines()[1:]
    assert len(tail) == perf_pairs.STDERR_TAIL_LINES
    assert tail[-1] == "ValueError: boom" and "noise 20" not in tail
