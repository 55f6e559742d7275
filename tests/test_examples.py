"""Smoke tests for the ``examples/`` scripts: import + tiny-setting run.

Examples drift silently when they are not exercised; each test loads the
script as a module and runs its ``main()`` with a tiny CLI configuration so
the whole path (argument parsing, planning, simulated execution, printing)
executes in well under a second per script.  The README's Quickstart code
blocks are executed as written, and its package map is checked against
``src/repro/``, for the same reason.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_main(monkeypatch, name: str, argv: list[str]):
    module = _load_example(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


def test_readme_quickstart_runs_as_written(monkeypatch, capsys, tmp_path):
    section = README.read_text().split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_quickstart"})
    assert "ExecutionPlan" in capsys.readouterr().out


def test_examples_directory_complete():
    names = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))
    assert names == [
        "capacity_whatif",
        "compare_rlhf_systems",
        "long_context_planning",
        "multi_job_scheduling",
        "observability_tour",
        "quickstart",
        "trace_export",
    ]


def test_package_map_names_every_subpackage():
    import repro

    packages = sorted(p.parent.name for p in PACKAGE_DIR.glob("*/__init__.py"))
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")}
    documented = set(re.findall(r":mod:`repro\.(\w+)`", repro.__doc__)) - modules
    assert sorted(documented) == packages
    tree = README.read_text().split("\nsrc/repro/\n", 1)[1].split("```", 1)[0]
    assert sorted(re.findall(r"── (\w+)/", tree)) == packages


def test_quickstart_tiny_run(monkeypatch, capsys):
    _run_main(
        monkeypatch,
        "quickstart",
        ["--gpus", "8", "--batch-size", "64", "--search-seconds", "0.2"],
    )
    out = capsys.readouterr().out
    assert "ExecutionPlan" in out
    assert "Speedup of the searched plan" in out


def test_compare_rlhf_systems_tiny_run(monkeypatch, capsys):
    _run_main(
        monkeypatch,
        "compare_rlhf_systems",
        ["--gpus", "8", "--search-seconds", "0.2"],
    )
    out = capsys.readouterr().out
    assert "ReaL" in out and "PFLOP/s" in out


def test_long_context_planning_tiny_run(monkeypatch, capsys):
    _run_main(
        monkeypatch,
        "long_context_planning",
        ["--gpus", "8", "--search-seconds", "0.2"],
    )
    out = capsys.readouterr().out
    assert "8192" in out and "improvement" in out


def test_multi_job_scheduling_tiny_run(monkeypatch, capsys):
    _run_main(
        monkeypatch,
        "multi_job_scheduling",
        [
            "--gpus", "16",
            "--search-iterations", "25",
            "--search-seconds", "0.2",
            "--fail-node", "1",
        ],
    )
    out = capsys.readouterr().out
    assert "Timeline:" in out
    assert "failure" in out
    assert "GPU utilization" in out


def test_capacity_whatif_tiny_run(monkeypatch, capsys, tmp_path):
    report_path = tmp_path / "capacity.json"
    _run_main(
        monkeypatch,
        "capacity_whatif",
        [
            "--jobs", "4",
            "--horizon", "300",
            "--gpus", "32",
            "--report", str(report_path),
        ],
    )
    out = capsys.readouterr().out
    assert "Capacity what-if grid" in out
    assert "Pareto frontier:" in out
    assert report_path.exists()


def test_trace_export_tiny_run(monkeypatch, capsys, tmp_path):
    _run_main(
        monkeypatch,
        "trace_export",
        ["--gpus", "16", "--search-iterations", "25", "--out-dir", str(tmp_path)],
    )
    out = capsys.readouterr().out
    assert "engine iteration" in out
    assert "merged trace" in out
    # Both exported files load cleanly and validate as Chrome traces.
    from repro.sim import load_chrome_trace

    assert load_chrome_trace(tmp_path / "iteration_trace.json")
    assert load_chrome_trace(tmp_path / "schedule_trace.json")


def test_observability_tour_tiny_run(monkeypatch, capsys, tmp_path):
    _run_main(
        monkeypatch,
        "observability_tour",
        ["--gpus", "16", "--search-iterations", "25", "--out-dir", str(tmp_path)],
    )
    out = capsys.readouterr().out
    assert "metrics snapshot" in out
    assert "Prometheus exposition" in out
    assert "counter tracks" in out
    assert "causal spans" in out
    assert "provenance ledger" in out
    assert "run report" in out
    # The exports really landed: snapshot, exposition, trace, provenance.
    assert (tmp_path / "METRICS_TRACE_schedule.json").exists()
    assert (tmp_path / "PROVENANCE_TRACE_schedule.jsonl").exists()
    assert "# TYPE" in (tmp_path / "metrics.prom").read_text()
    from repro.sim import load_chrome_trace, validate_chrome_events

    events = load_chrome_trace(tmp_path / "TRACE_schedule.json")
    validate_chrome_events(events)
    assert any(event["ph"] == "C" for event in events)
    assert any(event["ph"] == "b" for event in events)


@pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES_DIR.glob("*.py")))
def test_example_imports_cleanly(name):
    module = _load_example(name)
    assert callable(module.main)
