"""Which ``src/`` functions only the tests execute, or nothing does.

``tests/test_no_test_only_code.py`` checks by name: a definition passes when
its name is referenced outside the tests, so a method that shares a bare name
with some other object's attribute (``get``, ``add``, ``time``) passes even
when nothing but a test calls it.  This probe checks by execution instead.
It runs the repository's non-test traffic and then the tier-1 suite, each in
a child process that records, through ``sys.setprofile``, every code object
it calls:

* the paper figure/table checks and the paper pins (``benchmarks/bench_*.py``);
* every perfbench workload for one second at seed 1, with ``--trace 0`` and
  ``--trace 1``;
* the example smoke runs (the arguments ``tests/test_examples.py`` uses) and
  the report CLI over the observability tour's output;
* the fixture generators under ``tests/fixtures/``, run on a scratch copy of
  that directory so the committed fixtures are never rewritten.

It then prints every function and method defined under ``src/repro`` that ran
only under the tests (``TEST-ONLY``) or never ran (``NEVER``), and a count.
Classes are not listed: a class body runs at import.  Abstract methods that
only raise ``NotImplementedError`` show up as ``NEVER`` by design.

Run from the repository root (a few minutes on 2 cores; not part of tier-1)::

    python3 benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

Run = Tuple[str, ...]
"""A child run: ``("module", name, *args)`` or ``("script", path, *args)``."""


def _runs(tmp: Path) -> Tuple[List[Run], Run]:
    """The non-test runs, and the tier-1 run."""
    bench = ROOT / "benchmarks"
    checks = sorted(str(p) for p in bench.glob("bench_fig*.py"))
    checks += sorted(str(p) for p in bench.glob("bench_table*.py"))
    checks.append(str(bench / "bench_paper_pins.py"))
    runs: List[Run] = [("module", "pytest", "-q", "-p", "no:cacheprovider", *checks)]
    for workload in ("plan_search", "fleet_replay", "online_replan"):
        for trace in ("0", "1"):
            runs.append((
                "script", str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", trace,
            ))
    examples = ROOT / "examples"
    out = tmp / "examples"
    for name, args in (
        ("quickstart", ["--gpus", "8", "--batch-size", "64", "--search-seconds", "0.2"]),
        ("compare_rlhf_systems", ["--gpus", "8", "--search-seconds", "0.2"]),
        ("long_context_planning", ["--gpus", "8", "--search-seconds", "0.2"]),
        ("multi_job_scheduling", ["--gpus", "16", "--search-iterations", "25",
                                  "--search-seconds", "0.2", "--fail-node", "1"]),
        ("capacity_whatif", ["--jobs", "4", "--horizon", "300", "--gpus", "32",
                             "--report", str(out / "capacity.json")]),
        ("trace_export", ["--gpus", "16", "--search-iterations", "25",
                          "--out-dir", str(out / "trace")]),
        ("observability_tour", ["--gpus", "16", "--search-iterations", "25",
                                "--out-dir", str(out / "tour")]),
    ):
        runs.append(("script", str(examples / f"{name}.py"), *args))
    runs.append(("module", "repro.obs.report", str(out / "tour")))
    # Generators rewrite the fixtures next to themselves, so they run on a
    # copy (with perfbench beside it, as make_golden_schedule_exact expects).
    fixtures = tmp / "tests" / "fixtures"
    shutil.copytree(ROOT / "tests" / "fixtures", fixtures)
    shutil.copytree(ROOT / "perfbench", tmp / "perfbench")
    runs += [("script", str(p)) for p in sorted(fixtures.glob("make_golden*.py"))]
    tier1: Run = ("module", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "tests"))
    return runs, tier1


def _child(out: str, run: List[str]) -> None:
    """Execute one run under the profiler; write the src code it called."""
    seen: Set[object] = set()
    add = seen.add

    def profile(frame, _event, _arg):
        add(frame.f_code)

    kind, *args = run
    sys.argv = args
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if kind == "module":
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, str(Path(args[0]).parent))
            runpy.run_path(args[0], run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(SRC) + os.sep
    called = sorted(
        {(code.co_filename, code.co_firstlineno) for code in seen
         if code.co_filename.startswith(prefix)}
    )
    Path(out).write_text(json.dumps(called))


def _called(run: Run, tmp: Path, index: int) -> Set[Tuple[str, int]]:
    out = tmp / f"called_{index}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    cwd = tmp if run[1].startswith(str(tmp)) else ROOT
    print(f"[{index}] {' '.join(Path(a).name if os.sep in a else a for a in run)}",
          file=sys.stderr, flush=True)
    subprocess.run(
        [sys.executable, __file__, "--child", str(out), "--", *run],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, check=False,
    )
    if not out.exists():
        raise SystemExit(f"run {index} wrote no call record: {run}")
    return {(path, line) for path, line in json.loads(out.read_text())}


def definitions() -> Dict[Tuple[str, int], str]:
    """``(file, first line) -> "<path under src/repro>:<qualname>"`` of every
    function and method; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found: Dict[Tuple[str, int], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        found[(str(path), first)] = f"{where}:{qualname}"
                    visit(child, qualname + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], sys.argv[4:])
        return
    with tempfile.TemporaryDirectory(prefix="reachability-") as name:
        tmp = Path(name)
        runs, tier1 = _runs(tmp)
        outside: Set[Tuple[str, int]] = set()
        for index, run in enumerate(runs):
            outside |= _called(run, tmp, index)
        tested = _called(tier1, tmp, len(runs))
    defs = definitions()
    rows = []
    for key, label in defs.items():
        if key in outside:
            continue
        rows.append(("TEST-ONLY" if key in tested else "NEVER", label))
    for verdict, label in sorted(rows, key=lambda row: (row[0] != "TEST-ONLY", row[1])):
        print(f"{verdict:9}  {label}")
    test_only = sum(verdict == "TEST-ONLY" for verdict, _ in rows)
    print(f"{len(defs)} functions: {len(defs) - len(rows)} executed outside the tests, "
          f"{test_only} only by tests, {len(rows) - test_only} never")


if __name__ == "__main__":
    main()
