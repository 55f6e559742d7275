"""Which ``src/`` definitions only the tests execute, or nothing does.

The probe runs the repository's non-test traffic and then the tier-1 suite,
each in a child process that records, through ``cProfile``, every code
object its main thread calls (the library starts no threads):

* the paper figure/table checks and the paper pins (``benchmarks/bench_*.py``);
* every perfbench workload for one second at seed 1, with ``--trace 0`` and
  ``--trace 1``;
* the example smoke runs (the arguments ``tests/test_examples.py`` uses) and
  the report CLI over the observability tour's output;
* the fixture generators under ``tests/fixtures/``, run on a scratch copy of
  that directory so the committed fixtures are never rewritten.

A run that exits non-zero or raises stops the probe: its record would be
incomplete.  A function or method counts as executed when its code ran.  A
class counts as executed when a function in its own ``vars(cls)`` ran,
matched by code object, so the methods a dataclass or ``NamedTuple``
generates count too; a class that owns no code never counts.

The probe prints every function, method and class defined under
``src/repro`` that ran only under the tests (``TEST-ONLY``) or never ran
(``NEVER``), and the counts.  It then compares that list with the ledger
``benchmarks/reachability_allowed.txt`` (one
``<path under src/repro>:<qualname>  <reason>`` a line, ``#`` comments) and
exits non-zero on a listed definition missing from the ledger, and on a
ledger entry that has no reason, is no longer defined or now runs outside
the tests.

Run from the repository root (about 3 minutes on 2 cores; not part of
tier-1)::

    python3 benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import cProfile
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType, ModuleType
from typing import Container, Dict, Iterable, Iterator, List, Mapping, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
LEDGER = ROOT / "benchmarks" / "reachability_allowed.txt"

Run = Tuple[str, ...]
"""A child run: ``("module", name, *args)`` or ``("script", path, *args)``."""


def _runs(tmp: Path) -> Tuple[List[Run], Run]:
    """The non-test runs, and the tier-1 run."""
    bench = ROOT / "benchmarks"
    checks = sorted(str(p) for p in bench.glob("bench_fig*.py"))
    checks += sorted(str(p) for p in bench.glob("bench_table*.py"))
    checks.append(str(bench / "bench_paper_pins.py"))
    # pytest-benchmark switches the profiler off around each timed target
    # unless benchmarking is disabled; disabled, it calls the target once.
    runs: List[Run] = [("module", "pytest", "-q", "-p", "no:cacheprovider",
                        "--benchmark-disable", *checks)]
    for workload in ("plan_search", "fleet_replay", "online_replan"):
        for trace in ("0", "1"):
            runs.append((
                "script", str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", trace,
            ))
    examples = ROOT / "examples"
    out = tmp / "examples"
    # A search budget no run reaches (the searches stop at their iteration
    # caps in about a second) keeps the examples' traffic the same on a
    # faster or a slower machine.
    budget = "600"
    for name, args in (
        ("quickstart", ["--gpus", "8", "--batch-size", "64", "--search-seconds", budget]),
        ("compare_rlhf_systems", ["--gpus", "8", "--search-seconds", budget]),
        ("long_context_planning", ["--gpus", "8", "--search-seconds", budget]),
        ("multi_job_scheduling", ["--gpus", "16", "--search-iterations", "25",
                                  "--search-seconds", budget, "--fail-node", "1"]),
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
    # A fixed hypothesis seed draws the same examples on every probe.
    tier1: Run = ("module", "pytest", "-q", "-p", "no:cacheprovider",
                  "--hypothesis-seed=0", str(ROOT / "tests"))
    return runs, tier1


def owned_code(cls: type, filename: str) -> List[CodeType]:
    """Code of the functions in ``vars(cls)`` that ``cls`` owns: those written
    in ``filename`` and those generated for it from a string (a dataclass's
    or a ``NamedTuple``'s methods).  Inherited and library-installed ones
    (an enum's ``__new__``) do not count."""
    codes = []
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        functions = ((value.fget, value.fset, value.fdel) if isinstance(value, property)
                     else (getattr(value, "func", value),))  # cached_property: .func
        for function in functions:
            code = getattr(function, "__code__", None)
            if code is not None and (code.co_filename == filename
                                     or code.co_filename.startswith("<")):
                codes.append(code)
    return codes


def _classes(namespace: Mapping[str, object], prefix: str,
             module: str) -> Iterator[Tuple[str, type]]:
    """``(qualname, class)`` of the classes defined in ``namespace``, nested
    ones included; re-exported and aliased classes are skipped."""
    for name, value in namespace.items():
        if (isinstance(value, type) and value.__module__ == module
                and value.__qualname__ == prefix + name):
            yield prefix + name, value
            yield from _classes(vars(value), prefix + name + ".", module)


def class_uses(modules: Iterable[Tuple[str, ModuleType]], seen: Container[int]) -> Set[str]:
    """Labels ``"<where>:<qualname>"`` of the classes of ``modules`` (given as
    ``(where, module)``) that own a code object whose ``id`` is in ``seen``."""
    used = set()
    for where, module in modules:
        for qualname, cls in _classes(vars(module), "", module.__name__):
            if any(id(code) in seen for code in owned_code(cls, module.__file__)):
                used.add(f"{where}:{qualname}")
    return used


def _child(out: str, run: List[str]) -> None:
    """Execute one run under the profiler; write the src code it called."""
    kind, *args = run
    sys.argv = args
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        if kind == "module":
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, str(Path(args[0]).parent))
            runpy.run_path(args[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        profiler.disable()
    # ``codes`` keeps every called code object alive, so no id below can be
    # reused by another object.
    codes = [entry.code for entry in profiler.getstats() if isinstance(entry.code, CodeType)]
    prefix = str(SRC) + os.sep
    functions = sorted(
        {(code.co_filename, code.co_firstlineno) for code in codes
         if code.co_filename.startswith(prefix)}
    )
    modules = [
        (Path(module.__file__).relative_to(SRC).as_posix(), module)
        for module in list(sys.modules.values())
        if (getattr(module, "__file__", None) or "").startswith(prefix)
    ]
    classes = sorted(class_uses(modules, {id(code) for code in codes}))
    Path(out).write_text(json.dumps({"functions": functions, "classes": classes}))


def _called(run: Run, tmp: Path, index: int,
            functions: Mapping[Tuple[str, int], str]) -> Set[str]:
    """Labels of the ``src/`` definitions one run executed; a run that fails
    stops the probe."""
    out = tmp / f"called_{index}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    cwd = tmp if run[1].startswith(str(tmp)) else ROOT
    name = " ".join(Path(a).name if os.sep in a else a for a in run)
    print(f"[{index}] {name}", file=sys.stderr, flush=True)
    result = subprocess.run(
        [sys.executable, __file__, "--child", str(out), "--", *run],
        cwd=cwd, env=env, stdout=subprocess.DEVNULL, check=False,
    )
    if result.returncode != 0:
        raise SystemExit(f"run {index} ({name}) exited with code {result.returncode}")
    record = json.loads(out.read_text())
    labels = {functions[(path, line)] for path, line in record["functions"]
              if (path, line) in functions}
    return labels | set(record["classes"])


def definitions() -> Tuple[Dict[Tuple[str, int], str], Set[str]]:
    """``(file, first line) -> "<path under src/repro>:<qualname>"`` of every
    function and method (the first line is the first decorator's, as in
    ``co_firstlineno``), and the labels of every class."""
    functions: Dict[Tuple[str, int], str] = {}
    classes: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = prefix + child.name
                    if isinstance(child, ast.ClassDef):
                        classes.add(f"{where}:{qualname}")
                    else:
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        functions[(str(path), first)] = f"{where}:{qualname}"
                    visit(child, qualname + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return functions, classes


def verdicts(labels: Iterable[str], outside: Set[str], tested: Set[str]) -> Dict[str, str]:
    """``label -> "TEST-ONLY" | "NEVER"`` of every definition not executed
    outside the tests."""
    return {label: "TEST-ONLY" if label in tested else "NEVER"
            for label in labels if label not in outside}


def read_ledger(text: str) -> Dict[str, str]:
    """``label -> reason`` of every ledger line (the reason may be empty)."""
    ledger = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            label, _, reason = line.partition(" ")
            ledger[label] = reason.strip()
    return ledger


def check(found: Mapping[str, str], defined: Container[str],
          ledger: Mapping[str, str]) -> List[str]:
    """Every disagreement between the probe's verdicts and the ledger."""
    problems = [f"{verdict} but not in the ledger: {label}"
                for label, verdict in sorted(found.items()) if label not in ledger]
    for label, reason in sorted(ledger.items()):
        if not reason:
            problems.append(f"ledger entry without a reason: {label}")
        if label not in defined:
            problems.append(f"ledger entry no longer defined: {label}")
        elif label not in found:
            problems.append(f"ledger entry executed outside the tests: {label}")
    return problems


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], sys.argv[4:])
        return
    functions, classes = definitions()
    labels = set(functions.values()) | classes
    with tempfile.TemporaryDirectory(prefix="reachability-") as name:
        tmp = Path(name)
        runs, tier1 = _runs(tmp)
        outside: Set[str] = set()
        for index, run in enumerate(runs):
            outside |= _called(run, tmp, index, functions)
        tested = _called(tier1, tmp, len(runs), functions)
    found = verdicts(labels, outside, tested)
    for label, verdict in sorted(found.items(), key=lambda row: (row[1] != "TEST-ONLY", row[0])):
        print(f"{verdict:9}  {label}")
    test_only = sum(verdict == "TEST-ONLY" for verdict in found.values())
    print(f"{len(labels) - len(classes)} functions and {len(classes)} classes: "
          f"{len(labels) - len(found)} executed outside the tests, "
          f"{test_only} only by tests, {len(found) - test_only} never")
    problems = check(found, labels, read_ledger(LEDGER.read_text()))
    for problem in problems:
        print(problem)
    if problems:
        raise SystemExit(f"{len(problems)} disagreement(s) with {LEDGER.name}")
    print(f"OK: every test-only or never-run definition is in {LEDGER.name}")


if __name__ == "__main__":
    main()
