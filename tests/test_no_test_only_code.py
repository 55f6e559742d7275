"""Every function, class and method in ``src/`` has a caller outside the tests.

A definition counts as used when its name appears, outside its own body, in
a non-``__init__`` module of ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/``:

- a method (a ``def`` directly in a class body) as an AST ``Attribute``
  (``obj.method``), or inside a ``"module:Class.method"`` string in
  ``perfbench/`` (the layer tracer's patch targets, some built from a
  prefix and a bare method name);
- any other function or class also as a ``Name`` or an import alias.

A method is only reached through an attribute, so a local variable that
shares its name does not count for it.  Package ``__init__`` re-exports and
``__all__`` do not count, and neither do the tests: code that only tests
reach is code to delete.  Names are matched without types, so a method
whose name some other object's attribute shares passes; the check catches
what nothing reaches by that kind of reference.  Dunders are exempt.

``ALLOWED`` lists the definitions kept on purpose, one reason each.  An
entry that no longer exists, or that now has a use, fails the test too, so
the list cannot go stale.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

ALLOWED: Dict[str, str] = {
    # README documents these as API.
    "core/api.py:auto": "README documents repro.auto",
    "sched/metrics.py:ScheduleReport.summary_row": "README documents it",
    # Oracles that tests use to check code the system runs.
    "realloc/layout.py:ParamLayout.holder_intervals": "remap coverage oracle",
    "realloc/remap.py:ReallocationPlan.bytes_sent_by": "remap coverage oracle",
    "realloc/remap.py:ReallocationPlan.bytes_received_by": "remap coverage oracle",
    "realloc/remap.py:ReallocationPlan.total_received_bytes": "remap coverage oracle",
    "cluster/topology.py:meshes_tile_cluster": "partition and mesh-enumeration oracle",
    "cluster/topology.py:DeviceMesh.overlaps": "partition disjointness oracle",
    "cluster/topology.py:DeviceMesh.contains": "partition containment oracle",
    "service/warm_start.py:_allocation_distance": "warm-start adaptation oracle",
    "service/fingerprint.py:canonical_request": "fingerprint key oracle",
    # Reference path that tests compare the memoised estimator against.
    "core/estimator.py:RuntimeEstimator.cost_model": "uncached reference cost path",
    # Extension point the scheduler's graph-cache test registers through.
    "algorithms/registry.py:register_algorithm": "algorithm extension point",
    # Fixture generators call these.
    "core/plan.py:symmetric_plan": "golden fixture generators build plans with it",
    "experiments/runner.py:run_scheduler_comparison": "golden schedule generator",
    # Called by the logging machinery, never by name.
    "obs/log.py:JsonFormatter.format": "logging.Formatter override",
}

_SPEC = re.compile(r"^[\w.]+:[\w.]*$")


def _definitions(tree: ast.AST) -> List[Tuple[str, str, int, int, bool]]:
    """``(name, qualified name, first line, last line, is a method)`` of every
    def and class."""
    found: List[Tuple[str, str, int, int, bool]] = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                is_method = in_class and not isinstance(child, ast.ClassDef)
                found.append((child.name, qualname, child.lineno, child.end_lineno,
                              is_method))
                visit(child, qualname + ".", isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def _uses(tree: ast.AST, strings: bool) -> List[Tuple[str, int, bool]]:
    """``(name, line, through an attribute)`` of every reference in a module;
    perfbench's patch-target strings count as attribute references."""
    found: List[Tuple[str, int, bool]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.alias):
            found.append((node.name.rsplit(".", 1)[-1], node.lineno, False))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _SPEC.match(node.value) or node.value.isidentifier():
                found.extend((part, node.lineno, True)
                             for part in re.split(r"[:.]", node.value) if part)
    return found


def _scan() -> Tuple[Dict[str, Tuple[str, int, int, bool]],
                     Dict[str, List[Tuple[str, int, bool]]]]:
    """Definitions keyed ``"<path under src/repro>:<qualname>"``, and uses by name."""
    src = ROOT / "src" / "repro"
    definitions: Dict[str, Tuple[str, int, int, bool]] = {}
    uses: Dict[str, List[Tuple[str, int, bool]]] = defaultdict(list)
    files = sorted(src.rglob("*.py"))
    for folder in ("benchmarks", "examples", "perfbench"):
        files += sorted((ROOT / folder).rglob("*.py"))
    for path in files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(ROOT).as_posix()
        if path.is_relative_to(src):
            where = path.relative_to(src).as_posix()
            for name, qualname, first, last, is_method in _definitions(tree):
                if not (name.startswith("__") and name.endswith("__")):
                    definitions[f"{where}:{qualname}"] = (name, first, last, is_method)
        for name, line, attribute in _uses(tree, strings=where.startswith("perfbench/")):
            uses[name].append((where, line, attribute))
    return definitions, uses


@functools.lru_cache(maxsize=1)
def _unused() -> Tuple[Set[str], Set[str]]:
    """Definitions with no use outside their own body, and every definition."""
    definitions, uses = _scan()
    unused = set()
    for key, (name, first, last, is_method) in definitions.items():
        where = key.split(":", 1)[0]
        if all(
            (path == where and first <= line <= last) or (is_method and not attribute)
            for path, line, attribute in uses[name]
        ):
            unused.add(key)
    return unused, set(definitions)


def test_every_definition_has_a_use_outside_the_tests():
    unused, _ = _unused()
    dead = sorted(unused - set(ALLOWED))
    assert not dead, "only tests reach these src/ definitions:\n" + "\n".join(dead)


def test_allowlist_is_not_stale():
    unused, defined = _unused()
    missing = sorted(set(ALLOWED) - defined)
    used = sorted(set(ALLOWED) & defined - unused)
    assert not missing, f"allowlisted but no longer defined: {missing}"
    assert not used, f"allowlisted but now used outside the tests: {used}"
