"""Every name a ``src/`` module imports is used in that module.

A name counts as used when it appears in the module as an AST ``Name``
(attribute chains included, through their base name), inside a string
annotation such as ``Optional["PlanService"]`` (how ``TYPE_CHECKING``
imports are used), or in the module's ``__all__``.  Package ``__init__``
modules are skipped: importing names there is how they re-export them.
``from __future__`` imports are not names.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(annotation: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    imported: List[Tuple[int, str]] = []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_finds_unused_and_accepts_annotation_and_all_uses():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Dict, Optional, Tuple\n"
        "if TYPE_CHECKING:\n"
        "    from x import Server\n"
        "from y import Exported, Dropped as Alias\n"
        "__all__ = ['Exported']\n"
        "def f(server: Optional['Server']) -> 'Dict[str, int]':\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "Tuple"), (7, "Alias")]


def test_src_modules_have_no_unused_imports():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
