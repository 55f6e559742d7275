"""The planner stack is single-threaded: importing it loads no worker pool.

Plan search and plan serving run on the calling thread, so no public package
should pull in ``multiprocessing`` or ``concurrent.futures``.  The check runs in a fresh
interpreter so modules other tests imported cannot mask a regression.  No
``src/repro`` module imports ``threading`` or ``concurrent`` either: the
library takes no locks and is not thread-safe.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro, repro.core, repro.service, repro.sched, repro.capacity, repro.obs
print(json.dumps(sorted(
    name for name in (
        "multiprocessing",
        "concurrent.futures",
        "concurrent.futures.process",
        "concurrent.futures.thread",
    )
    if name in sys.modules
)))
"""


def test_public_packages_import_no_process_machinery():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_no_module_imports_thread_machinery():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for lineno, name in _imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] in ("threading", "concurrent")
    ]
    assert offenders == []
