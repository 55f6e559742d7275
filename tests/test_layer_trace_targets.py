"""Every patch target of perfbench's layer tracer names a definition in ``src/``.

``perfbench/run.py --trace 1`` patches each ``Wrap`` target in place and
stops with a ``KeyError`` on the first one that is gone, so renaming or
deleting a traced method breaks the traced run; this test says so in the
tier-1 suite instead.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from perfbench.layer_trace import WRAPS  # noqa: E402


def test_every_wrap_target_resolves():
    missing = []
    for spec in WRAPS:
        module_name, _, path = spec.target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            missing.append(spec.target)
    assert not missing, f"layer-trace targets that no longer exist: {missing}"
