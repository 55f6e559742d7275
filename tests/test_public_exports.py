"""Every name a public package exports must resolve.

A deleted function or class whose name stays in a package's ``__all__`` is
only noticed by a ``from package import *`` or a caller that reaches for
it; this test notices it at once.  The package list is the one the CI
import step loads.
"""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.knobs",
    "repro.algorithms",
    "repro.baselines",
    "repro.capacity",
    "repro.cluster",
    "repro.core",
    "repro.experiments",
    "repro.model",
    "repro.obs",
    "repro.realloc",
    "repro.runtime",
    "repro.sched",
    "repro.service",
    "repro.sim",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
