"""The ledger comparison of ``benchmarks/reachability.py``.

Everything here runs on synthetic inputs; the only child runs are three
one-line scripts, so no probe of the repository runs.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "reachability.py"
_spec = importlib.util.spec_from_file_location("reachability", _PATH)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)


@dataclass(frozen=True)
class _Record:
    name: str


class _Pair(NamedTuple):
    left: int
    right: int


class _Empty(Exception):
    pass


def _uses(*codes):
    """Labels of this module's classes that own one of ``codes``."""
    module = sys.modules[__name__]
    return reachability.class_uses([("t.py", module)], {id(code) for code in codes})


class TestCheck:
    def test_unledgered_test_only_function_fails(self):
        found = reachability.verdicts({"a.py:f", "a.py:g"}, outside={"a.py:g"},
                                      tested={"a.py:f"})
        assert found == {"a.py:f": "TEST-ONLY"}
        assert reachability.check(found, {"a.py:f", "a.py:g"}, {}) == [
            "TEST-ONLY but not in the ledger: a.py:f"
        ]

    def test_ledgered_definitions_pass(self):
        found = reachability.verdicts({"a.py:f", "a.py:h"}, outside=set(), tested={"a.py:f"})
        ledger = {"a.py:f": "oracle", "a.py:h": "abstract hook"}
        assert found == {"a.py:f": "TEST-ONLY", "a.py:h": "NEVER"}
        assert reachability.check(found, {"a.py:f", "a.py:h"}, ledger) == []

    def test_ledger_entry_executed_outside_the_tests_fails(self):
        found = reachability.verdicts({"a.py:f"}, outside={"a.py:f"}, tested={"a.py:f"})
        assert reachability.check(found, {"a.py:f"}, {"a.py:f": "oracle"}) == [
            "ledger entry executed outside the tests: a.py:f"
        ]

    def test_ledger_entry_no_longer_defined_fails(self):
        assert reachability.check({}, {"a.py:f"}, {"a.py:gone": "oracle"}) == [
            "ledger entry no longer defined: a.py:gone"
        ]

    def test_entry_without_a_reason_fails(self):
        ledger = reachability.read_ledger(
            "# a comment\n\na.py:f  remap oracle\na.py:g\n  a.py:h   \n"
        )
        assert ledger == {"a.py:f": "remap oracle", "a.py:g": "", "a.py:h": ""}
        found = {label: "NEVER" for label in ledger}
        assert reachability.check(found, set(ledger), ledger) == [
            "ledger entry without a reason: a.py:g",
            "ledger entry without a reason: a.py:h",
        ]


class TestClasses:
    def test_generated_methods_mark_their_class(self):
        assert _uses(_Record.__init__.__code__) == {"t.py:_Record"}
        assert _uses(_Pair.__new__.__code__) == {"t.py:_Pair"}

    def test_shared_library_code_marks_no_class(self):
        # Every namedtuple shares one __repr__ code object from collections.
        assert _Pair.__repr__.__code__.co_filename != __file__
        assert _uses(_Pair.__repr__.__code__) == set()
        assert not reachability.owned_code(_Empty, __file__)

    def test_test_only_class_is_flagged(self):
        tested = _uses(_Record.__init__.__code__, _Record.__eq__.__code__)
        labels = {"t.py:_Record", "t.py:_Pair", "t.py:_Empty"}
        found = reachability.verdicts(labels, outside=_uses(_Pair.__new__.__code__),
                                      tested=tested)
        assert found == {"t.py:_Record": "TEST-ONLY", "t.py:_Empty": "NEVER"}
        assert reachability.check(found, labels, {"t.py:_Empty": "owns no code"}) == [
            "TEST-ONLY but not in the ledger: t.py:_Record"
        ]


class TestChildRuns:
    def _run(self, tmp_path, body):
        script = tmp_path / "run.py"
        script.write_text(body)
        return reachability._called(("script", str(script)), tmp_path, 0, {})

    def test_a_clean_run_returns_its_record(self, tmp_path):
        assert self._run(tmp_path, "x = 1\n") == set()

    @pytest.mark.parametrize("body", ["raise SystemExit(1)\n", "raise RuntimeError('boom')\n"])
    def test_a_failing_run_is_refused(self, tmp_path, body):
        with pytest.raises(SystemExit, match=r"run 0 \(script run\.py\) exited with code 1"):
            self._run(tmp_path, body)
