"""Exact pins of every paper figure/table check's numbers.

The ``bench_fig*``/``bench_table*`` checks assert thresholds; this test
asserts that each check's ``run_*`` function still computes exactly the
values in ``tests/fixtures/paper_pins.json`` (see ``make_paper_pins.py``),
so a change that moves any paper number fails here even inside its
threshold.  Regenerate the fixture only for a deliberate outcome change and
name every moved value in CHANGES.md.
"""

import json

import pytest

from make_paper_pins import CHECKS, PINS_PATH, default_scale, run_check


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_paper_numbers_match_pins(name):
    if not default_scale():
        pytest.skip("pins are taken at the default benchmark scale and search budget")
    pinned = json.loads(PINS_PATH.read_text())
    assert run_check(name) == pinned[name]
