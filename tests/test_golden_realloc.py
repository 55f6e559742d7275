"""Exact reallocation prices on 240 seeded option pairs.

``tests/fixtures/golden_realloc_exact.json`` (regenerated by
``tests/fixtures/make_golden_realloc.py``) pins ``ReallocCostModel``'s
exact ``seconds``, ``bytes_sent`` and ``n_broadcasts`` as ``float.hex``
and ints for 7b/13b/34b/70b remaps on equal, sub-node, cross-node,
overlapping and disjoint meshes of three node widths.  Prices are compared
with ``==`` twice: from a new model per pair, and from one model per
cluster shared by every pair in shuffled order, so neither the model's
memos nor the order they fill in can move a price.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(FIXTURES))

from make_golden_realloc import (  # noqa: E402  (fixture helpers double as regeneration script)
    CLUSTERS,
    GOLDEN_PATH,
    RELATIONS,
    SIZES,
    draw_pairs,
    fresh_prices,
    shared_prices,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())
PAIRS = GOLDEN["pairs"]
PINNED = [pair["cost"] for pair in PAIRS]


def test_pairs_are_the_generators_and_cover_every_cell():
    assert [{k: v for k, v in pair.items() if k != "cost"} for pair in PAIRS] == draw_pairs()
    cells = {(tuple(p["cluster"]), p["model"], p["relation"]) for p in PAIRS}
    assert len(PAIRS) >= 200
    assert len(cells) == len(CLUSTERS) * len(SIZES) * len(RELATIONS)


def test_fresh_models_reproduce_every_price():
    assert list(fresh_prices(PAIRS)) == PINNED


def test_one_shared_model_in_shuffled_order_reproduces_every_price():
    order = list(range(len(PAIRS)))
    random.Random(7).shuffle(order)
    shared = shared_prices(PAIRS, order)
    assert [shared[i] for i in range(len(PAIRS))] == PINNED
