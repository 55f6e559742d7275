"""Tests for 3D parallelization strategies."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ParallelStrategy, enumerate_strategies, factorize_3d
from repro.model import get_model_config


class TestParallelStrategy:
    def test_world_size(self):
        assert ParallelStrategy(dp=2, tp=4, pp=2).world_size == 16

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ParallelStrategy(dp=0, tp=1, pp=1)

    def test_model_compatibility_pp_limit(self):
        cfg = get_model_config("7b")  # 32 layers
        assert not ParallelStrategy(dp=1, tp=1, pp=64).is_compatible_with_model(cfg)
        assert ParallelStrategy(dp=1, tp=1, pp=32).is_compatible_with_model(cfg)

    def test_model_compatibility_tp_heads(self):
        cfg = get_model_config("7b")  # 32 heads
        assert ParallelStrategy(dp=1, tp=8, pp=1).is_compatible_with_model(cfg)
        assert not ParallelStrategy(dp=1, tp=3, pp=1).is_compatible_with_model(cfg)

    def test_describe(self):
        assert ParallelStrategy(1, 2, 3).describe() == "dp=1 tp=2 pp=3"


class TestFactorization:
    def test_factorize_8(self):
        triples = set(factorize_3d(8))
        assert (8, 1, 1) in triples
        assert (1, 8, 1) in triples
        assert (2, 2, 2) in triples
        assert all(d * t * p == 8 for d, t, p in triples)

    def test_factorize_1(self):
        assert list(factorize_3d(1)) == [(1, 1, 1)]

    def test_factorize_rejects_zero(self):
        with pytest.raises(ValueError):
            list(factorize_3d(0))

    @given(n=st.sampled_from([2, 4, 8, 16, 32, 64]))
    def test_factorizations_cover_product(self, n):
        """Property: every factorization multiplies back to n, no duplicates."""
        triples = list(factorize_3d(n))
        assert len(triples) == len(set(triples))
        assert all(d * t * p == n for d, t, p in triples)


class TestEnumeration:
    def test_enumerate_respects_world_size(self):
        for strategy in enumerate_strategies(16):
            assert strategy.world_size == 16

    def test_enumerate_with_max_tp(self):
        strategies = enumerate_strategies(64, max_tp=8)
        assert all(s.tp <= 8 for s in strategies)
        assert strategies  # non-empty

    def test_enumerate_with_model_filter(self):
        cfg = get_model_config("7b")
        strategies = enumerate_strategies(64, config=cfg)
        assert all(s.is_compatible_with_model(cfg) for s in strategies)
