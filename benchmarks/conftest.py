"""Shared helpers for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper.
Benchmarks run the full pipeline (plan search + simulated execution) once per
invocation via ``benchmark.pedantic`` and print the rows/series the paper
reports; absolute numbers come from the simulated cluster, so only the *shape*
(who wins, by roughly what factor, where crossovers fall) is expected to match
the paper.

Set ``REPRO_BENCH_SCALE=full`` to run every point of every figure (slow) and
``REPRO_SEARCH_BUDGET_SCALE`` to enlarge the MCMC budget.
"""

from __future__ import annotations

import pytest

from repro import knobs
from repro.core import SearchConfig

__all__ = ["run_once", "bench_scale", "bench_search_config"]


def bench_scale() -> str:
    """``small`` (default, CI-friendly) or ``full`` (every figure point)."""
    return knobs.get("REPRO_BENCH_SCALE")


def bench_search_config(seed: int = 0) -> SearchConfig:
    """Search budget used inside benchmarks (scaled via the environment)."""
    scale = knobs.get("REPRO_SEARCH_BUDGET_SCALE")
    return SearchConfig(
        max_iterations=int(2000 * scale), time_budget_s=20.0 * scale, seed=seed
    )


def run_once(benchmark, func, *args, **kwargs):
    """Run a benchmark target exactly once (these targets take seconds)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def scale() -> str:
    return bench_scale()
