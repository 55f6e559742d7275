"""The MCMC chain's draw stream reproduces numpy's ``Generator`` exactly.

``repro.core.search._DrawStream`` computes ``integers(n)`` and ``random()``
from raw PCG64 words in Python.  Every plan, cost, history and perfbench
digest depends on those numbers, so these tests hold the stream to numpy
draw for draw over random interleavings, and hold the generator's full
``bit_generator.state`` (the LCG state and the ``has_uint32``/``uinteger``
half-word buffer) to the reference's after each slice ends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import _BLOCK_WORDS, _DrawStream

BOUNDS = (
    1, 2, 3, 4, 5, 7, 8, 16, 100, 1024, 2**16, 2**31, 2**31 + 1, 3 * 2**30,
    2**32 - 1, 2**32,
)
"""Edge bounds: the no-draw ``n == 1``, powers of two, bounds that make
Lemire's rejection loop run often (``2**31 + 1``, ``3 * 2**30``) and the
32-bit limits, where ``2**32`` takes a ``next_uint32`` as it is."""

draw = st.one_of(
    st.just(None),  # random()
    st.sampled_from(BOUNDS),
    st.integers(min_value=1, max_value=2**32),
)
slices = st.lists(st.lists(draw, max_size=3 * _BLOCK_WORDS), min_size=1, max_size=4)


def _rng(seed, chain):
    """The two seed forms ``MCMCSearcher._chain_rng`` uses."""
    return np.random.default_rng(seed if chain == 0 else [seed, chain])


def _draw(rng, bound):
    return rng.random() if bound is None else int(rng.integers(bound))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    chain=st.sampled_from([0, 1, 5]),
    pre=st.lists(draw, max_size=3),
    plan=slices,
)
def test_stream_equals_generator_draw_for_draw(seed, chain, pre, plan):
    reference, rng = _rng(seed, chain), _rng(seed, chain)
    # Draws made on the generator itself before the first slice, which may
    # leave a buffered half-word for the stream to start from.
    for bound in pre:
        assert _draw(rng, bound) == _draw(reference, bound)
    for bounds in plan:
        with _DrawStream(rng) as stream:
            for bound in bounds:
                expected = _draw(reference, bound)
                got = stream.random() if bound is None else stream.integers(bound)
                assert got == expected
                assert type(got) is type(expected)
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n_draws", [0, 1, _BLOCK_WORDS - 1, _BLOCK_WORDS, _BLOCK_WORDS + 1])
def test_sync_at_block_edges(n_draws):
    """A slice ending on, just before or just after a block boundary."""
    reference, rng = _rng(3, 0), _rng(3, 0)
    with _DrawStream(rng) as stream:
        got = [stream.random() for _ in range(n_draws)]
    assert got == [reference.random() for _ in range(n_draws)]
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.random() == reference.random()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
def test_refuses_a_generator_that_is_not_pcg64(bit_generator):
    rng = np.random.Generator(bit_generator(0))
    with pytest.raises(ValueError, match="PCG64"):
        _DrawStream(rng)
    with pytest.raises(ValueError, match="PCG64"):
        _DrawStream(np.random.RandomState(0))


@pytest.mark.parametrize("bound", [2**32 + 1, 2**40, 0, -3])
def test_refuses_bounds_it_cannot_reproduce(bound):
    reference, rng = _rng(1, 0), _rng(1, 0)
    with _DrawStream(rng) as stream:
        assert stream.integers(9) == reference.integers(9)
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            stream.integers(bound)
        # A refusal draws nothing.
        assert stream.random() == reference.random()
    assert rng.bit_generator.state == reference.bit_generator.state
