"""The package's seeded draws against numpy's own generator, bit for bit."""

import numpy as np
import pytest

from zipperlift import _pcg64

#: One- to five-word seeds: SeedSequence mixes a seed's fifth 32-bit word
#: and beyond after the pool's four.
SEEDS = list(range(8)) + [39, 2015, 123456789, 2**32, 2**40 + 7, 2**64 + 1, 2**70 + 3,
                          2**130 + 17]

#: Odd sizes leave the high half of the last 32-bit output pair unused.
SIZES = (0, 1, 2, 7, 100, 1001)

#: 2^31 + 1 and 3 * 2^30 reject about half and a quarter of 32-bit words,
#: 2^62 + 1 about a quarter of 64-bit ones; 1, 2^32 and 2^40 never reject,
#: and for 1 numpy draws nothing at all.
HIGHS = (1, 2, 3, 4, 5, 6, 7, 2**31 + 1, 3 * 2**30, 2**32, 2**40, 2**62 + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_numpy_default_rng(seed):
    for size in SIZES:
        for low, high in ((0.0, 1.0), (1e-4, 1.0 - 1e-4)):
            expected = np.random.default_rng(seed).uniform(low, high, size)
            drawn = _pcg64.uniform(seed, low, high, size)
            assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected)
        for high in HIGHS:
            expected = np.random.default_rng(seed).integers(0, high, size)
            drawn = _pcg64.integers(seed, high, size)
            assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected), high


def test_long_draws_cross_blocks():
    # past the growing blocks into several full ones
    size = 3 * _pcg64._BLOCK + 5
    assert np.array_equal(_pcg64.integers(11, 5, size),
                          np.random.default_rng(11).integers(0, 5, size))
    assert np.array_equal(_pcg64.uniform(11, 0.0, 1.0, size),
                          np.random.default_rng(11).uniform(0.0, 1.0, size))


def test_seed_errors_match_numpy():
    # raised before any draw, as numpy raises them on seeding
    with pytest.raises(ValueError, match="expected non-negative integer") as ours:
        _pcg64.uniform(-1, 0.0, 1.0, 0)
    with pytest.raises(ValueError) as numpys:
        np.random.default_rng(-1)
    assert str(ours.value) == str(numpys.value)
    for seed in (1.5, None, "7"):
        with pytest.raises(TypeError):
            _pcg64.integers(seed, 4, 0)
