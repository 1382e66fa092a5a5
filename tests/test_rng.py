"""Stream derivation: keyed reproducibility and independence."""

import numpy as np
import pytest

from dpogl.rng import derive_stream


def test_same_key_same_draws():
    a = derive_stream(7, "noise", 2, 5).standard_normal(16)
    b = derive_stream(7, "noise", 2, 5).standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_keys_decorrelate():
    base = derive_stream(7, "noise", 2, 5).standard_normal(16)
    for other in [derive_stream(8, "noise", 2, 5),
                  derive_stream(7, "sampling", 2, 5),
                  derive_stream(7, "noise", 3, 5),
                  derive_stream(7, "noise", 2, 6),
                  derive_stream(7, "noise", 2)]:
        assert not np.array_equal(base, other.standard_normal(16))


def test_draw_order_between_streams_is_irrelevant():
    first = derive_stream(0, "batch", 1, 2, 3).random(8)
    derive_stream(0, "batch", 9, 9, 9).random(1000)  # unrelated consumption
    again = derive_stream(0, "batch", 1, 2, 3).random(8)
    assert np.array_equal(first, again)


def test_subkey_boundaries_do_not_collide():
    # (1, 2) vs (12,) style collisions must not happen with tuple keying
    a = derive_stream(0, "noise", 1, 2).random(8)
    b = derive_stream(0, "noise", 12).random(8)
    assert not np.array_equal(a, b)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        derive_stream(0, "nope")
    with pytest.raises(ValueError):
        derive_stream(-1, "noise")
    with pytest.raises(ValueError):
        derive_stream(0, "noise", -3)


def test_stream_matches_philox_keyed_from_seed_sequence():
    """The stream is the Philox generator keyed by two 64-bit words of the
    key's SeedSequence, so every seeded run keeps its draws."""
    cases = [(0, "sampling", 1, ()), (7, "noise", 2, (2, 5)),
             (3, "batch", 3, (1, 2 ** 32 + 5, 9)), (2 ** 40, "partition", 6, (0,)),
             (11, "data", 4, ())]
    for seed, purpose, code, subkeys in cases:
        key = np.random.SeedSequence([seed, code, *subkeys]).generate_state(
            2, np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = derive_stream(seed, purpose, *subkeys)
        assert np.array_equal(got.random(40), want.random(40))
        assert np.array_equal(got.standard_normal(40), want.standard_normal(40))
        assert np.array_equal(got.integers(0, 2 ** 62, 40),
                              want.integers(0, 2 ** 62, 40))
