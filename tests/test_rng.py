"""Stream derivation: keyed reproducibility and independence."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from dpogl.rng import _philox_keys, _streams, derive_stream


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


def _words(part):
    """The uint32 words, low word first, that SeedSequence makes of a
    nonnegative int: [0] for 0, one word per started 32 bits otherwise."""
    words = [part & 0xFFFFFFFF]
    while part >> 32 * len(words):
        words.append(part >> 32 * len(words) & 0xFFFFFFFF)
    return words


@hs.composite
def part_rows(draw):
    """1-6 keys of (master seed, purpose code, 0-5 subkeys), whose parts have
    the same word count position by position, as one bulk pass needs."""
    widths = draw(hs.lists(hs.integers(1, 3), min_size=2, max_size=7))
    parts = [hs.integers(0, 2 ** 32 - 1) if w == 1
             else hs.integers(2 ** (32 * w - 32), 2 ** (32 * w) - 1) for w in widths]
    return draw(hs.lists(hs.tuples(*parts), min_size=1, max_size=6))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(part_rows())
@example([(0, 1)])
@example([(0, 3, 0, 0, 0), (1, 3, 0, 0, 1)])
@example([(2 ** 40 + 3, 2, 2 ** 32, 0, 2 ** 64 - 1, 2 ** 32 - 1, 0)])
def test_bulk_keys_match_seed_sequence(rows):
    """One vectorised pass gives each key the Philox key its SeedSequence
    generates, with multi-word seeds and subkeys and more than 4 words."""
    entropy = np.array([[w for part in row for w in _words(part)] for row in rows],
                       np.uint32)
    want = [np.random.SeedSequence(list(row)).generate_state(2, np.uint64) for row in rows]
    assert np.array_equal(_philox_keys(entropy), np.array(want))


def test_rekeyed_streams_draw_as_fresh_streams():
    """Each stream of ``_streams`` draws what ``derive_stream`` draws under its
    key, although all of them are one generator: a stream that leaves a
    buffered uint32 behind does not leak it into the next.  One call keys one
    purpose; an empty (0, w) array keys no stream."""
    subkeys = np.array([(1, 2, 3), (0, 0, 0), (5, 2 ** 32 - 1, 9)])
    for seed in (0, 7, 2 ** 40 + 3):
        streams = _streams(seed, "batch", subkeys)
        for key in subkeys:
            got, want = next(streams), derive_stream(seed, "batch", *key)
            for rng in (got, want):
                assert rng.bit_generator.state["has_uint32"] == 0
            assert np.array_equal(got.permuted(np.arange(5)), want.permuted(np.arange(5)))
            while not got.bit_generator.state["has_uint32"]:  # leave half a uint64
                assert got.integers(0, 2 ** 32, dtype=np.uint32) == want.integers(
                    0, 2 ** 32, dtype=np.uint32)
        assert next(streams, None) is None
    for purpose in ("sampling", "noise"):
        streams = _streams(3, purpose, [(0, 1), (2, 1), (2 ** 32 - 1, 4)])
        for key in [(0, 1), (2, 1), (2 ** 32 - 1, 4)]:
            assert np.array_equal(next(streams).random(9), derive_stream(3, purpose, *key).random(9))
        assert next(streams, None) is None
    for width in (2, 3):
        assert list(_streams(3, "noise", np.empty((0, width), np.int64))) == []


def test_stream_subkeys_outside_32_bits_are_refused():
    """A subkey below 0 or from 2**32 on is refused when the streams are keyed,
    not cast to an unsigned word, which would wrap it onto another key."""
    for bad in (-1, 2 ** 32, 2 ** 40):
        for subkeys in ([(1, bad, 0)], np.array([(1, 2, 3), (1, bad, 0)])):
            with pytest.raises(ValueError, match=r"^stream subkeys must lie in \[0, 2\*\*32\)$"):
                _streams(0, "batch", subkeys)
