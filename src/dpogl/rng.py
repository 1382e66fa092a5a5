"""Deterministic randomness streams.

Every random draw in a simulation comes from a stream derived from the master
seed and a (purpose, *subkeys) tuple, e.g. ("noise", group, epoch).  Distinct
keys give statistically independent counter-based streams, and the draw made
under a key never depends on what was drawn under any other key, nor on when
the key was made, so sequential and reordered execution produce bit-identical
runs.

``_streams`` keys all of a run's streams of one purpose in one vectorised
pass, which the trainer makes once per purpose per run, and yields each as
the same re-keyed generator: consume a stream before taking the next one.
NEP 19 keeps ``SeedSequence`` and Philox stable across numpy versions, but
not ``Generator``'s draws, so the contract is the tests: they hold
``_streams`` to ``derive_stream``, and ``derive_stream`` to ``SeedSequence``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Stable purpose codes; append only, never renumber.
_PURPOSES = {
    "sampling": 1,   # per-epoch Poisson worker sampling, subkeys (group, epoch)
    "noise": 2,      # mechanism Gaussian noise, subkeys (group, epoch)
    "batch": 3,      # mini-batch selection, subkeys (group, epoch, worker)
    "data": 4,       # synthetic dataset generation
    "split": 5,      # train/test split
    "partition": 6,  # Dirichlet partition over workers
}


def derive_stream(master_seed: int, purpose: str, *subkeys: int) -> np.random.Generator:
    """Return the RNG stream keyed by (master_seed, purpose, *subkeys)."""
    code = _PURPOSES.get(purpose)
    if code is None:
        raise ValueError(f"unknown RNG purpose: {purpose!r}")
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    parts = [int(master_seed), code]
    for k in subkeys:
        k = int(k)
        if k < 0:
            raise ValueError("stream subkeys must be nonnegative")
        parts.append(k)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """The (k, 2) uint64 Philox keys of k SeedSequences, from the (k, w) uint32
    words each makes of its parts: numpy's SeedSequence mixing into a pool of
    4 words and ``generate_state(2, np.uint64)`` (NEP 19 keeps both stable),
    run on whole columns.  The hashmix calls that mix one word into 3 or 4
    pool words take successive constants, so they run as one block."""
    def consts(init, mult, count):  # init * mult**r mod 2**32, r = 0..count
        return np.cumprod(np.array([init] + [mult] * count, np.uint32), dtype=np.uint32)[:, None]

    def hashmix(value, c):  # row r hashes with c[r], then c[r + 1]
        value = (value ^ c[:-1]) * c[1:]
        return value ^ value >> 16

    def mix(x, y):
        out = np.uint32(0xca01f9dd) * x - np.uint32(0x4973f715) * y
        return out ^ out >> 16

    k, w = entropy.shape
    a = consts(0x43b0d7e5, 0x931e8875, 16 + 4 * max(w - 4, 0))
    pool = np.zeros((4, k), np.uint32)
    pool[:w] = entropy.T[:4]
    pool = hashmix(pool, a[:5])
    for src in range(4):  # each pool word into the three others
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], a[4 + 3 * src:8 + 3 * src]))
    for j, word in enumerate(entropy.T[4:]):  # each remaining word into all four
        pool = mix(pool, hashmix(word, a[16 + 4 * j:21 + 4 * j]))
    out = hashmix(pool, consts(0x8b51f9dd, 0x58f38ded, 4)).astype(np.uint64)
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


def _streams(master_seed: int, purpose: str, subkeys) -> Iterator[np.random.Generator]:
    """``derive_stream(master_seed, purpose, *row)`` for each row of the (k, w)
    integer array ``subkeys`` (each in [0, 2**32)): one generator, re-keyed
    for each with counter 0 and no buffered uint32, which ``permuted`` would read."""
    subkeys = np.asarray(subkeys, np.int64)
    if subkeys.size and (subkeys.min() < 0 or subkeys.max() >= 2 ** 32):
        raise ValueError("stream subkeys must lie in [0, 2**32)")
    seed = [master_seed >> s & 0xFFFFFFFF for s in range(0, master_seed.bit_length() or 1, 32)]
    entropy = np.empty((len(subkeys), len(seed) + 1 + subkeys.shape[1]), np.uint32)
    entropy[:, :len(seed) + 1] = [*seed, _PURPOSES[purpose]]
    entropy[:, len(seed) + 1:] = subkeys
    bitgen, zeros = np.random.Philox(key=0), np.zeros(4, np.uint64)
    stream = np.random.Generator(bitgen)

    def rekey(key):
        bitgen.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return stream
    return map(rekey, _philox_keys(entropy))
