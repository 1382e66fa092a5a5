"""Deterministic randomness streams.

Every random draw in a simulation comes from a stream derived from the master
seed and a (purpose, *subkeys) tuple, e.g. ("noise", group, epoch).  Distinct
keys give statistically independent counter-based streams, and the draw made
under a key never depends on what was drawn under any other key, so sequential
and reordered execution produce bit-identical runs.
"""

from __future__ import annotations

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
