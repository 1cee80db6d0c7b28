"""Deterministic random streams.

All randomness in the package is drawn from Philox4x64 counter-based
generators keyed as (seed, tag << 48 | index). Distinct (seed, tag, index)
triples give independent streams, so matrix columns, column offsets, trial
spectra and trial noise never share a stream even under one seed.
"""

import numpy as np

MAX_SEED = 2**64 - 1

# stream tags (namespace within one seed)
TAG_COLUMN = 0
TAG_OFFSET = 1
TAG_SPECTRUM = 2
TAG_NOISE = 3


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) <= MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


def _generator(rng, tag: int) -> np.random.Generator:
    """``rng`` if it is a Generator, else the stream (rng, tag, 0), which is
    trial 0's stream under that seed."""
    return rng if isinstance(rng, np.random.Generator) else stream(rng, tag)


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, tag, index)."""
    if not 0 <= index < 2**48:
        raise ValueError(f"stream index out of range: {index}")
    key = np.array([check_seed(seed), (tag << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
