"""Deterministic 64-bit seed derivation.

Every stochastic operation in the package takes an explicit seed and turns
it into a ``numpy.random.Generator`` (PCG64).  Sub-streams (per read, per
graph, per method) are derived with SplitMix64 so that they are independent
yet reproducible from a single master seed.
"""

import numpy as np

_MASK = (1 << 64) - 1

# fixed stream tags so derived seeds do not collide across purposes
STREAM_READ = 0x01
STREAM_GRAPH = 0x02
STREAM_INJECT = 0x04
STREAM_WEIGHTED = 0x05
STREAM_TAILORED = 0x06
STREAM_LOGICAL = 0x07


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Mix ``seed`` with any number of integer indices into a new 64-bit seed."""
    h = _splitmix64(seed & _MASK)
    for ix in indices:
        h = _splitmix64(h ^ (ix & _MASK))
    return h


def rng_from(seed: int, *indices: int) -> np.random.Generator:
    """PCG64 generator for the sub-stream identified by ``indices``."""
    return np.random.default_rng(derive_seed(seed, *indices))
