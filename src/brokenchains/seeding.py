"""Deterministic 64-bit seed derivation.

Every stochastic operation in the package takes an explicit seed and turns
it into a ``numpy.random.Generator`` (PCG64).  Sub-streams (per read, per
graph, per method) are derived with SplitMix64 so that they are independent
yet reproducible from a single master seed.

Per-read streams come from ``streams``, which yields the generator of read
``r`` equal bit for bit to ``np.random.default_rng(derive_seed(...))`` at a
fraction of its cost.  ``default_rng(s)`` hashes ``s`` through
``SeedSequence(s)`` into four 64-bit words (``generate_state(4,
np.uint64)``) and seeds PCG64 from them.  ``streams`` computes the seeds of
a block of reads with ``derive_seeds`` and their words with the same
SeedSequence hashing in ``uint32`` numpy arithmetic, one column per read:

* the entropy of a 64-bit seed is its two 32-bit halves ``(lo, hi)``, and
  the pool's other two words hash 0, just as SeedSequence hashes the
  missing words of a shorter entropy (a seed below 2**32 included);
* the ``hashmix`` multipliers run through a fixed sequence that does not
  depend on the seed, so they are tabulated at import.

Each read's words then go to ``PCG64`` through ``_Words``, an
``ISeedSequence`` that hands them over as they are, and PCG64's own code
runs its seeding step.  A property in ``tests/test_properties.py`` compares
states and draws with ``default_rng``, so a change in numpy's seeding fails
there before any output digest moves.
"""

import itertools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

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


def _splitmix64_column(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` of each entry of a ``uint64`` array (it wraps as the
    masks do)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    z = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *indices: int) -> int:
    """Mix ``seed`` with any number of integer indices into a new 64-bit seed."""
    h = _splitmix64(seed & _MASK)
    for ix in indices:
        h = _splitmix64(h ^ (ix & _MASK))
    return h


def derive_seeds(seed: int, stream: int, reads: np.ndarray, *after: int) -> np.ndarray:
    """``derive_seed(seed, stream, r, *after)`` for each ``r`` of the ``uint64``
    array ``reads``, as a ``uint64`` array."""
    h = _splitmix64_column(np.uint64(derive_seed(seed, stream)) ^ reads)
    for ix in after:
        h = _splitmix64_column(h ^ np.uint64(ix & _MASK))
    return h


def rng_from(seed: int, *indices: int) -> np.random.Generator:
    """PCG64 generator for the sub-stream identified by ``indices``."""
    return np.random.default_rng(derive_seed(seed, *indices))


# SeedSequence's constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> list:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# hashmix k of mixing the pool XORs _HASH_A[k] and multiplies by
# _HASH_A[k + 1]: 4 words, then 12 ordered pairs of distinct words
_HASH_A = [np.uint32(c) for c in _powers(_INIT_A, _MULT_A, 17)]
# output word k of generate_state(4, uint64) XORs _HASH_B[k], multiplies
# by _HASH_B[k + 1]
_HASH_B = [np.uint32(c) for c in _powers(_INIT_B, _MULT_B, 9)]
_SHIFT = np.uint32(16)


def _hashmix(value, k: int):
    value = (value ^ _HASH_A[k]) * _HASH_A[k + 1]
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _SHIFT)


# the last two pool words hash an entropy word of 0 for every 64-bit seed
_ZERO_WORDS = [_hashmix(np.zeros(1, dtype=np.uint32), k) for k in (2, 3)]


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of each ``uint64``
    seed ``s``, as one row of a ``(len(seeds), 4)`` array."""
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [_hashmix(lo, 0), _hashmix(hi, 1)] + [
        np.repeat(w, len(seeds)) for w in _ZERO_WORDS
    ]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    half = []
    for k in range(8):
        value = (pool[k % 4] ^ _HASH_B[k]) * _HASH_B[k + 1]
        half.append((value ^ (value >> _SHIFT)).astype(np.uint64))
    # word j is the little-endian pair of 32-bit outputs 2j, 2j + 1
    return np.stack(
        [half[2 * j] | (half[2 * j + 1] << np.uint64(32)) for j in range(4)], axis=1
    )


class _Words(ISeedSequence):
    """Seed words already generated: PCG64 asks for four ``uint64`` words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


_BLOCK = 256  # reads whose seeds and words are computed together


def streams(seed: int, stream: int, *after: int):
    """Generators of reads 0, 1, 2, ... of a sub-stream, in read order.

    Read ``r``'s generator equals ``np.random.default_rng(derive_seed(seed,
    stream, r, *after))``.  ``rng_from(derive_seed(seed, stream, r))`` is
    the form with ``after = (0,)``.  Seeds are computed ``_BLOCK`` reads at
    a time and each generator is built when it is yielded, so the caller
    takes as many as it has reads.
    """
    for start in itertools.count(0, _BLOCK):
        reads = np.arange(start, start + _BLOCK, dtype=np.uint64)
        for words in _pcg64_words(derive_seeds(seed, stream, reads, *after)):
            yield np.random.Generator(np.random.PCG64(_Words(words)))
