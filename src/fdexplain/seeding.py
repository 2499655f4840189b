"""Deterministic seed derivation.

One master seed drives every stage of a run. Stage seeds come from a
splitmix64 finalizer applied to the master seed xored with a hash of the
stage name, so adding or reordering stages never perturbs the others.
Per-item streams (one per signature, one per permutation) are numpy's
`SeedSequence((seed, *key))` -> `PCG64` streams, which are stable across
platforms and independent of generation order. `substreams` hashes the
keys of many items at once: it computes SeedSequence's entropy pool and
PCG64's four seed words for a whole array of keys with array operations,
and hands each item's words to numpy's own PCG64 seeding. Every stream
equals the one-key `np.random.default_rng(np.random.SeedSequence((seed,
*key)))`, which the tests keep as the oracle `substream_ref`.
"""

import hashlib
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# the constants of numpy's SeedSequence (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stage_seed(master_seed: int, stage: str) -> int:
    """Derive a 63-bit stage seed from the master seed and a stage name."""
    name_hash = int.from_bytes(
        hashlib.sha256(stage.encode("utf-8")).digest()[:8], "little"
    )
    return _splitmix64((master_seed & _MASK64) ^ name_hash) >> 1


def _hasher(init: int, mult: int):
    """SeedSequence's `hashmix` on arrays of 32-bit words held in uint64,
    with its running constant: each call xors the constant in, advances
    it, and multiplies by the new one."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # uint64 wraps where the difference is negative; the low word is right
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """(N, 4) uint64: `SeedSequence(row).generate_state(4, np.uint64)` for
    each row of an (L, N) array of 32-bit entropy words, one column per
    item."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[1], dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    # generate_state: 8 words cycling the pool, paired little-endian
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]
    return np.stack([words[i] | (words[i + 1] << 32)
                     for i in range(0, len(words), 2)], axis=1)


class _SeedWords(ISeedSequence):
    """The seed words SeedSequence would generate for one item, handed to
    PCG64, whose own code turns them into its state."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"hold 4 uint64 seed words, not {n_words} "
                             f"{np.dtype(dtype)}")
        return self.words


def substreams(seed: int, keys):
    """An iterator of one generator per row of `keys`, an (N, k) array of
    integers in [0, 2**32): the stream of `SeedSequence((seed, *key))`,
    the same bit for bit. All keys are hashed on the call; each generator
    is made when the iterator reaches it."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be an (N, k) array of integers, got "
                         f"shape {keys.shape} of {keys.dtype}")
    if keys.size and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("keys must lie in [0, 2**32)")
    # SeedSequence's words of a non-negative int: little-endian, [0] for 0
    head = [(seed >> s) & _MASK32
            for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(head) + keys.shape[1], keys.shape[0]),
                       dtype=np.uint64)
    entropy[:len(head)] = np.array(head, dtype=np.uint64)[:, None]
    entropy[len(head):] = keys.T
    return (np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for words in _seed_words(entropy))
