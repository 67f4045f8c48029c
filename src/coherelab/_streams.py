"""Counter-based random substreams, one at a time or one per node in bulk.

Every draw of the package comes from a ``numpy`` generator seeded by
``SeedSequence(entropy=seed, spawn_key=key)`` with the default ``PCG64``
bit generator.  ``substream`` builds one such generator.  ``unit_tables``
gives the first ``random()`` doubles of ``n`` sibling keys
``prefix + (i,)`` for each of several prefixes at once, bit for bit what
one call of ``substream`` per key would give, in a few dozen vectorized
passes instead of one generator construction (about 20 µs) per key;
``unit_table`` is the table of one prefix.

The siblings' entropy words differ only in the last one, ``i``, so the
``SeedSequence`` pool mixing (``numpy/random/bit_generator.pyx``) runs
once per prefix on Python integers and only its last four rounds run per
node.  The pool words of every prefix are concatenated, and their
``generate_state`` words seed ``PCG64``, whose 128-bit LCG step and
XSL-RR output (O'Neill, "PCG: A family of simple fast space-efficient
statistically good algorithms for random number generation",
HMC-CS-2014-0905) run on pairs of uint64 arrays of all prefixes' keys in
one pass.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import NumericalError, ValidationError

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# The default PCG64 multiplier, split into its high and low 64 bits and
# the low word's 32-bit limbs.
_MULT = 47026247687942121848144207491837523525
_MULT_HI = np.uint64(_MULT >> 64)
_MULT_LO = np.uint64(_MULT & (2**64 - 1))
_MULT_LO_LIMBS = np.uint64(_MULT & _MASK32), np.uint64((_MULT >> 32) & _MASK32)


def check_int(value, name: str) -> int:
    """``value`` as a Python int where it is of an integer type other than
    ``bool`` (``operator.index`` accepts it), else ``ValidationError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_spawn_key(key) -> tuple:
    """``key`` as a tuple of non-negative Python ints, or ``ValidationError``."""
    key = tuple(check_int(k, "spawn key element") for k in key)
    for k in key:
        if k < 0:
            raise ValidationError(f"spawn key elements must be non-negative, got {k}")
    return key


def substream(seed: int, key: tuple) -> np.random.Generator:
    """The generator of substream ``key`` under ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def unit_table(seed: int, prefix: tuple, n: int, m: int) -> np.ndarray:
    """``(n, m)`` table whose row ``i`` is ``substream(seed, prefix + (i,)).random(m)``."""
    return unit_tables(seed, [prefix], n, m)[0]


def unit_tables(seed: int, prefixes, n: int, m: int) -> np.ndarray:
    """``(len(prefixes), n, m)`` table whose block ``j`` is
    ``unit_table(seed, prefixes[j], n, m)``, derived in one pass.

    ``n >= 1``.  Row 0 of every block is checked against ``substream``
    itself, so a ``numpy`` whose generators no longer match this
    derivation raises ``NumericalError`` instead of changing the draws.
    """
    prefixes = [check_spawn_key(prefix) for prefix in prefixes]
    pools = (_pool_words(seed, prefix, n) for prefix in prefixes)
    table = _pcg64_random([np.concatenate(words) for words in zip(*pools)], m)
    table = table.reshape(len(prefixes), n, m)
    for prefix, block in zip(prefixes, table):
        if not np.array_equal(block[0], substream(seed, (*prefix, 0)).random(m)):
            raise NumericalError(
                "bulk substream derivation disagrees with numpy's SeedSequence/PCG64"
            )
    return table


def _words(value: int) -> list[int]:
    """``SeedSequence``'s uint32 words of a non-negative int (``[0]`` for 0)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(value: int, mult: int):
    """``SeedSequence``'s running hash constant before and after each of its
    updates: the same sequence for any data."""
    while True:
        updated = (value * mult) & _MASK32
        yield value, updated
        value = updated


def _hashmix(value, hash_consts):
    """``SeedSequence``'s word hash (``hashmix``, and each word of
    ``generate_state``) of a Python int or a uint64 array of uint32 words."""
    before, after = next(hash_consts)
    value = ((value ^ before) * after) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _pool_words(seed: int, prefix: tuple, n: int) -> list[np.ndarray]:
    """The four ``SeedSequence`` pool words of keys ``prefix + (i,)``, i < n.

    The entropy is the seed's words zero-padded to the pool size, then the
    key's words.  Only the last word, ``i``, differs between the keys: it
    is one word for every ``i < 2**32``, and it is mixed into each pool
    word in the final four rounds.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for k in prefix:
        entropy += _words(k)
    hash_consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, hash_consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_consts))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_consts))
    i = np.arange(n, dtype=np.uint64)
    return [_mix(np.uint64(word), _hashmix(i, hash_consts)) for word in pool]


def _mul_hi64(a: np.ndarray, b_limbs: tuple) -> np.ndarray:
    """High 64 bits of ``a * b`` for uint64 ``a`` and ``b``'s 32-bit limbs."""
    b0, b1 = b_limbs
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    low, cross_a, cross_b = a0 * b0, a1 * b0, a0 * b1
    mid = (low >> np.uint64(32)) + (cross_a & np.uint64(_MASK32)) + (cross_b & np.uint64(_MASK32))
    return a1 * b1 + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32)) + (mid >> np.uint64(32))


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * MULT + inc`` mod 2**128, on (hi, lo) pairs."""
    hi = _mul_hi64(lo, _MULT_LO_LIMBS) + lo * _MULT_HI + hi * _MULT_LO
    return _add128(hi, lo * _MULT_LO, inc_hi, inc_lo)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _pcg64_random(pool: list[np.ndarray], m: int) -> np.ndarray:
    """``random(m)`` of ``PCG64`` seeded from each row of the pool words.

    ``generate_state(4, uint64)`` hashes the pool into eight uint32 words,
    read as four little-endian uint64: the seed is ``(v0, v1)`` and the
    stream ``(v2, v3)``, each as (high, low).  Seeding sets ``state = 0``
    and ``inc = 2 stream + 1``, steps, adds the seed and steps again.
    Each double is ``(x >> 11) 2**-53`` of the XSL-RR output
    ``rotr64(hi ^ lo, hi >> 58)`` taken after a step.
    """
    hash_consts = _hash_consts(_INIT_B, _MULT_B)
    # The eight words cycle through the pool twice, low word first.
    v0, v1, v2, v3 = [
        _hashmix(low, hash_consts) | (_hashmix(high, hash_consts) << np.uint64(32))
        for low, high in [pool[:2], pool[2:]] * 2
    ]
    del pool  # the draws need only the seeds and increments
    inc_hi = (v2 << np.uint64(1)) | (v3 >> np.uint64(63))
    inc_lo = (v3 << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, v0, v1)  # the first step from state 0
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    table = np.empty((len(v0), m))
    for col in range(m):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        table[:, col] = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return table
