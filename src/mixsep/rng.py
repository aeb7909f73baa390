"""Seedable, splittable random streams.

Every randomized routine in the package draws from a stream derived from an
integer seed plus an explicit key, backed by the Philox counter-based
generator.  Distinct (seed, key) pairs give statistically independent
streams, so replications can run in any order (or in parallel) and still
reproduce bit-identically.

:func:`stream` is the specification: numpy's ``SeedSequence`` hashes
``(seed, key)`` into the 128-bit Philox key.  :func:`uniform_rows` replays
that hash as ``uint32`` array arithmetic to key many replications at once
and draws exactly what :func:`stream` draws; ``tests/test_rng.py`` pins the
two against each other.
"""
from __future__ import annotations

import numpy as np

from ._validate import check_count, check_seed

# Default seed used by the command line and simulation defaults whenever the
# caller does not supply one.  Documented so runs without an explicit seed
# are still reproducible.
DEFAULT_SEED = 1729

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return an independent generator for the given seed and key path.

    Parameters
    ----------
    seed : int
        Base entropy, typically the user-facing seed.
    *key : int
        Optional path of non-negative integers separating subsystems and
        replication indices (e.g. ``stream(seed, 0, rep)``).
    """
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def uniform_rows(out: np.ndarray, seed: int, *key: int, start: int = 0) -> np.ndarray:
    """Fill row ``i`` of ``out`` with ``stream(seed, *key, start + i).random(out.shape[1])``.

    ``out`` is a C-contiguous 2-D float64 array; it is returned.  The row
    indices ``start + i`` must stay below ``2**32``, where the key hash of
    :func:`stream` stops being one word per row.
    """
    check_seed(seed)
    for name, value in [("start", start), *(("key", k) for k in key)]:
        check_count(name, value)
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if start + len(out) > 2**32:
        raise ValueError(f"row index {start + len(out) - 1} does not fit in 32 bits")
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    # The state of a Philox fresh from a SeedSequence: counter 0, empty buffer.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, row_key in zip(out, _philox_keys(int(seed), key, start, len(out))):
        state["state"]["key"] = row_key
        bit_gen.state = state
        gen.random(out=row)
    return out


def _philox_keys(seed: int, key: tuple, start: int, rows: int) -> np.ndarray:
    """Philox keys of ``stream(seed, *key, start + i)`` for ``i < rows``, shape ``(rows, 2)``.

    The hash pool after the seed and the key prefix is the same for every
    row, so only the last entropy word, the row index, is hashed as an array.
    """
    # A spawn key always follows, so the seed words are padded to the pool.
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for k in key:
        entropy += _words(int(k))
    h = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    row_words = np.arange(start, start + rows, dtype=np.uint32)
    pool = [np.full(rows, word, dtype=np.uint32) for word in pool]
    for dst in range(_POOL_SIZE):
        value, h = _hashmix(row_words, h)
        pool[dst] = _mix(pool[dst], value)
    # SeedSequence.generate_state(2, np.uint64): four words, read little-endian.
    h = _INIT_B
    state = np.empty((rows, 4), dtype="<u4")
    for i, word in enumerate(pool):
        word = word ^ h
        h = h * _MULT_B & _MASK32
        word = word * h & _MASK32
        state[:, i] = word ^ word >> _XSHIFT
    return state.view("<u8").astype(np.uint64)


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer, ``[0]`` for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, h: int):
    """SeedSequence's ``hashmix`` on an int or a uint32 array; also returns the next ``h``."""
    h_next = h * _MULT_A & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> _XSHIFT, h_next


def _mix(x, y):
    """SeedSequence's ``mix`` of two words (ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT
