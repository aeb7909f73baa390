"""Stream derivation: determinism and key separation."""

import numpy as np
import pytest

from mixsep import DEFAULT_SEED, stream


def test_same_seed_and_key_reproduce_bits():
    a = stream(7, 1, 2).random(64)
    b = stream(7, 1, 2).random(64)
    assert np.array_equal(a, b)


def test_different_keys_give_different_draws():
    a = stream(7, 1, 2).random(64)
    b = stream(7, 1, 3).random(64)
    c = stream(7, 2, 2).random(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_path_is_not_flattened():
    # (1, 2) and (12,) must address different streams
    a = stream(7, 1, 2).random(8)
    b = stream(7, 12).random(8)
    assert not np.array_equal(a, b)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream(-1)


def test_default_seed_value():
    assert DEFAULT_SEED == 1729


@pytest.mark.parametrize("seed", [1.5, 1.0, True])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        stream(seed, 0)


@pytest.mark.parametrize("key", [2.5, 1.0, True])
def test_non_integer_key_rejected(key):
    # int() would truncate 2.5 to 2 and silently draw another stream
    with pytest.raises(ValueError, match="key must be an integer"):
        stream(7, 0, key)


def test_negative_key_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        stream(7, -3)


def test_numpy_integer_seed_accepted():
    assert np.array_equal(stream(np.int64(7), 1).random(8), stream(7, 1).random(8))

