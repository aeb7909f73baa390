"""Stream derivation: determinism and key separation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsep import DEFAULT_SEED, stream
from mixsep.rng import uniform_rows


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
    with pytest.raises(ValueError, match="seed must be an integer"):
        uniform_rows(np.empty((2, 3)), seed, 0)


def test_numpy_integer_seed_accepted():
    assert np.array_equal(stream(np.int64(7), 1).random(8), stream(7, 1).random(8))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**130),
    key=st.lists(st.integers(0, 2**64), max_size=3),
    start=st.sampled_from([0, 1000, 65_535]),
    m=st.sampled_from([1, 275]),
)
def test_uniform_rows_equal_stream_draws(seed, key, start, m):
    out = np.full((3, m), np.nan)
    assert uniform_rows(out, seed, *key, start=start) is out
    for i, row in enumerate(out):
        assert (row == stream(seed, *key, start + i).random(m)).all()


def test_uniform_rows_last_32_bit_row_index():
    out = np.empty((2, 5))
    uniform_rows(out, 3, 4, start=2**32 - 2)
    assert (out[1] == stream(3, 4, 2**32 - 1).random(5)).all()


@pytest.mark.parametrize("start, rows", [(2**32 - 1, 2), (2**32, 1), (2**40, 3)])
def test_uniform_rows_rejects_row_index_beyond_32_bits(start, rows):
    with pytest.raises(ValueError, match="32 bits"):
        uniform_rows(np.empty((rows, 4)), 1, 0, start=start)


@pytest.mark.parametrize("kwargs, match", [
    ({"seed": -1}, "seed must be non-negative"),
    ({"start": -1}, "start must be non-negative"),
    ({"start": 1.0}, "start must be an integer"),
    ({"key": (-3,)}, "key must be non-negative"),
    ({"key": (2.5,)}, "key must be an integer"),
])
def test_uniform_rows_rejects_bad_arguments(kwargs, match):
    args = {"seed": 1, "key": (0,), "start": 0, **kwargs}
    with pytest.raises(ValueError, match=match):
        uniform_rows(np.empty((2, 3)), args["seed"], *args["key"], start=args["start"])
