import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmf.rng import TAG_CLIENT_ROUND, derive_rng, derive_rngs, integers_below
from privmf.sgld import Hyperparams

# one word each up to 2**32 - 1, then two words, then three
PARTS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5]


def reference(key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def assert_reference_streams(keys):
    rngs = derive_rngs(keys)
    assert len(rngs) == len(keys)
    for key, rng in zip(keys, rngs):
        expected = reference(key)
        assert rng.bit_generator.state == expected.bit_generator.state, key
        assert np.array_equal(rng.random(5), expected.random(5)), key


@pytest.mark.parametrize("length", range(1, 8))
def test_every_part_at_every_position(length):
    # key i holds PARTS[i], PARTS[i + 1], ... cyclically, so every part sits
    # at every position, beside parts of other word counts
    keys = [tuple(PARTS[(i + j) % len(PARTS)] for j in range(length)) for i in range(len(PARTS))]
    assert_reference_streams(keys)


@pytest.mark.parametrize("length", range(1, 8))
def test_one_word_parts(length):
    # every part one word: fewer entropy words than the pool is zero-padded
    rng = np.random.default_rng(length)
    keys = [tuple(rng.integers(0, 2**32, size=length).tolist()) for _ in range(20)]
    assert_reference_streams([(0,) * length, (2**32 - 1,) * length, *keys])


def test_mixed_word_counts_in_one_batch():
    keys = [
        (7,),
        (7, 2**32),
        (2**64 + 5, 0, 3),
        (1, 2, 3, 4, 5),
        (0,),
        (2**32 - 1, 2**64 + 5, 2**32, 1, 0, 2**31 - 1, 9),
        (7, 5, 0, 1),
    ]
    assert_reference_streams(keys)


def test_round_keys_of_a_population():
    keys = [(seed, TAG_CLIENT_ROUND, client, t) for seed in (7, 2**40) for client in range(150) for t in (1, 25)]
    assert_reference_streams(keys)


def test_numpy_integer_parts():
    assert_reference_streams([(np.int64(7), np.uint32(5), np.uint64(2**63), True)])


def test_empty_batch():
    assert derive_rngs([]) == []


def assert_reference_streams_of(keys, tuples):
    rngs = derive_rngs(keys)
    assert len(rngs) == len(tuples)
    for key, rng in zip(tuples, rngs):
        assert rng.bit_generator.state == reference(key).bit_generator.state, key


@pytest.mark.parametrize(
    "dtype, seed",
    # every part one word, hashed straight from the array; then seeds of
    # several words, and parts beyond int64, which take the per-key path
    [(np.int64, 7), (np.uint32, 2**32 - 1), (np.int64, 2**40), (np.uint64, 2**64 - 1), (object, 2**70)],
)
def test_key_array_rows_are_keys(dtype, seed):
    keys = np.empty((150, 4), dtype=dtype)
    keys[:] = (seed, TAG_CLIENT_ROUND, 0, 25)
    keys[:, 2] = np.arange(150)
    assert_reference_streams_of(keys, [(seed, TAG_CLIENT_ROUND, i, 25) for i in range(150)])


def test_key_array_of_every_width():
    for length in range(1, 8):
        keys = np.random.default_rng(length).integers(0, 2**32, size=(20, length))
        assert_reference_streams_of(keys, [tuple(row) for row in keys.tolist()])


def test_empty_key_array():
    assert derive_rngs(np.empty((0, 4), dtype=np.int64)) == []


def test_negative_part_of_a_key_array_raises():
    keys = np.array([[7, 4, 3], [7, 4, -1]])
    with pytest.raises(ValueError, match="rng key parts must be non-negative"):
        derive_rngs(keys)


def test_matches_derive_rng_and_cannot_spawn():
    (rng,) = derive_rngs([(3, 1, 4)])
    assert rng.random() == derive_rng(3, 1, 4).random()
    with pytest.raises(TypeError):
        rng.spawn(1)


@pytest.mark.parametrize("keys", [[(1, 2), (3, -1)], [(-(2**40),)]])
def test_negative_part_raises(keys):
    with pytest.raises(ValueError, match="rng key parts must be non-negative"):
        derive_rngs(keys)
    with pytest.raises(ValueError, match="rng key parts must be non-negative"):
        derive_rng(*keys[-1])


@pytest.mark.parametrize("part", [7.5, 7.0, np.float64(3.0), "7"])
def test_non_integral_part_raises(part):
    with pytest.raises(TypeError):
        derive_rngs([(1, 2), (3, part)])
    with pytest.raises(TypeError):
        derive_rng(3, part)


def test_fractional_seed_is_not_truncated():
    with pytest.raises(TypeError):
        Hyperparams.with_gamma_priors(4, 0.1, 0.6, seed=7.5)


# a bound of 1 takes no half; one just above 2**31 rejects about half its
# halves; one near 2**32 - 1 almost never, but is the top of the range
BOUNDS = st.one_of(
    st.just(1),
    st.integers(2, 9),
    st.integers(1, 2**32 - 1),
    st.integers(2**31 + 1, 2**31 + 8),
    st.integers(2**32 - 8, 2**32 - 1),
)


def assert_generator_integers(clients, shuffle=random.Random(0).shuffle):
    """``integers_below`` over ``(seed, bounds)`` clients, their segments
    laid out back to back in a shuffled order, against ``Generator.integers``."""
    order = list(range(len(clients)))
    shuffle(order)
    starts, high = [0] * len(clients), []
    for i in order:
        starts[i] = len(high)
        high += clients[i][1]
    rngs = [np.random.default_rng(seed) for seed, _ in clients]
    draws = integers_below(rngs, np.array(high, dtype=np.int64), starts, [len(b) for _, b in clients])
    for rng, start, (seed, bounds) in zip(rngs, starts, clients):
        expected = np.random.default_rng(seed)
        segment = draws[start : start + len(bounds)]
        assert segment.tolist() == expected.integers(0, np.array(bounds, dtype=np.int64)).tolist(), seed
        # the streams go on as numpy's, in 64-bit draws
        assert rng.random() == expected.random()
        assert rng.standard_normal() == expected.standard_normal()


@settings(max_examples=300, deadline=None)
@given(
    clients=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.lists(BOUNDS, max_size=9)), max_size=6),
    layout=st.randoms(use_true_random=False),
)
def test_integers_below_draws_as_generator_integers(clients, layout):
    # clients with zero rows, odd and even counts, in any layout order
    assert_generator_integers(clients, layout.shuffle)


def test_integers_below_redraws_rejected_halves():
    # 40 bounds of 2**31 + 1 reject ~20 halves: each rejecting client is
    # redrawn past its pulled words, odd and even counts alike
    clients = [(seed, [2**31 + 1] * n) for seed, n in enumerate([40, 39, 1, 0, 2, 3])]
    assert_generator_integers(clients)
    bound = np.uint64(2**31 + 1)
    halves = np.random.default_rng(0).bit_generator.random_raw(20).astype("<u8").view("<u4")
    assert np.count_nonzero((halves * bound & 0xFFFFFFFF) < 2**32 % bound) > 5


def test_bounds_of_one_take_no_draw():
    rng, untouched = np.random.default_rng(3), np.random.default_rng(3)
    assert integers_below([rng], np.ones(5, dtype=np.int64), [0], [5]).tolist() == [0] * 5
    assert rng.bit_generator.state == untouched.bit_generator.state


@pytest.mark.parametrize("bound", [0, -3, 2**32, 2**40])
def test_bound_outside_32_bits_raises(bound):
    with pytest.raises(ValueError, match=r"bounds must be in \[1, 2\*\*32\)"):
        integers_below([np.random.default_rng(0)], np.array([5, bound]), [0], [2])
