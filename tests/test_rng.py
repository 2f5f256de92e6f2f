import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmf.rng import TAG_CLIENT_ROUND, derive_rng, derive_rngs, integers_below
from privmf.sgld import Hyperparams

# one word each up to 2**32 - 1, then two words, then three
PARTS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5]
# ids are one word each
IDS = [0, 1, 7, 2**31 - 1, 2**32 - 2, 2**32 - 1]


def reference(key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def assert_reference_streams(seed, tag, ids, *rest):
    rngs = derive_rngs(seed, tag, ids, *rest)
    assert len(rngs) == len(ids)
    for i, rng in zip(np.asarray(ids).tolist(), rngs):
        key = (seed, tag, i, *rest)
        expected = reference(key)
        assert rng.bit_generator.state == expected.bit_generator.state, key
        assert np.array_equal(rng.random(5), expected.random(5)), key


@pytest.mark.parametrize("n_rest", range(4))
def test_every_width_of_seed_tag_and_rest(n_rest):
    # every part at the seed, the tag and each rest position, beside parts
    # of other word counts: fewer entropy words than the pool is zero-padded
    for i, seed in enumerate(PARTS):
        for j, tag in enumerate(PARTS):
            rest = [PARTS[(i + j + r) % len(PARTS)] for r in range(n_rest)]
            assert_reference_streams(seed, tag, np.array(IDS), *rest)


@pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64, np.int32])
def test_id_arrays_of_any_integer_dtype(dtype):
    high = min(np.iinfo(dtype).max, 2**32 - 1)
    ids = np.random.default_rng(3).integers(0, high, size=20, endpoint=True, dtype=dtype)
    assert_reference_streams(7, 4, ids, 25)
    assert_reference_streams(2**40, 4, ids)


def test_round_keys_of_a_population():
    for seed in (7, 2**40):
        for t in (1, 25):
            assert_reference_streams(seed, TAG_CLIENT_ROUND, np.arange(150), t)


def test_numpy_integer_parts():
    assert_reference_streams(np.int64(7), np.uint32(5), [3, 4], np.uint64(2**63), True)


def test_empty_ids():
    assert derive_rngs(7, TAG_CLIENT_ROUND, np.empty(0, dtype=np.int64), 3) == []


def test_matches_derive_rng_and_cannot_spawn():
    (rng,) = derive_rngs(3, 1, [4])
    assert rng.random() == derive_rng(3, 1, 4).random()
    with pytest.raises(TypeError):
        rng.spawn(1)


@pytest.mark.parametrize("ids", [[3, -1], [2**32], np.array([5, 2**32], dtype=np.uint64), [2**70]])
def test_id_outside_one_word_raises(ids):
    with pytest.raises(ValueError, match=r"ids must be integers in \[0, 2\*\*32\)"):
        derive_rngs(7, 4, ids)


@pytest.mark.parametrize("key", [(-1, 4), (7, -(2**40)), (7, 4, 3, -1)])
def test_negative_part_raises(key):
    with pytest.raises(ValueError, match="rng key parts must be non-negative"):
        derive_rngs(*key[:2], [0, 1], *key[2:])
    with pytest.raises(ValueError, match="rng key parts must be non-negative"):
        derive_rng(*key)


@pytest.mark.parametrize("part", [7.5, 7.0, np.float64(3.0), "7"])
def test_non_integral_part_raises(part):
    with pytest.raises(TypeError):
        derive_rngs(3, part, [1, 2])
    with pytest.raises(TypeError):
        derive_rngs(3, 4, [1, 2], part)
    with pytest.raises(TypeError):
        derive_rng(3, part)


def test_non_integral_ids_raise():
    with pytest.raises(ValueError, match=r"ids must be integers in \[0, 2\*\*32\), got float64 1.0 to 2.0"):
        derive_rngs(3, 4, np.array([1.0, 2.0]))


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
