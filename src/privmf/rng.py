"""Deterministic derivation of independent RNG streams.

Every stochastic component draws from its own generator, keyed by a
structured tuple (master seed, purpose tag, ...). Re-deriving a stream
with the same key reproduces it exactly, which is what makes simulated
runs bit-reproducible and lets clients run concurrently without sharing
generator state.

A key's stream is ``np.random.default_rng(np.random.SeedSequence(key))``.
``derive_rng`` builds it that way, one key at a time. ``derive_rngs``
builds the streams of one population, ``(seed, tag, id, *rest)`` for
each id of an array, at once, bit for bit: it runs ``SeedSequence``'s
entropy hash and ``generate_state`` as uint32 array arithmetic over all
the keys, with no per-key Python step, then seeds one ``PCG64`` per key
from its four state words. Only the seeding differs: such a generator's
``bit_generator.seed_seq`` is not a ``SeedSequence``, so it cannot
``spawn()``.

``integers_below`` draws ``rng.integers(0, bounds)`` for many streams at
once, bit for bit: it runs ``Generator.integers``' bounded draw over each
stream's raw 64-bit words as array arithmetic.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Purpose tags so distinct consumers of the same master seed never collide.
TAG_MODEL_INIT = 1
TAG_REGULARIZERS = 2
TAG_CENTRAL_TRAIN = 3
TAG_CLIENT_INIT = 4
TAG_CLIENT_ROUND = 5
TAG_ISGLD = 6
TAG_REPETITION = 7

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, unchanged since 1.17)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _key_parts(key) -> list[int]:
    """The key's parts as ints: a non-integral part raises TypeError, a
    negative one ValueError."""
    parts = [operator.index(p) for p in key]
    if any(p < 0 for p in parts):
        raise ValueError(f"rng key parts must be non-negative, got {parts}")
    return parts


def derive_rng(*key: int) -> np.random.Generator:
    """Return a Generator determined entirely by the integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence(_key_parts(key)))


def derive_rngs(seed: int, tag: int, ids, *rest: int) -> list[np.random.Generator]:
    """``[derive_rng(seed, tag, i, *rest) for i in ids]``, bit for bit, in one pass.

    An id is one entropy word: an id that is not an integer in
    ``[0, 2**32)`` raises ValueError, as does a negative part. The words
    of ``seed`` and ``tag``, then each id's word, then the words of
    ``rest`` fill one uint32 block, one key per row, whose
    ``SeedSequence`` hashes run as array operations over the rows. The pass has a fixed cost, ~0.1 ms, so a single key is
    cheaper through ``derive_rng``.
    """
    parts = _key_parts((seed, tag, *rest))
    head, tail = _entropy_words(parts[:2]), _entropy_words(parts[2:])
    ids = np.asarray(ids)
    if ids.size and not (ids.dtype.kind in "iu" and 0 <= ids.min() <= ids.max() <= _MASK32):
        raise ValueError(f"ids must be integers in [0, 2**32), got {ids.dtype} {ids.min()} to {ids.max()}")
    words = np.empty((len(ids), len(head) + 1 + len(tail)), dtype=np.uint32)
    words[:] = [*head, 0, *tail]
    words[:, len(head)] = ids
    return _generators(_pcg64_states(words))


def _generators(states: np.ndarray) -> list[np.random.Generator]:
    """One ``PCG64`` generator per row of four uint64 state words."""
    return [np.random.Generator(np.random.PCG64(_StateWords(row))) for row in states]


def _entropy_words(parts: list[int]) -> list[int]:
    """``parts`` as ``SeedSequence`` coerces them: each as its little-endian
    uint32 words, 0 as the one word 0."""
    words = []
    for p in parts:
        words.append(p & _MASK32)
        while p := p >> 32:
            words.append(p & _MASK32)
    return words


def _constant_steps(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiplier of ``calls`` hash steps, as ``(calls, 1)``
    uint32 columns: a step xors in the hash constant, multiplies it by
    ``mult`` and multiplies by the result. The constant starts at ``init``
    and never depends on the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column[:-1], column[1:]


@functools.cache
def _mix_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The steps of every ``hashmix`` call that mixing ``n_words`` entropy
    words makes, in call order."""
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    return _constant_steps(_INIT_A, _MULT_A, calls)


# the steps of generate_state(4, uint64)'s 8 words, and the pool word each hashes
_STATE_XOR, _STATE_MULT = _constant_steps(_INIT_B, _MULT_B, 8)
_STATE_POOL = np.arange(8) % _POOL_SIZE


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of
    ``words``, an ``(n, n_words)`` uint32 array of entropy words.

    The pool is a ``(4, n)`` block; the calls that hash into different pool
    words with no data dependence between them run as one block operation.
    """
    n, n_words = words.shape
    xors, mults = _mix_constants(n_words)
    used = 0

    def hashmix(value, calls):
        # the next ``calls`` hashmix calls, one per row of the result
        nonlocal used
        value = (value ^ xors[used : used + calls]) * mults[used : used + calls]
        used += calls
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    # uint32 arrays wrap on overflow, as SeedSequence's uint32_t arithmetic does
    entropy = np.zeros((max(n_words, _POOL_SIZE), n), dtype=np.uint32)
    entropy[:n_words] = words.T
    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], len(dst)))
    for src in range(_POOL_SIZE, n_words):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))

    state = (pool[_STATE_POOL] ^ _STATE_XOR) * _STATE_MULT
    state ^= state >> _XSHIFT
    # word pairs read as little-endian uint64, as generate_state reads them
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def integers_below(rngs, high: np.ndarray, starts, counts) -> np.ndarray:
    """``rng.integers(0, high[s : s + n])`` for each ``rng``, ``s`` and ``n``
    of ``rngs``, ``starts`` and ``counts``, bit for bit, as one int64 array
    laid out as ``high``; the segments cover ``high`` and do not overlap.

    For a bound below 2**32, numpy takes Lemire's bounded draw ("Fast
    random integer generation in an interval", ACM TOMACS 2019) over the
    stream's 32-bit halves, which PCG64 serves low half first from each
    64-bit word. A bound of 1 takes no half and gives 0. Any other bound
    ``b`` takes a half ``x``, and ``m = x * b`` gives the draw ``m >> 32``
    unless ``m``'s low word is below ``(2**32 - b) % b``; then it takes the
    next half. Here each stream pulls the ``ceil(n32 / 2)`` words its
    ``n32`` bounds above 1 need at one accept each, in one ``random_raw``
    call, and every half is tried at once. A stream with a rejected half is
    redrawn alone, half by half, pulling one more word whenever its loop
    needs it. A half rejects with odds ``(2**32 % b) / 2**32``: below
    2**-22 for bounds below 1024, about 1/2 just above 2**31.

    A stream must hold no buffered half when called, which a stream that
    has only made 64-bit draws does not. A stream that ends on an odd
    half leaves its last word's high half unread where numpy would buffer
    it: the stream's next 64-bit draws (``random``, ``standard_normal``,
    ...) are numpy's, its next 32-bit one is not. A bound outside
    ``[1, 2**32)`` raises ValueError.
    """
    high, starts, counts = (np.asarray(a, dtype=np.int64) for a in (high, starts, counts))
    if len(high) and not (high.min() >= 1 and high.max() <= _MASK32):
        raise ValueError(f"bounds must be in [1, 2**32), got {high.min()} to {high.max()}")
    drawn = high > 1
    before = np.zeros(len(high) + 1, dtype=np.int64)  # drawn rows before each row
    np.cumsum(drawn, out=before[1:])
    n32 = before[starts + counts] - before[starts]
    del before
    # each stream's words go to ``raw`` at ``first``, the streams in row order,
    # so the halves run as the drawn rows do, bar each odd stream's last one
    words = (n32 + 1) // 2
    order = np.argsort(starts, kind="stable")
    first = np.empty_like(words)
    first[order] = np.cumsum(words[order]) - words[order]
    raw = np.empty(int(words.sum()), dtype="<u8")
    for rng, a, w in zip(rngs, first.tolist(), words.tolist()):
        if w:
            raw[a : a + w] = rng.bit_generator.random_raw(w)
    halves = raw.view("<u4")
    used = np.ones(len(halves), dtype=bool)
    odd = n32 % 2 == 1
    used[2 * (first[odd] + words[odd]) - 1] = False
    bound = high[drawn].astype(np.uint64)
    m = halves[used].astype(np.uint64)
    m *= bound
    low = m & _MASK32
    # the rejection threshold (2**32 - b) % b, over ``bound``'s memory
    threshold = np.subtract(2**32, bound, out=bound)
    threshold %= high[drawn].astype(np.uint64)
    rejected = low < threshold
    del low, bound, threshold
    m >>= 32
    out = np.zeros(len(high), dtype=np.int64)
    out[drawn] = m
    if rejected.any():
        # the streams holding a rejected row run Lemire's loop alone
        bad = np.flatnonzero(drawn)[rejected]
        hits = np.searchsorted(bad, starts + counts) - np.searchsorted(bad, starts)
        for i in np.flatnonzero(hits).tolist():
            rows = starts[i] + np.flatnonzero(drawn[starts[i] : starts[i] + counts[i]])
            pulled = halves[2 * first[i] : 2 * (first[i] + words[i])].tolist()
            out[rows] = _lemire_loop(rngs[i], pulled, high[rows].tolist())
    return out


def _lemire_loop(rng: np.random.Generator, halves: list[int], bounds: list[int]) -> list[int]:
    """Lemire's bounded draw for each of ``bounds`` in turn, as numpy runs
    it: from the 32-bit ``halves`` already pulled from ``rng``, then from
    one more word of ``rng`` whenever they run out."""
    draws, taken = [], 0
    for b in bounds:
        threshold = (2**32 - b) % b
        while True:
            if taken == len(halves):
                word = int(rng.bit_generator.random_raw())
                halves += [word & _MASK32, word >> 32]
            m = halves[taken] * b
            taken += 1
            if m & _MASK32 >= threshold:
                break
        draws.append(m >> 32)
    return draws


class _StateWords(ISeedSequence):
    """Hands ``PCG64`` the four state words a ``SeedSequence`` would."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds only the 4 uint64 words that seed a PCG64")
        return self.state
