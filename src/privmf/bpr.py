"""Pairwise-ranking factorization for one-class feedback.

Instead of squared rating errors, updates come from the margin
``x = u.v_pos - u.v_neg`` between a rated and an unrated item, pushing the
rated one above. The distributed variant reuses the randomized send-set:
each selected item transmits exactly one delta in the role its true
ratedness dictates, with the pair partner drawn locally and never sent, so
the transmitted item set (the existence surface) is identical to the
numerical task's.

The simulator runs a one-class round for the whole population at once
(``population_iteration``): after the population's ``send_sets`` draw, it
walks the population's chunks of clients in two passes, as the numerical
round does. Pass 1 draws every partner of the chunk with one
``rng.integers_below`` call, one raw pull from each client's round stream,
and, with noise on, loops over the clients for their pair noise. Pass 2
is one ``bpr_step`` over all the chunk's pairs, whose item deltas go
straight to their clients' segments of the round's block, the numerical
round's layout. The round reads the server's item factors only through
the read-only snapshot it is handed, and writes only the ``Population``'s
user factors and ledger. Every update, user factor and ledger entry
equals that client's round computed alone, in a population of one.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import RoundUpdates
from .rng import integers_below
from .sgld import Hyperparams, UserRows, learning_rate


def sigma_bar(x):
    """exp(-x) / (1 + exp(-x)) of a margin or an array of margins.

    Both branches take ``exp(-|x|)``, so one ``math.exp`` map serves them and
    each value rounds as the scalar two-branch form; ``np.exp`` would not.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.fromiter(map(math.exp, (-np.abs(x)).ravel().tolist()), np.float64, x.size).reshape(x.shape)
    return np.where(x >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def bpr_step(
    u: np.ndarray,
    v_own: np.ndarray,
    v_other: np.ndarray,
    positive,
    eta_t: float,
    hp: Hyperparams,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Additive deltas ``(du, d_own)`` for pairs of an item ``v_own`` and its
    partner ``v_other``, one pair per row: ``v_own`` is the rated (positive)
    item where ``positive`` holds, else the unrated (negative) one.

    ``u`` holds the user's row of each pair. ``noise`` is a pre-drawn
    standard-normal block with rows ``(du, dpos, dneg)`` per pair, as the
    client's stream holds them, when SGLD noise is on. ``u``, ``v_own``,
    ``v_other`` and ``noise`` are scratch: the deltas are written over them.

    With noise off these descend the pairwise log-loss
    ``-ln sigmoid(x) + 0.5 u' diag(lambda_u) u + 0.5 v' diag(lambda_v) v``
    (both item terms), each step optionally carrying N(0, eta_t I) noise.
    """
    if not (u.shape == v_own.shape == v_other.shape):
        raise ValueError("dimension mismatch between factors")
    # np.vecdot takes one BLAS dot per row, so margins round as np.dot's
    own, other = np.vecdot(v_own, u), np.vecdot(v_other, u)
    s = sigma_bar(np.where(positive, own - other, other - own))
    pos = np.asarray(positive)[..., None]
    # du = -eta_t * (s * (v_neg - v_pos) + lambda_u * u), over v_other; each
    # delta keeps the textbook operation order, so every value and every
    # signed zero is that of the lone pair's step
    np.subtract(v_other, v_own, out=v_other, where=pos)
    np.subtract(v_own, v_other, out=v_other, where=~pos)
    v_other *= s[..., None]
    v_other += u * hp.lambda_u
    v_other *= -eta_t
    # d_own = -eta_t * (-s * u + lambda_v * v_pos) for a positive item,
    # -eta_t * (s * u + lambda_v * v_neg) for a negative one, over u
    u *= np.where(positive, -s, s)[..., None]
    v_own *= hp.lambda_v
    u += v_own
    u *= -eta_t
    if noise is None:
        return v_other, u
    noise *= np.sqrt(eta_t)
    noise[..., 0, :] += v_other
    d_own = np.where(pos, noise[..., 1, :], noise[..., 2, :])
    d_own += u
    return noise[..., 0, :], d_own


def population_iteration(pop, v_snapshot: np.ndarray, t: int) -> RoundUpdates:
    """One round of the one-class task for a ``protocol.Population``: every
    client's update, in client order.

    A selected rated item pairs with a fresh uniform unrated partner and
    sends its positive-role delta; a selected unrated item pairs with a
    uniform rated partner and sends its negative-role delta. Each client
    draws from its own round-``t`` stream, in one order: the send set, one
    partner per selected item in send-set order, the pair noise. The
    partners are drawn as ``Generator.integers`` would draw them, bit for
    bit, for a chunk of clients at once (``rng.integers_below``); only the
    pair noise is pulled client by client. The user factor applies the
    average of all its pair deltas once per round. No fake errors are
    needed, so the fake-gradient budget is unused. A client that has rated
    every item has no unrated partner: it sends nothing, and the round is
    counted in its ``partnerless_rounds``.
    """
    hp, n_items = pop.hp, len(v_snapshot)
    eta = learning_rate(t, hp)
    rngs, items, at = pop.send_sets(t)
    counts = np.diff(at)
    partnerless = (pop.h == n_items) & (counts > 0)
    pop.partnerless_rounds += partnerless
    if partnerless.any():
        items = items[~np.repeat(partnerless, counts)]
        counts[partnerless] = 0
    offsets = np.cumsum([0, *counts.tolist()])
    # the round's item deltas, in the clients' segments of the sent ids
    deltas = np.empty((len(items), hp.k))
    for lo, hi, rated in pop.chunks:
        # clients lo to hi: ``rated`` lays out their rated rows and ``rows``
        # their send sets, and their item deltas go to deltas[a:b], their
        # segments in client order
        a, b = offsets[lo], offsets[hi]
        rows = UserRows(items[a:b], counts[lo:hi])
        _, positive = rated.locate(rows.owner, rows.items, n_items)
        h = rated.h[rows.owner]
        # a rated item draws among the unrated items, an unrated one among the rated
        high = np.where(positive, n_items - h, h)

        # pass 1: the rest of each client's stream, in its order: the
        # partner draws, one raw pull per client, then the pair noise
        draws = integers_below(rngs[lo:hi], high, rows.start, rows.h)
        noise = None
        if hp.noise_enabled:
            noise = np.empty((len(rows.items), 3, hp.k))
            for rng, first, n in zip(rngs[lo:hi], rows.start.tolist(), rows.h.tolist()):
                rng.standard_normal(out=noise[first : first + n])

        # pass 2: every pair of the chunk in one step
        partner = np.empty_like(draws)
        partner[positive] = rated.unrated(rows.owner[positive], draws[positive], n_items)
        negative = ~positive
        partner[negative] = rated.items[rated.start[rows.owner[negative]] + draws[negative]]
        u = pop.u[lo:hi]
        du, d_own = bpr_step(u.take(rows.owner, axis=0), v_snapshot.take(rows.items, axis=0),
                             v_snapshot.take(partner, axis=0), positive, eta, hp, noise)
        del noise
        sums = rows.sums(du)
        del du  # freed before the delta write
        # row r, the j-th of its client's, goes to that client's segment at j
        segment = np.cumsum(rows.h) - rows.h
        deltas[a + (segment - rows.start)[rows.owner] + np.arange(len(rows.items))] = d_own
        del d_own
        moved = rows.h > 0  # a client that sent nothing keeps its factor
        u[moved] += sums[moved] / rows.h[moved, None]
    return RoundUpdates(pop.ids, offsets, items, deltas)


# the name the benchmark's tracer binds the one-class round by
sd_bpr_client_iteration = population_iteration
