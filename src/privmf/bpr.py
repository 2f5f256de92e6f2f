"""Pairwise-ranking factorization for one-class feedback.

Instead of squared rating errors, updates come from the margin
``x = u.v_pos - u.v_neg`` between a rated and an unrated item, pushing the
rated one above. The distributed variant reuses the randomized send-set:
each selected item transmits exactly one delta in the role its true
ratedness dictates, with the pair partner drawn locally and never sent, so
the transmitted item set (the existence surface) is identical to the
numerical task's.

The simulator runs a one-class round for the whole population at once
(``population_iteration``), chunk by chunk, in two passes, as the
numerical round does: a loop over the clients that only pulls each
client's partner draws and pair noise from its own round stream, then one
``bpr_step`` over all the chunk's pairs. Every update and user factor
equals that client's round computed alone (``sd_bpr_client_iteration``,
the population of one).
"""

from __future__ import annotations

import math

import numpy as np

from .codec import ClientUpdate
from .protocol import _draw_send_sets, as_population
from .sgld import Hyperparams, UserRows, learning_rate, row_chunks


def sigma_bar(x):
    """exp(-x) / (1 + exp(-x)) of a margin or an array of margins.

    Both branches take ``exp(-|x|)``, so one ``math.exp`` map serves them and
    each value rounds as the scalar two-branch form; ``np.exp`` would not.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.fromiter(map(math.exp, (-np.abs(x)).ravel().tolist()), np.float64, x.size).reshape(x.shape)
    return np.where(x >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def bpr_margin(u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray) -> float:
    """Predicted-score distance between the rated and the unrated item."""
    if not (u.shape == v_pos.shape == v_neg.shape):
        raise ValueError("dimension mismatch between factors")
    return float(np.dot(u, v_pos) - np.dot(u, v_neg))


def bpr_errors(x: float) -> tuple[float, float]:
    """Pairwise error pair (-sigma_bar(x), sigma_bar(x)); sums to zero."""
    s = float(sigma_bar(x))
    return -s, s


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
    # np.vecdot takes one BLAS dot per row, so margins round as bpr_margin's
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


def population_iteration(clients, v_snapshot: np.ndarray, t: int) -> list[ClientUpdate]:
    """One round of the one-class task for a ``protocol.Population``, or a
    list of ``ClientState``s that share ``hp``: one ``ClientUpdate`` per
    client, in client order.

    A selected rated item pairs with a fresh uniform unrated partner and
    sends its positive-role delta; a selected unrated item pairs with a
    uniform rated partner and sends its negative-role delta. Each client
    draws from its own round-``t`` stream, in one order: the send set, one
    partner per selected item in send-set order, the pair noise. The user
    factor applies the average of all its pair deltas once per round. No
    fake errors are needed, so the fake-gradient budget is unused. A client
    that has rated every item has no unrated partner: it sends nothing, and
    the round is counted in its ``partnerless_rounds``. A list's user
    factors and ledgers are updated in its ``ClientState``s.
    """
    pop, wrapped = as_population(clients, "one-class")
    hp = pop.hp
    eta = learning_rate(t, hp)
    rngs, items, at = _draw_send_sets(pop, t)
    sent = [items[a:b] for a, b in zip(at, at[1:])]
    partnerless = (pop.h == pop.bits_prime.shape[1]) & (np.diff(at) > 0)
    pop.partnerless_rounds += partnerless
    for i in np.flatnonzero(partnerless).tolist():
        sent[i] = sent[i][:0]
    counts = [len(ids) for ids in sent]
    # the round's sent ids and item deltas; each update views its rows
    ids = np.empty(sum(counts), dtype=np.int64)
    deltas = np.empty((len(ids), hp.k))
    first, done = [], 0
    # a pair steps through four (rows, k) blocks, twice a rated row's two,
    # so it counts twice towards the chunk size
    for lo, hi in row_chunks([2 * n for n in counts]):
        rows = UserRows(sent[lo:hi])
        end = done + len(rows.items)
        _chunk_iteration(pop, lo, hi, rngs[lo:hi], rows, v_snapshot, eta, deltas[done:end])
        ids[done:end] = rows.items
        first += (done + rows.start).tolist()
        done = end
    if wrapped:
        pop.write_ledger()
    return [
        ClientUpdate(i, ids[a : a + n], deltas[a : a + n]) for i, a, n in zip(pop.ids.tolist(), first, counts)
    ]


def _chunk_iteration(pop, lo, hi, rngs, rows: UserRows, v_snapshot, eta, deltas) -> None:
    """One chunk of ``population_iteration``: ``rows`` lays out the send
    sets of clients ``lo`` to ``hi``, and their item deltas are written to
    ``deltas``, one row per row of ``rows``.

    Pass 1 loops over the clients and only pulls the rest of each stream
    into preallocated blocks; pass 2 steps all the chunk's pairs at once
    and updates the population's user factors in place.
    """
    hp, n_items, rated = pop.hp, len(v_snapshot), pop.rated
    users = lo + rows.owner  # each row's client, by population position
    _, positive = rated.locate(users, rows.items, n_items)
    h = rated.h[users]
    # a rated item draws among the unrated items, an unrated one among the rated
    high = np.where(positive, n_items - h, h)

    # pass 1: the rest of each client's stream, in its order
    draws = np.empty(len(rows.items), dtype=np.int64)
    noise = np.empty((len(rows.items), 3, hp.k)) if hp.noise_enabled else None
    for rng, a, n in zip(rngs, rows.start.tolist(), rows.h.tolist()):
        draws[a : a + n] = rng.integers(0, high[a : a + n])
        if noise is not None:
            rng.standard_normal(out=noise[a : a + n])

    # pass 2: every pair of the chunk in one step
    partner = np.empty_like(draws)
    partner[positive] = rated.unrated(users[positive], draws[positive], n_items)
    negative = ~positive
    partner[negative] = rated.items[rated.start[users[negative]] + draws[negative]]
    u = pop.u[lo:hi]
    du, d_own = bpr_step(
        u[rows.owner], v_snapshot[rows.items], v_snapshot[partner], positive, eta, hp, noise
    )
    del noise
    sums = rows.per_user(du, lambda block: block.sum(axis=1))
    del du  # freed before the delta write
    deltas[...] = d_own
    moved = rows.h > 0  # a client that sent nothing keeps its factor
    u[moved] += sums[moved] / rows.h[moved, None]


def sd_bpr_client_iteration(state, v_snapshot: np.ndarray, t: int) -> ClientUpdate:
    """One-class client round: ``population_iteration`` of that client alone."""
    return population_iteration([state], v_snapshot, t)[0]
