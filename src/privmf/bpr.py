"""Pairwise-ranking factorization for one-class feedback.

Instead of squared rating errors, updates come from the margin
``x = u.v_pos - u.v_neg`` between a rated and an unrated item, pushing the
rated one above. The distributed variant reuses the randomized send-set:
each selected item transmits exactly one delta in the role its true
ratedness dictates, with the pair partner drawn locally and never sent, so
the transmitted item set (the existence surface) is identical to the
numerical task's.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import ClientUpdate
from .protocol import draw_send_set
from .sgld import Hyperparams, learning_rate


def sigma_bar(x: float) -> float:
    """exp(-x) / (1 + exp(-x)), evaluated on the non-overflowing branch."""
    if x >= 0:
        ex = math.exp(-x)
        return ex / (1.0 + ex)
    return 1.0 / (1.0 + math.exp(x))


def bpr_margin(u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray) -> float:
    """Predicted-score distance between the rated and the unrated item."""
    if not (u.shape == v_pos.shape == v_neg.shape):
        raise ValueError("dimension mismatch between factors")
    return float(np.dot(u, v_pos) - np.dot(u, v_neg))


def bpr_errors(x: float) -> tuple[float, float]:
    """Pairwise error pair (-sigma_bar(x), sigma_bar(x)); sums to zero."""
    s = sigma_bar(x)
    return -s, s


def bpr_step(
    u: np.ndarray,
    v_pos: np.ndarray,
    v_neg: np.ndarray,
    eta_t: float,
    hp: Hyperparams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Additive deltas (du, dv_pos, dv_neg) for one sampled pair; with
    ``(n, k)`` blocks of positive and negative item rows, ``(n, k)`` blocks
    of deltas, one row per pair.

    With noise off these descend the pairwise log-loss
    ``-ln sigmoid(x) + 0.5 u' diag(lambda_u) u + 0.5 v' diag(lambda_v) v``
    (both item terms), each step optionally carrying N(0, eta_t I) noise.
    """
    if v_pos.ndim == 1:
        s = sigma_bar(bpr_margin(u, v_pos, v_neg))
    else:
        if not (v_pos.shape == v_neg.shape and v_pos.shape[1:] == u.shape):
            raise ValueError("dimension mismatch between factors")
        # np.vecdot takes one BLAS dot per row, so margins round as in
        # bpr_margin; np.exp would not round as math.exp does
        x = np.vecdot(v_pos, u) - np.vecdot(v_neg, u)
        s = np.array([sigma_bar(xi) for xi in x.tolist()])[:, None]
    du = -eta_t * (s * (-v_pos + v_neg) + hp.lambda_u * u)
    dpos = -eta_t * (-s * u + hp.lambda_v * v_pos)
    dneg = -eta_t * (s * u + hp.lambda_v * v_neg)
    if hp.noise_enabled:
        # per pair: du, dpos, dneg noise, so a block draws as n pair calls do
        noise = np.sqrt(eta_t) * rng.standard_normal(v_pos.shape[:-1] + (3, hp.k))
        du = du + noise[..., 0, :]
        dpos = dpos + noise[..., 1, :]
        dneg = dneg + noise[..., 2, :]
    return du, dpos, dneg


def sd_bpr_client_iteration(state, v_snapshot: np.ndarray, t: int) -> ClientUpdate:
    """One-class client round over the randomized send-set.

    A selected rated item pairs with a fresh uniform unrated partner and
    sends its positive-role delta; a selected unrated item pairs with a
    uniform rated partner and sends its negative-role delta. All partners
    are drawn first, then every pair steps as one block. The user factor
    applies the average of all pair deltas once per round. No fake errors
    are needed, so the fake-gradient budget is unused. A client that has
    rated every item has no unrated partner: it sends nothing, and the
    round is counted in its ``partnerless_rounds``.
    """
    rng, selected = draw_send_set(state, t)
    hp = state.hp
    eta = learning_rate(t, hp)
    if len(state.unrated) == 0 and len(selected):
        state.partnerless_rounds += 1
        return ClientUpdate(state.client_id, selected[:0], np.empty((0, hp.k)))
    rated = state.bits[selected].astype(bool)
    # one draw per pair, in send-set order: the stream of per-pair scalar draws
    draws = rng.integers(0, np.where(rated, len(state.unrated), state.h))
    partner = np.empty_like(selected)
    partner[rated] = state.unrated[draws[rated]]
    partner[~rated] = state.items[draws[~rated]]
    own, other = v_snapshot[selected], v_snapshot[partner]
    role = rated[:, None]
    du, dpos, dneg = bpr_step(
        state.u, np.where(role, own, other), np.where(role, other, own), eta, hp, rng
    )
    if len(selected):
        state.u += du.sum(axis=0) / len(selected)
    return ClientUpdate(state.client_id, selected, np.where(role, dpos, dneg))
