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

import logging
import math

import numpy as np

from . import randresp
from .codec import ClientUpdate
from .rng import TAG_CLIENT_ROUND, derive_rng
from .sgld import Hyperparams, learning_rate

logger = logging.getLogger(__name__)


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
    """Additive deltas (du, dv_pos, dv_neg) for one sampled pair.

    With noise off these descend the pairwise log-loss
    ``-ln sigmoid(x) + 0.5 u' diag(lambda_u) u + 0.5 v' diag(lambda_v) v``
    (both item terms), each step optionally carrying N(0, eta_t I) noise.
    """
    x = bpr_margin(u, v_pos, v_neg)
    s = sigma_bar(x)
    du = -eta_t * (s * (-v_pos + v_neg) + hp.lambda_u * u)
    dpos = -eta_t * (-s * u + hp.lambda_v * v_pos)
    dneg = -eta_t * (s * u + hp.lambda_v * v_neg)
    if hp.noise_enabled:
        scale = np.sqrt(eta_t)
        du = du + scale * rng.standard_normal(hp.k)
        dpos = dpos + scale * rng.standard_normal(hp.k)
        dneg = dneg + scale * rng.standard_normal(hp.k)
    return du, dpos, dneg


def sd_bpr_client_iteration(state, v_snapshot: np.ndarray, t: int) -> ClientUpdate:
    """One-class client round over the randomized send-set.

    A selected rated item pairs with a fresh uniform unrated partner and
    sends its positive-role delta; a selected unrated item pairs with a
    uniform rated partner and sends its negative-role delta. The user
    factor applies the average of all pair deltas once per round. No fake
    errors are needed, so the fake-gradient budget is unused.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    hp = state.hp
    eta = learning_rate(t, hp)
    rng = derive_rng(state.master_seed, TAG_CLIENT_ROUND, state.client_id, t)

    send = randresp.irr(state.bits_prime, state.rr.p, state.rr.q, rng)

    selected = np.flatnonzero(send)
    deltas = np.empty((len(selected), hp.k), dtype=np.float64)
    keep = np.ones(len(selected), dtype=bool)
    du_acc = np.zeros(hp.k, dtype=np.float64)
    for pos, j in enumerate(selected):
        if state.bits[j]:
            if len(state.unrated) == 0:
                logger.warning(
                    "client %d has rated every item; cannot sample a pair partner", state.client_id
                )
                keep[pos] = False
                continue
            partner = state.unrated[rng.integers(len(state.unrated))]
            du, deltas[pos], _ = bpr_step(state.u, v_snapshot[j], v_snapshot[partner], eta, hp, rng)
        else:
            partner = state.items[rng.integers(state.h)]
            du, _, deltas[pos] = bpr_step(state.u, v_snapshot[partner], v_snapshot[j], eta, hp, rng)
        du_acc += du

    pairs = int(keep.sum())
    if pairs:
        state.u += du_acc / pairs
    return ClientUpdate(state.client_id, selected[keep], deltas[keep])
