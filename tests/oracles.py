"""Reference definitions that only the tests use: scalar oracles the array
code is checked against, one-client helpers, and the conversions between a
``RoundUpdates`` and its per-client segments."""

from __future__ import annotations

import numpy as np

from privmf import fakegrad
from privmf.bpr import sigma_bar
from privmf.codec import Message, RoundUpdates, _decode_at
from privmf.data import DataError, RatingDataset, RatingTriple, _first_fault
from privmf.protocol import Population
from privmf.randresp import irr
from privmf.rng import TAG_CLIENT_ROUND, derive_rng


def predict(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def rating_error(r: float, u: np.ndarray, v: np.ndarray) -> float:
    return r - predict(u, v)


def alpha_max_of(mu: float, sigma: float) -> float:
    """Largest searched bound: covers at least 95% of N(mu, sigma)."""
    return max(abs(mu + 2.0 * sigma), abs(mu - 2.0 * sigma))


def fake_errors(errors, eps_g: float | None, n: int, rng: np.random.Generator):
    """n fake errors from a round's rated ``errors``, and the ``AlphaBound``
    drawn at: ``fake_error_rows`` for one client, from one ``rng.random(n)``."""
    stats = fakegrad.error_stats(errors)
    fakes, bounds = fakegrad.fake_error_rows([stats.mu], [stats.sigma], eps_g, [n], rng.random(n))
    return fakes, bounds.lane(0)


def effective_probs(f: float, p: float, q: float) -> tuple[float, float]:
    """Composite (p*, q*) of the permanent stage followed by one send draw."""
    for name, v in (("f", f), ("p", p), ("q", q)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name}={v} is not a probability")
    p_star = 0.5 * f * q + (1.0 - 0.5 * f) * p
    q_star = (1.0 - 0.5 * f) * q + 0.5 * f * p
    return p_star, q_star


def average_attack(samples: np.ndarray) -> np.ndarray:
    """Adversarial estimator: per-item mean of observed send-sets.

    ``samples`` is a (rounds, n_items) 0/1 array of one client's send-sets.
    The long-run mean converges to q* for rated items and p* for unrated
    ones; with f = 0 that separates the true rated set, with f > 0 it can
    at most recover the permanently perturbed vector.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError("expected a non-empty (rounds, n_items) array")
    return samples.mean(axis=0)


class OracleClient:
    """A client as the per-client round oracles keep it: its rated rows and
    bits, its own mutable user factor and ledger, which the oracles update,
    and ``pop``, the population of one built from a one-client slice of
    ``ds`` that keeps the client's id, so it draws from the client's own
    streams. What set-up decided (``bits_prime``, ``p``, ``q``) is read
    from that population."""

    def __init__(self, ds: RatingDataset, client_id: int, u0: np.ndarray, hp, budget, z_target: float):
        self.pop = Population(ds._rows(ds.users == client_id), u0, hp, budget, z_target)
        self.client_id, self.hp, self.budget = client_id, hp, budget
        self.items, self.ratings = ds.user_items(client_id)
        self.h = len(self.items)
        self.bits = np.zeros(ds.n_items, dtype=np.uint8)
        self.bits[self.items] = 1
        self.bits_prime, self.p, self.q = self.pop.bits_prime[0], float(self.pop.p[0]), float(self.pop.q[0])
        self.u = u0[client_id].copy()
        self.clamped_rounds = self.floored_rounds = self.fallback_rounds = self.partnerless_rounds = 0
        self.eps_g_worst = 0.0


def list_layout(items: list[np.ndarray], ratings: list[np.ndarray] | None = None) -> dict:
    """The arrays of ``sgld.UserRows`` built from per-user lists, as the
    layout was built before it took one flat array and counts."""
    h = np.fromiter(map(len, items), np.int64, len(items))
    order = np.argsort(h, kind="stable")
    counts = h[order]
    ends = np.cumsum(counts)
    start = np.empty_like(h)
    start[order] = ends - counts
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edges = np.flatnonzero(np.r_[True, np.diff(counts) != 0, True]).tolist()
    return {
        "h": h,
        "items": np.concatenate([items[i] for i in order]),
        "ratings": None if ratings is None else np.concatenate([ratings[i] for i in order]),
        "owner": np.repeat(order, counts),
        "start": start,
        "_rank": rank,
        "groups": [(order[a:b], int(ends[a] - counts[a]), int(counts[a])) for a, b in zip(edges, edges[1:])],
    }


def draw_send_set(client: OracleClient, t: int) -> tuple[np.random.Generator, np.ndarray]:
    """The client's round-``t`` stream and the ids it sends, ascending: the
    reference for ``Population.send_sets``, one ``randresp.irr`` draw.

    The send set is the stream's first draw, so every client round and the
    ``privmf attack`` redraw see the same sets.
    """
    rng = derive_rng(client.hp.seed, TAG_CLIENT_ROUND, client.client_id, t)
    return rng, np.flatnonzero(irr(client.bits_prime, client.p, client.q, rng))


def record(state: OracleClient, bound: fakegrad.AlphaBound) -> None:
    """Enter one round's fake-error bound into an oracle client's ledger."""
    state.clamped_rounds += bound.clamped
    state.floored_rounds += bound.floored
    state.fallback_rounds += bound.fallback
    state.eps_g_worst = max(state.eps_g_worst, bound.eps_g_achieved)


def bpr_margin(u: np.ndarray, v_pos: np.ndarray, v_neg: np.ndarray) -> float:
    """Predicted-score distance between the rated and the unrated item."""
    if not (u.shape == v_pos.shape == v_neg.shape):
        raise ValueError("dimension mismatch between factors")
    return float(np.dot(u, v_pos) - np.dot(u, v_neg))


def bpr_errors(x: float) -> tuple[float, float]:
    """Pairwise error pair (-sigma_bar(x), sigma_bar(x)); sums to zero."""
    s = float(sigma_bar(x))
    return -s, s


def auc_per_pair(test: RatingDataset, train: RatingDataset, model) -> float:
    """``metrics.auc`` one held-out rating at a time: each test user's scores
    are its own matvec ``v @ u``, and each pair's negatives one mask."""
    ratios = []
    for user, pairs in sorted(test.per_user.items()):
        known = [item for item, _ in train.per_user.get(user, [])]
        scores = model.v @ model.u[user]
        for pos_item, _ in pairs:
            mask = np.ones(test.n_items, dtype=bool)
            mask[known] = False
            mask[pos_item] = False
            neg, pos = scores[mask], scores[pos_item]
            if neg.size:
                ratios.append((np.sum(neg < pos) + 0.5 * np.sum(neg == pos)) / neg.size)
    return float(np.mean(ratios))


def decode_message(data: bytes, expect_k: int | None = None) -> tuple[Message, int]:
    """Decode one frame from the head of ``data``; returns (message, bytes consumed)."""
    return _decode_at(data, 0, expect_k)


def build_dataset(
    triples: list[RatingTriple],
    n_users: int,
    n_items: int,
    score_range: tuple[float, float] = (1.0, 5.0),
    user_ids: list[int] | None = None,
    item_ids: list[int] | None = None,
) -> RatingDataset:
    """Assemble a dataset and enforce its invariants.

    The first triple with an id outside the universe, a rating outside
    ``score_range`` or an already seen (user, item) pair raises DataError.
    """
    n = len(triples)
    users = np.fromiter((t.user_id for t in triples), dtype=np.int64, count=n)
    items = np.fromiter((t.item_id for t in triples), dtype=np.int64, count=n)
    ratings = np.fromiter((t.rating for t in triples), dtype=np.float64, count=n)
    bad_id = (users < 0) | (users >= n_users) | (items < 0) | (items >= n_items)
    fault = _first_fault(bad_id, users, items, ratings, n_items, score_range)
    if fault is not None:
        t = triples[fault[0]]
        raise DataError((
            f"id out of range in triple {t}",
            f"rating {t.rating} outside declared range {score_range}",
            f"duplicate (user, item) pair {(t.user_id, t.item_id)}",
        )[fault[1]])
    return RatingDataset(
        n_users, n_items, users, items, ratings, score_range,
        list(range(n_users) if user_ids is None else user_ids),
        list(range(n_items) if item_ids is None else item_ids),
    )


def round_of(segments, k: int) -> RoundUpdates:
    """A round from ``(client_id, item_ids, deltas)`` segments, in order."""
    segments = list(segments)
    counts = [len(ids) for _, ids, _ in segments]
    ids = np.concatenate([np.empty(0, np.int64), *(np.asarray(ids, np.int64) for _, ids, _ in segments)])
    deltas = np.concatenate(
        [np.empty((0, k)), *(np.reshape(rows, (n, k)) for (_, _, rows), n in zip(segments, counts))]
    )
    return RoundUpdates([c for c, _, _ in segments], np.cumsum([0, *counts]), ids, deltas)


def segments(updates: RoundUpdates) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """A round's ``(client_id, item_ids, deltas)`` segments, in order."""
    bounds = updates.offsets.tolist()
    return [
        (client, updates.item_ids[a:b], updates.deltas[a:b])
        for client, a, b in zip(updates.client_ids.tolist(), bounds, bounds[1:])
    ]
