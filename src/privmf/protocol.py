"""Client and server state machines for the distributed training rounds.

Each round the server broadcasts the item factors, every client locally
updates its user factor from its own ratings, draws a randomized send-set,
and sends a delta row per selected item (real gradients for rated items,
fake-error gradients for unrated ones), one gradient frame per row followed
by a finish frame. A round is one ``codec.RoundUpdates``: every client's
rows in one block, each client's segment of it in client order.

A run's mutable client state is one ``Population`` built from the train
set and from what ``client_init`` decides per client: the user factors,
permanently perturbed bits, response parameters and ledger as arrays, and
the rated-row layout (``sgld.rated_chunks``), fixed for a run, built once.
Rounds take only a ``Population`` and run for all its clients at once: the
numerical round here (``population_iteration``), the one-class round in
``bpr.population_iteration``. Both first draw every client's send set
(``Population.send_sets``), then walk the layout's chunks in two passes:
one that only pulls the rest of each client's draws from its own round
stream, in the order a lone client round draws them (a loop over the
clients, but one array draw for the one-class partners), then array passes
over all the chunk's rows, which update the population's arrays in place.
So every update, user factor and ledger entry equals that client's
round computed alone, in a population of one. The server only ever sees gradient/finish frames: ratings, rated-item bit vectors, and
user factors never leave the client. With ``transport="bytes"`` a round
crosses ``codec.encode_updates`` and ``codec.decode_updates``; in memory
``server_collect`` reduces the round's ``RoundUpdates`` as they are.

The server is stateless: ``run_training`` holds the item factors ``V``
and the round index ``t``. ``server_round`` hands the round a read-only
view of ``V`` and, once all clients have finished, returns the next
factors ``V + (sum of deltas per item) / (total message count)`` as a new
array. The reduction is a commutative monoid, so message arrival order
cannot change the result.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import bpr, fakegrad, randresp
from .codec import Handshake, RoundUpdates, decode_updates, encode_updates
from .data import RatingDataset
from .rng import TAG_CLIENT_INIT, TAG_CLIENT_ROUND, derive_rngs
from .sgld import (
    FactorModel,
    Hyperparams,
    init_model,
    item_pass,
    learning_rate,
    rated_chunks,
    reduce_item_deltas,
    user_pass,
)

logger = logging.getLogger(__name__)


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ClientState:
    """What ``client_init`` decided for one client: its response parameters
    and its permanently perturbed bits."""

    client_id: int
    rr: randresp.RRParams
    bits_prime: np.ndarray


# uniforms per send-set block: bounds the block of clients drawn at once
_SEND_BLOCK = 1 << 13


class Population:
    """A run's mutable client state as arrays: row ``i`` of every array is
    client ``ids[i]``'s, the users of ``train`` with ratings, ascending.

    It is built from ``train``, which it only reads. ``u`` copies the
    clients' rows of ``u0`` and ``h`` counts their ratings. One
    ``client_init`` call per client, in client order, on its
    ``TAG_CLIENT_INIT`` stream from one ``derive_rngs`` pass (only with a
    budget: without one nothing is perturbed), decides its
    set-up for ``z_target`` expected sends per round (by default the train
    set's mean ratings per user): ``bits_prime`` holds the read-only
    ``(m, n_items)`` bool block of permanently perturbed bits, and ``p``,
    ``q``, ``p_star``, ``q_star`` and ``one_minus_q_star`` the response
    parameters. The clients share ``hp`` and ``budget``. The
    simulator-side privacy ledger, in client-rounds and never part of a
    round's updates, starts at zero:

    - ``clamped_rounds``: eps_g out of reach, bound clamped at alpha_max;
    - ``floored_rounds``: no error spread, bound solved at the sigma floor;
    - ``fallback_rounds``: bound without mass, fakes drawn at alpha_max;
    - ``partnerless_rounds``: one-class, every item rated, nothing sent;
    - ``eps_g_worst``: the largest eps_g achieved in any round.

    ``chunks`` lays out the clients' rated rows, read through the train
    CSR, with ``sgld.rated_chunks``: the one layout both rounds read, fixed
    for a run and built here, once. Built inside the first round instead,
    after its temporaries, it raised the peak RSS of an ML-100K-shaped run
    by ~30 MB.
    """

    def __init__(self, train: RatingDataset, u0: np.ndarray, hp: Hyperparams,
                 budget: randresp.PrivacyBudget | None, z_target: float | None = None):
        counts = np.diff(train.indptr)
        self.ids = np.flatnonzero(counts)
        if not len(self.ids):
            raise ProtocolError("no clients with ratings")
        z_target = len(train) / train.n_users if z_target is None else z_target
        self.hp, self.budget, m = hp, budget, len(self.ids)
        self.h = counts[self.ids]
        self.u = u0[self.ids]
        # users without ratings have no rows, so ``order`` holds the clients'
        # rows back to back, each client's in item order
        items, ratings = train.items[train.order], train.ratings[train.order]
        self.bits_prime = np.zeros((m, train.n_items), dtype=bool)
        rr = np.empty((m, 5))
        rngs = [None] * m if budget is None else derive_rngs(self._stream_keys(TAG_CLIENT_INIT))
        starts = (np.cumsum(self.h) - self.h).tolist()
        for i, (client, rng0, a, h) in enumerate(zip(self.ids.tolist(), rngs, starts, self.h.tolist())):
            state = client_init(client, items[a : a + h], train.n_items, budget, z_target, rng0)
            self.bits_prime[i] = state.bits_prime
            rr[i] = state.rr.p, state.rr.q, state.rr.p_star, state.rr.q_star, state.rr.one_minus_q_star
        self.bits_prime.setflags(write=False)
        self.p, self.q, self.p_star, self.q_star, self.one_minus_q_star = rr.T.copy()
        self.clamped_rounds, self.floored_rounds, self.fallback_rounds, self.partnerless_rounds = (
            np.zeros((4, m), dtype=np.int64)
        )
        self.eps_g_worst = np.zeros(m)
        self.chunks = rated_chunks(items, self.h, ratings)

    def __len__(self) -> int:
        return len(self.ids)

    def _stream_keys(self, tag: int, *rest: int) -> np.ndarray:
        """Every client's stream key ``(hp.seed, tag, client id, *rest)``,
        one row each: int64, or Python ints where a part does not fit."""
        head = (self.hp.seed, tag, 0, *rest)
        keys = np.empty((len(self.ids), len(head)), dtype=np.int64 if max(head) < 2**63 else object)
        keys[:] = head
        keys[:, 2] = self.ids
        return keys

    def record(self, bounds: fakegrad.AlphaBounds) -> None:
        """Enter one round's fake-error bounds, one per client, into the ledger."""
        self.clamped_rounds += bounds.clamped
        self.floored_rounds += bounds.floored
        self.fallback_rounds += bounds.fallback
        worst = bounds.eps_g_achieved > self.eps_g_worst
        self.eps_g_worst[worst] = bounds.eps_g_achieved[worst]

    def send_sets(self, t: int) -> tuple[list[np.random.Generator], np.ndarray, list[int]]:
        """Each client's round-``t`` stream, and all the send sets in one
        array with each client's offset into it.

        The round streams are derived in one ``derive_rngs`` call, from one
        key array. A block of clients draws its ``randresp.irr`` uniforms
        ``u`` client by client, and two compares,
        ``(u < q) & (bits_prime | (u < p))``, turn them into send sets. That
        is ``u < where(bits_prime, q, p)`` while ``p <= q``, which every
        client has: ``calibrate`` keeps ``q* >= p*``, so
        ``q - p = (q* - p*) / (1 - f) >= 0``, and no budget sets ``p = 0``,
        ``q = 1``. Blocks hold ~``_SEND_BLOCK`` uniforms, so no round holds a
        float per (client, item).
        """
        if t < 1:
            raise ValueError(f"round index must be >= 1, got {t}")
        m, n_items = self.bits_prime.shape
        per_block = max(1, _SEND_BLOCK // n_items)
        uniforms = np.empty((min(per_block, m), n_items))
        rngs = derive_rngs(self._stream_keys(TAG_CLIENT_ROUND, t))
        sent, counts = [], []
        for lo in range(0, m, per_block):
            hi = min(lo + per_block, m)
            for rng, row in zip(rngs[lo:hi], uniforms):
                rng.random(out=row)
            u = uniforms[: hi - lo]
            hit = u < self.q[lo:hi, None]
            hit &= self.bits_prime[lo:hi] | (u < self.p[lo:hi, None])
            owner, ids = np.divmod(np.flatnonzero(hit), n_items)
            sent.append(ids)
            counts.append(np.bincount(owner, minlength=hi - lo))
        return rngs, np.concatenate(sent), np.cumsum([0, *np.concatenate(counts).tolist()]).tolist()


def client_init(
    client_id: int,
    items: np.ndarray,
    n_items: int,
    budget: randresp.PrivacyBudget | None,
    z_target: float | None,
    rng0: np.random.Generator | None,
) -> ClientState:
    """One-time client setup for the rated ``items``: solve the response
    probabilities and fix the permanently perturbed bit vector, drawn from
    ``rng0``, the client's ``TAG_CLIENT_INIT`` stream. Without a budget the
    send set is the rated set: nothing is perturbed and no stream is read."""
    h = len(items)
    if h < 1:
        raise ValueError(f"client {client_id} has no ratings and cannot participate")
    bits = np.zeros(n_items, dtype=np.uint8)
    bits[items] = 1
    if budget is None:
        rr = randresp.RRParams(f=0.0, p=0.0, q=1.0, p_star=0.0, q_star=1.0, h=h, z=float(h))
        return ClientState(client_id, rr, bits)
    try:
        rr = randresp.calibrate(budget.eps_i, h, n_items, z_target, eps_p=budget.resolved_eps_p())
    except randresp.CalibrationError as exc:
        raise randresp.CalibrationError(f"client {client_id}: {exc}") from exc
    return ClientState(client_id, rr, randresp.prr(bits, rr.f, rng0))


def population_iteration(pop: Population, v_snapshot: np.ndarray, t: int) -> RoundUpdates:
    """One round of the numerical task for a ``Population``: every
    client's update, in client order.

    Each client draws from its own round-``t`` stream, in one order: the
    send set, the user-step noise, the fake-error uniforms, the item-step
    noise. The send sets are drawn first. Then the population's chunks of
    consecutive clients holding ~``sgld._CHUNK_ROWS`` rated rows, which
    bound the temporaries, pull the rest of their streams and take the
    user step; one ``fakegrad.fake_error_rows`` call draws every client's
    fake errors; the chunks take the item step; and the user factors move.
    Every client's update, user factor and ledger entry are those of its
    own round computed alone.
    """
    hp, m, n_items, noise = pop.hp, len(pop), len(v_snapshot), pop.hp.noise_enabled
    eps_g = None if pop.budget is None else pop.budget.eps_g
    eta = learning_rate(t, hp)
    rngs, items, at = pop.send_sets(t)
    # per sent item: whether it is rated, its error (a rated row's own, else
    # a fake), room for a fake-error uniform, and its delta row, the round's
    # block; per client: the user step's results
    rated, e, uniforms = np.empty(at[-1], dtype=bool), np.empty(at[-1]), np.empty(at[-1])
    mu, sigma, n_fake, du = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64), np.empty_like(pop.u)
    deltas = np.empty((at[-1], hp.k))
    fake_at = [0]
    for lo, hi, rows in pop.chunks:
        # clients lo to hi: ``rows`` lays out their rated rows, and
        # items[a:b] holds their send sets back to back
        a, b = at[lo], at[hi]
        owner = np.repeat(np.arange(hi - lo), np.diff(at[lo : hi + 1]))
        row, rated[a:b] = rows.locate(owner, items[a:b], n_items)
        sent_rated = rated[a:b]
        n_fake[lo:hi] = np.bincount(owner[~sent_rated], minlength=hi - lo)
        fake_at = np.cumsum([fake_at[-1], *n_fake[lo:hi].tolist()]).tolist()

        # pass 1: the rest of each client's stream, in its order
        user_noise = np.empty((len(rows.items), hp.k)) if noise else None
        for i, (rng, first, h) in enumerate(zip(rngs[lo:hi], rows.start.tolist(), rows.h.tolist())):
            if noise:
                rng.standard_normal(out=user_noise[first : first + h])
            rng.random(out=uniforms[fake_at[i] : fake_at[i + 1]])
            if noise:
                rng.standard_normal(out=deltas[at[lo + i] : at[lo + i + 1]])

        # pass 2: the user step, once over all the chunk's rows
        errs, du[lo:hi] = user_pass(pop.u[lo:hi], v_snapshot, rows, eta, hp, user_noise)
        del user_noise
        e[a:b][sent_rated] = errs[row[sent_rated]]
        mu[lo:hi], sigma[lo:hi] = rows.moments(errs)
    e[~rated], bounds = fakegrad.fake_error_rows(mu, sigma, eps_g, n_fake, uniforms[: fake_at[-1]])
    pop.record(bounds)
    for lo, hi, rows in pop.chunks:
        a, b = at[lo], at[hi]
        owner = lo + np.repeat(np.arange(hi - lo), np.diff(at[lo : hi + 1]))
        out = item_pass(v_snapshot, e[a:b], pop.u[owner], items[a:b], eta, hp,
                        deltas[a:b] if noise else None)
        if not noise:
            deltas[a:b] = out
    pop.u += du / pop.h[:, None]
    return RoundUpdates(pop.ids, at, items, deltas)


# the name the benchmark's tracer binds the numerical round by
client_iteration = population_iteration


def server_begin_round(v: np.ndarray) -> np.ndarray:
    """The broadcast snapshot of the item factors ``v``: a read-only view,
    not a copy, since no round writes ``v``."""
    snapshot = v.view()
    snapshot.setflags(write=False)
    return snapshot


def server_collect(updates: RoundUpdates, n_clients: int, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """One round's per-item delta sums ``(n_items, k)`` and message counts.

    Raises ProtocolError for a gradient to an item outside ``[0, n_items)``,
    then for updates from fewer than ``n_clients`` distinct clients (an
    aborted round).
    """
    ids = updates.item_ids
    if len(ids) and (ids.min() < 0 or ids.max() >= n_items):
        unknown = (ids < 0) | (ids >= n_items)
        raise ProtocolError(f"gradient for unknown item {ids[np.argmax(unknown)]}")
    finished = len(set(updates.client_ids.tolist()))
    if finished != n_clients:
        raise ProtocolError(f"round aborted: finish received from {finished}/{n_clients} clients")
    return reduce_item_deltas(ids, updates.deltas, n_items)


def server_end_round(v: np.ndarray, sums: np.ndarray, counts: np.ndarray,
                     per_item_average: bool = False) -> np.ndarray:
    """The next item factors: ``v`` plus the delta sums over the round's
    message count or, with ``per_item_average``, over each item's own
    count. A round with no messages returns ``v`` itself."""
    count = int(counts.sum())
    if count == 0:
        return v
    divisor = np.maximum(counts, 1)[:, None] if per_item_average else count
    return v + sums / divisor


def server_round(v: np.ndarray, pop: Population, step_fn, t: int, transport: str = "memory",
                 per_item_average: bool = False) -> tuple[np.ndarray, int]:
    """Run round ``t`` from item factors ``v``, left unchanged: returns the
    next item factors and the number of gradients received.

    ``step_fn(pop, snapshot, t)`` returns the round's ``RoundUpdates``.
    With ``transport="bytes"`` the round crosses the wire format; round 1
    opens with the handshake.
    """
    updates = step_fn(pop, server_begin_round(v), t)
    n_items, k = v.shape
    if transport == "bytes":
        handshake = Handshake(k, n_items) if t == 1 else None
        updates = decode_updates(encode_updates(updates, handshake), k, n_items)
    sums, counts = server_collect(updates, len(pop), n_items)
    return server_end_round(v, sums, counts, per_item_average), int(counts.sum())


@dataclass
class RoundRecord:
    t: int
    metric: float | None
    messages: int
    seconds: float


@dataclass
class TrainingResult:
    model: FactorModel
    curve: list[RoundRecord]

    def final_metric(self) -> float | None:
        return self.curve[-1].metric if self.curve else None


def run_training(
    train: RatingDataset,
    hp: Hyperparams,
    n_rounds: int,
    budget: randresp.PrivacyBudget | None = None,
    z_target: float | None = None,
    task: str = "numerical",
    transport: str = "memory",
    evaluator=None,
    per_item_average: bool = False,
) -> TrainingResult:
    """Drive a full simulated training session.

    ``budget=None`` disables all privacy machinery (send-set = rated set,
    no perturbation, unbounded fake errors), which reproduces the
    centralized trainer bit for bit when SGLD noise is also off.
    ``evaluator`` is called with the assembled FactorModel after each round.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    if task not in ("numerical", "one-class"):
        raise ValueError(f"unknown task {task!r}")
    if transport not in ("memory", "bytes"):
        raise ValueError(f"unknown transport {transport!r}")
    model0 = init_model(train.n_users, train.n_items, hp)
    pop = Population(train, model0.u, hp, budget, z_target)
    if len(pop) < train.n_users:
        logger.warning("excluded %d client(s) with no ratings", train.n_users - len(pop))

    # read from the module per run: the benchmark's tracer patches its attributes
    step_fn = bpr.population_iteration if task == "one-class" else population_iteration

    u0, v = model0.u, model0.v  # v: the server's item factors; a round returns new ones
    del model0  # so the first V does not outlive round 1
    curve: list[RoundRecord] = []
    for t in range(1, n_rounds + 1):
        started = time.perf_counter()
        v, n_grad = server_round(v, pop, step_fn, t, transport, per_item_average)
        metric = None
        if evaluator is not None:
            metric = float(evaluator(assemble_model(u0, pop, v)))
        curve.append(RoundRecord(t, metric, n_grad, time.perf_counter() - started))

    # one WARNING per kind of ledger event the run hit, with its client-round count
    eps_g = None if budget is None else budget.eps_g
    worst = float(pop.eps_g_worst.max())
    for counter, text in (
        ("clamped_rounds", "requested eps_g={eps_g:g} not met in {n} client-round(s): "
         "bound clamped at alpha_max, worst achieved eps_g={worst:g}"),
        ("floored_rounds", "degenerate error spread in {n} client-round(s): "
         "eps_g bound solved at the sigma floor"),
        ("fallback_rounds", "eps_g={eps_g:g} bound held no mass in double precision in {n} "
         "client-round(s): fake errors drawn at alpha_max, a lower achieved eps_g"),
        ("partnerless_rounds", "{n} client-round(s) sent nothing: the client has rated every "
         "item; cannot sample a pair partner"),
    ):
        n = int(getattr(pop, counter).sum())
        if n:
            logger.warning(text.format(n=n, eps_g=eps_g, worst=worst))
    return TrainingResult(assemble_model(u0, pop, v), curve)


def assemble_model(u0: np.ndarray, pop: Population, v: np.ndarray) -> FactorModel:
    """Combine client-held user rows over the initial ``u0`` with the server's item factors ``v``."""
    u = u0.copy()
    u[pop.ids] = pop.u
    return FactorModel(u, v.copy())
