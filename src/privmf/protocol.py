"""Client and server state machines for the distributed training rounds.

Each round the server broadcasts the item factors, every client locally
updates its user factor from its own ratings, draws a randomized send-set,
and sends a delta row per selected item (real gradients for rated items,
fake-error gradients for unrated ones), one gradient frame per row followed
by a finish frame. A round is one ``codec.RoundUpdates``: every client's
rows in one block, each client's segment of it in client order.

``client_init`` decides each client's set-up once, as a frozen
``ClientState``. The simulator keeps a run's mutable client state in one
``Population`` built from those records: the user factors, permanently
perturbed bits, response parameters and ledger as arrays, and the
rated-row layouts, which are fixed for a run, built once. Rounds take
only a ``Population`` and run for all its clients at once: the numerical
round here (``population_iteration``), the one-class round in
``bpr.population_iteration``. Both first draw every client's send set
(``_draw_send_sets``), then go chunk by chunk in two passes: a loop over
the clients that only pulls the rest of each client's draws from its own
round stream, in the order a lone client round draws them, then array
passes over all the chunk's rows, which update the population's arrays in
place (the numerical round draws every client's fake errors in one call
between its user and item steps). The streams stay per client and
unchanged, so every update, user factor and ledger entry equals that
client's round computed alone (``client_iteration``, a population of one
built from the client's ``ClientState``, which it leaves unchanged). The
server only ever sees gradient/finish frames: ratings, rated-item bit
vectors, and user factors never leave the client. With
``transport="bytes"`` a round crosses ``codec.encode_updates`` and
``codec.decode_updates``; in memory ``server_collect`` reduces the
population step's ``RoundUpdates`` as it is.

The server applies ``V <- V + (sum of deltas per item) / (total message
count)`` once all clients have finished, so the reduction is a commutative
monoid and message arrival order cannot change the result.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import fakegrad, randresp
from .codec import Handshake, RoundUpdates, decode_updates, encode_updates
from .data import RatingDataset
from .rng import TAG_CLIENT_INIT, TAG_CLIENT_ROUND, derive_rng, derive_rngs
from .sgld import (
    FactorModel,
    Hyperparams,
    UserRows,
    init_model,
    item_pass,
    learning_rate,
    reduce_item_deltas,
    row_chunks,
    user_pass,
)

logger = logging.getLogger(__name__)


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ClientState:
    """What ``client_init`` decided for one client. A round never changes it:
    the run's user factors and ledger live in its ``Population``."""

    client_id: int
    u: np.ndarray  # the initial user factor
    items: np.ndarray  # rated item ids, ascending
    ratings: np.ndarray
    bits_prime: np.ndarray
    rr: randresp.RRParams
    budget: randresp.PrivacyBudget | None
    hp: Hyperparams
    master_seed: int

    @property
    def h(self) -> int:
        return len(self.items)

    @property
    def bits(self) -> np.ndarray:
        """1 exactly at the rated items, 0 elsewhere (derived on each access)."""
        bits = np.zeros(len(self.bits_prime), dtype=np.uint8)
        bits[self.items] = 1
        return bits


class Population:
    """A run's mutable client state as arrays: row ``i`` of every array is
    client ``ids[i]``'s.

    It is built from the clients' ``ClientState``s, which it copies and
    never changes. The clients share ``hp``, ``budget`` and
    ``master_seed``. ``u`` holds the user factors ``(m, k)`` and
    ``bits_prime`` the read-only ``(m, n_items)`` bool block of permanently
    perturbed bits. ``p``, ``q``, ``p_star``, ``q_star`` and
    ``one_minus_q_star`` hold the response parameters, and ``h`` the rated
    counts. The simulator-side privacy ledger, in client-rounds and never
    part of a round's updates, starts at zero:

    - ``clamped_rounds``: eps_g out of reach, bound clamped at alpha_max;
    - ``floored_rounds``: no error spread, bound solved at the sigma floor;
    - ``fallback_rounds``: bound without mass, fakes drawn at alpha_max;
    - ``partnerless_rounds``: one-class, every item rated, nothing sent;
    - ``eps_g_worst``: the largest eps_g achieved in any round.

    The rated-row layouts are fixed for a run, so the ``task``'s are built
    here, once, and read-only: ``chunks`` for ``"numerical"``, ``rated``
    for ``"one-class"``. Built inside the first round instead, after its
    temporaries, they raised the peak RSS of an ML-100K-shaped run by
    ~30 MB.
    """

    def __init__(self, clients: list[ClientState], task: str | None = None):
        if not clients:
            raise ValueError("a population needs at least one client")
        first, m = clients[0], len(clients)
        self.hp, self.budget, self.master_seed = first.hp, first.budget, first.master_seed
        self.ids = np.array([c.client_id for c in clients], dtype=np.int64)
        self.h = np.array([c.h for c in clients], dtype=np.int64)
        self.u = np.stack([c.u for c in clients])
        self.bits_prime = np.stack([c.bits_prime for c in clients], dtype=bool, casting="unsafe")
        self.bits_prime.setflags(write=False)
        rr = np.array([(c.rr.p, c.rr.q, c.rr.p_star, c.rr.q_star, c.rr.one_minus_q_star) for c in clients])
        self.p, self.q, self.p_star, self.q_star, self.one_minus_q_star = rr.T.copy()
        self.clamped_rounds, self.floored_rounds, self.fallback_rounds, self.partnerless_rounds = (
            np.zeros((4, m), dtype=np.int64)
        )
        self.eps_g_worst = np.zeros(m)
        if task == "numerical":
            # per chunk of consecutive clients holding ~sgld._CHUNK_ROWS rated
            # rows, (lo, hi, the layout of their rated rows with ratings)
            self.chunks = []
            for lo, hi in row_chunks(self.h.tolist()):
                part = clients[lo:hi]
                rows = UserRows(np.concatenate([c.items for c in part]), self.h[lo:hi],
                                np.concatenate([c.ratings for c in part]))
                self.chunks.append((lo, hi, rows.freeze()))
        elif task == "one-class":
            # every client's rated items, user i being client i
            self.rated = UserRows(np.concatenate([c.items for c in clients]), self.h).freeze()

    def __len__(self) -> int:
        return len(self.ids)

    def record(self, bounds: fakegrad.AlphaBounds) -> None:
        """Enter one round's fake-error bounds, one per client, into the ledger."""
        self.clamped_rounds += bounds.clamped
        self.floored_rounds += bounds.floored
        self.fallback_rounds += bounds.fallback
        worst = bounds.eps_g_achieved > self.eps_g_worst
        self.eps_g_worst[worst] = bounds.eps_g_achieved[worst]


@dataclass
class ServerState:
    v: np.ndarray
    n_items: int
    k: int
    t: int = 1
    accumulator: np.ndarray | None = None
    # off by default: divide each item's delta sum by that item's own
    # message count instead of the round's global count
    per_item_average: bool = False
    item_counts: np.ndarray | None = None


def client_init(
    client_id: int,
    items: np.ndarray,
    ratings: np.ndarray,
    u0: np.ndarray,
    n_items: int,
    hp: Hyperparams,
    budget: randresp.PrivacyBudget | None,
    z_target: float | None,
    master_seed: int,
    rng0: np.random.Generator | None = None,
) -> ClientState:
    """One-time client setup: solve the response probabilities and fix the
    permanently perturbed bit vector. Deterministic per (master seed, id):
    the perturbation draws from ``rng0``, the client's ``TAG_CLIENT_INIT``
    stream. Population builders hand it in from ``client_init_rngs``; the
    default derives it here, for callers that set up a single client."""
    h = len(items)
    if h < 1:
        raise ValueError(f"client {client_id} has no ratings and cannot participate")
    bits = np.zeros(n_items, dtype=np.uint8)
    bits[items] = 1

    if budget is None:
        # privacy disabled: the send set is the rated set, nothing perturbed
        rr = randresp.RRParams(f=0.0, p=0.0, q=1.0, p_star=0.0, q_star=1.0, h=h, z=float(h))
        bits_prime = bits.copy()
    else:
        if z_target is None:
            raise ValueError("z_target is required when privacy is enabled")
        try:
            rr = randresp.calibrate(
                budget.eps_i, h, n_items, z_target, eps_p=budget.resolved_eps_p()
            )
        except randresp.CalibrationError as exc:
            raise randresp.CalibrationError(f"client {client_id}: {exc}") from exc
        if rng0 is None:
            rng0 = derive_rng(master_seed, TAG_CLIENT_INIT, client_id)
        bits_prime = randresp.prr(bits, rr.f, rng0)

    return ClientState(
        client_id=client_id,
        u=np.array(u0, dtype=np.float64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        bits_prime=bits_prime,
        rr=rr,
        budget=budget,
        hp=hp,
        master_seed=master_seed,
    )


def client_init_rngs(master_seed: int, client_ids: list[int]) -> list[np.random.Generator]:
    """The clients' ``TAG_CLIENT_INIT`` streams from one ``derive_rngs`` pass."""
    return derive_rngs([(master_seed, TAG_CLIENT_INIT, i) for i in client_ids])


# uniforms per send-set block: bounds the block of clients drawn at once
_SEND_BLOCK = 1 << 13


def _draw_send_sets(pop: Population, t: int):
    """Each client's round stream, and all the send sets in one array with
    each client's offset into it.

    All the round streams are derived in one ``derive_rngs`` call. A block
    of clients draws its ``randresp.irr`` uniforms client by client into one
    ``(clients, n_items)`` block, which one comparison against its
    thresholds, ``q`` at the block's rows of ``bits_prime`` and ``p``
    elsewhere, turns into send sets. Blocks hold ~``_SEND_BLOCK`` uniforms,
    so no round holds a float per (client, item).
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    m, n_items = pop.bits_prime.shape
    per_block = max(1, _SEND_BLOCK // n_items)
    uniforms = np.empty((min(per_block, m), n_items))
    probs = np.empty_like(uniforms)
    rngs = derive_rngs([(pop.master_seed, TAG_CLIENT_ROUND, i, t) for i in pop.ids.tolist()])
    sent, counts = [], []
    for lo in range(0, m, per_block):
        hi = min(lo + per_block, m)
        for rng, row in zip(rngs[lo:hi], uniforms):
            rng.random(out=row)
        n = hi - lo
        np.copyto(probs[:n], pop.p[lo:hi, None])
        np.copyto(probs[:n], pop.q[lo:hi, None], where=pop.bits_prime[lo:hi])
        owner, ids = np.divmod(np.flatnonzero(uniforms[:n] < probs[:n]), n_items)
        sent.append(ids)
        counts.append(np.bincount(owner, minlength=n))
    return rngs, np.concatenate(sent), np.cumsum([0, *np.concatenate(counts).tolist()]).tolist()


def population_iteration(pop: Population, v_snapshot: np.ndarray, t: int) -> RoundUpdates:
    """One round of the numerical task for a ``Population`` built for it:
    every client's update, in client order.

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
    hp, m = pop.hp, len(pop)
    eps_g = None if pop.budget is None else pop.budget.eps_g
    eta = learning_rate(t, hp)
    rngs, items, at = _draw_send_sets(pop, t)
    # per sent item: whether it is rated, its error (a rated row's own, else
    # a fake), room for a fake-error uniform, and its delta row, the round's
    # block; per client: the user step's results
    rated, e, uniforms = np.empty(at[-1], dtype=bool), np.empty(at[-1]), np.empty(at[-1])
    mu, sigma, n_fake, du = np.empty(m), np.empty(m), np.empty(m, dtype=np.int64), np.empty_like(pop.u)
    deltas = np.empty((at[-1], hp.k))
    n_drawn = 0
    for lo, hi, rows in pop.chunks:
        a, b = at[lo], at[hi]
        n_drawn += _chunk_user_step(
            pop, lo, hi, rows, rngs[lo:hi], items[a:b], np.diff(at[lo : hi + 1]), v_snapshot, eta,
            rated[a:b], e[a:b], uniforms[n_drawn:], deltas[a:b], mu, sigma, n_fake, du,
        )
    e[~rated], bounds = fakegrad.fake_error_rows(mu, sigma, eps_g, n_fake, uniforms[:n_drawn])
    pop.record(bounds)
    for lo, hi, rows in pop.chunks:
        a, b = at[lo], at[hi]
        owner = lo + np.repeat(np.arange(hi - lo), np.diff(at[lo : hi + 1]))
        out = item_pass(v_snapshot, e[a:b], pop.u[owner], items[a:b], eta, hp,
                        deltas[a:b] if hp.noise_enabled else None)
        if not hp.noise_enabled:
            deltas[a:b] = out
    pop.u += du / pop.h[:, None]
    return RoundUpdates(pop.ids, at, items, deltas)


def _chunk_user_step(pop, lo, hi, rows, rngs, items, counts, v_snapshot, eta,
                     rated, e, uniforms, deltas, mu, sigma, n_fake, du) -> int:
    """Clients ``lo`` to ``hi`` of ``population_iteration`` up to their fake
    errors; returns how many fake-error uniforms they drew.

    ``rows`` lays out their rated rows, and ``items`` holds their send sets
    back to back, ``counts[i]`` ids each. Pass 1 loops over the clients and
    only pulls the rest of each stream: the user-step noise, the fake-error
    uniforms to the front of ``uniforms``, the item-step noise to
    ``deltas``, one row per id. Pass 2 takes the user step over all the
    chunk's rated rows at once: each id's ``rated`` flag and, if rated, its
    error in ``e``, and each client's error mean and spread, fake count and
    summed user deltas at its rows of ``mu``, ``sigma``, ``n_fake`` and ``du``.
    """
    hp, noise = pop.hp, pop.hp.noise_enabled
    owner = np.repeat(np.arange(hi - lo), counts)
    row, rated[...] = rows.locate(owner, items, len(v_snapshot))
    n_fake[lo:hi] = np.bincount(owner[~rated], minlength=hi - lo)
    sent_at = np.cumsum([0, *counts.tolist()]).tolist()
    fake_at = np.cumsum([0, *n_fake[lo:hi].tolist()]).tolist()

    # pass 1: the rest of each client's stream, in its order
    user_noise = np.empty((len(rows.items), hp.k)) if noise else None
    for i, (rng, first, h) in enumerate(zip(rngs, rows.start.tolist(), rows.h.tolist())):
        if noise:
            rng.standard_normal(out=user_noise[first : first + h])
        rng.random(out=uniforms[fake_at[i] : fake_at[i + 1]])
        if noise:
            rng.standard_normal(out=deltas[sent_at[i] : sent_at[i + 1]])

    # pass 2: the user step, once over all the chunk's rows
    errs, du[lo:hi] = user_pass(pop.u[lo:hi], v_snapshot, rows, eta, hp, user_noise)
    e[rated] = errs[row[rated]]
    mu[lo:hi] = rows.per_user(errs, lambda block: block.mean(axis=1))
    sigma[lo:hi] = rows.per_user(errs, lambda block: block.std(axis=1))
    return fake_at[-1]


def client_iteration(state: ClientState, v_snapshot: np.ndarray, t: int) -> RoundUpdates:
    """One client round from ``state``: ``population_iteration`` of that
    client alone, which lists the sent items in ascending id order.
    ``state`` is left unchanged."""
    return population_iteration(Population([state], "numerical"), v_snapshot, t)


def server_begin_round(server: ServerState) -> np.ndarray:
    """Broadcast snapshot of the item factors."""
    snapshot = server.v.copy()
    snapshot.setflags(write=False)
    return snapshot


def server_collect(server: ServerState, updates: RoundUpdates, n_clients: int) -> int:
    """Reduce one round's updates into the accumulator and item counts.

    Returns the number of gradients received. Raises ProtocolError for a
    gradient to an item outside ``[0, n_items)``, or when updates from
    fewer than ``n_clients`` distinct clients arrived (aborted round).
    """
    ids = updates.item_ids
    if len(ids) and (ids.min() < 0 or ids.max() >= server.n_items):
        unknown = (ids < 0) | (ids >= server.n_items)
        raise ProtocolError(f"gradient for unknown item {ids[np.argmax(unknown)]}")
    finished = len(set(updates.client_ids.tolist()))
    if finished != n_clients:
        raise ProtocolError(f"round aborted: finish received from {finished}/{n_clients} clients")
    server.accumulator, server.item_counts = reduce_item_deltas(ids, updates.deltas, server.n_items)
    return int(server.item_counts.sum())


def server_end_round(server: ServerState) -> None:
    """Apply the averaged item deltas; a round with no messages is a no-op."""
    count = int(server.item_counts.sum())
    if count > 0:
        if server.per_item_average:
            divisor = np.maximum(server.item_counts, 1)[:, None]
            server.v += server.accumulator / divisor
        else:
            server.v += server.accumulator / count
    server.accumulator = None
    server.item_counts = None
    server.t += 1


def server_round(server: ServerState, pop: Population, step_fn, transport: str = "memory") -> int:
    """Run one synchronous round over all clients; returns messages received.

    ``step_fn(pop, snapshot, t)`` returns the round's ``RoundUpdates``.
    With ``transport="bytes"`` the round crosses the wire format; the
    session's first round opens with the handshake.
    """
    updates = step_fn(pop, server_begin_round(server), server.t)
    if transport == "bytes":
        handshake = Handshake(server.k, server.n_items) if server.t == 1 else None
        updates = decode_updates(encode_updates(updates, handshake), server.k, server.n_items)
    n_grad = server_collect(server, updates, n_clients=len(pop))
    server_end_round(server)
    return n_grad


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
    if budget is not None and z_target is None:
        z_target = len(train) / train.n_users

    model0 = init_model(train.n_users, train.n_items, hp)
    active = train.active_users()
    clients = [
        client_init(i, *train.user_items(i), model0.u[i], train.n_items, hp, budget, z_target, hp.seed, rng0)
        for i, rng0 in zip(active, client_init_rngs(hp.seed, active))
    ]
    if len(clients) < train.n_users:
        logger.warning("excluded %d client(s) with no ratings", train.n_users - len(clients))
    if not clients:
        raise ProtocolError("no clients with ratings")
    pop = Population(clients, task)
    del clients  # the population holds the run's client state from here on

    if task == "one-class":
        from . import bpr

        step_fn = bpr.population_iteration
    else:
        step_fn = population_iteration

    # the server's item factors start as model0's own: only model0.u is read again
    server = ServerState(v=model0.v, n_items=train.n_items, k=hp.k, per_item_average=per_item_average)

    curve: list[RoundRecord] = []
    for _ in range(n_rounds):
        started = time.perf_counter()
        t = server.t
        n_grad = server_round(server, pop, step_fn, transport)
        metric = None
        if evaluator is not None:
            metric = float(evaluator(assemble_model(model0, pop, server)))
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
    return TrainingResult(assemble_model(model0, pop, server), curve)


def assemble_model(model0: FactorModel, pop: Population, server: ServerState) -> FactorModel:
    """Combine client-held user rows with the server's item factors."""
    u = model0.u.copy()
    u[pop.ids] = pop.u
    return FactorModel(u, server.v.copy())
