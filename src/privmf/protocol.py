"""Client and server state machines for the distributed training rounds.

Each round the server broadcasts the item factors, every client locally
updates its user factor from its own ratings, draws a randomized send-set,
and returns one ``ClientUpdate``: a delta row per selected item (real
gradients for rated items, fake-error gradients for unrated ones), sent as
one gradient frame per row followed by a finish frame.

The simulator runs each round for the whole population at once: the
numerical round here (``population_iteration``), the one-class round in
``bpr.population_iteration``. Both first draw every client's send set
(``_draw_send_sets``), then go chunk by chunk in two passes: a loop over
the clients that only pulls the rest of each client's draws from its own
round stream, in the order a lone client round draws them, then one array
pass over all the chunk's rows. The streams stay per client and unchanged,
so every update and user factor equals that client's round computed alone
(``client_iteration``, the population of one). The server only ever
sees gradient/finish frames: ratings, rated-item bit vectors, and user
factors never leave the client. With ``transport="bytes"`` each round's
updates go through ``codec.encode_updates`` and ``codec.decode_updates``;
in memory they go straight to ``server_collect``.

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
from .codec import ClientUpdate, Handshake, decode_updates, encode_updates
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


# Randomized-response parameters for a run with privacy disabled: the send
# set equals the true rated set and nothing is perturbed.
def _disabled_rr(h: int) -> randresp.RRParams:
    return randresp.RRParams(f=0.0, p=0.0, q=1.0, p_star=0.0, q_star=1.0, h=h, z=float(h))


@dataclass
class ClientState:
    client_id: int
    u: np.ndarray
    items: np.ndarray  # rated item ids, ascending
    ratings: np.ndarray
    bits: np.ndarray  # 1 exactly at rated items
    bits_prime: np.ndarray  # fixed after init
    rr: randresp.RRParams
    budget: randresp.PrivacyBudget | None
    hp: Hyperparams
    master_seed: int
    # simulator-side privacy ledger, in client-rounds; never part of a ClientUpdate
    clamped_rounds: int = 0  # eps_g out of reach: bound clamped at alpha_max
    floored_rounds: int = 0  # no error spread: bound solved at the sigma floor
    fallback_rounds: int = 0  # bound without mass: fakes drawn at alpha_max
    partnerless_rounds: int = 0  # one-class: every item rated, nothing sent
    eps_g_worst: float = 0.0  # largest eps_g achieved in any round

    @property
    def h(self) -> int:
        return len(self.items)

    def record(self, bound: fakegrad.AlphaBound) -> None:
        """Enter one round's fake-error bound into the ledger."""
        self.clamped_rounds += bound.clamped
        self.floored_rounds += bound.floored
        self.fallback_rounds += bound.fallback
        self.eps_g_worst = max(self.eps_g_worst, bound.eps_g_achieved)


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
) -> ClientState:
    """One-time client setup: solve the response probabilities and fix the
    permanently perturbed bit vector. Deterministic per (master seed, id)."""
    h = len(items)
    if h < 1:
        raise ValueError(f"client {client_id} has no ratings and cannot participate")
    bits = np.zeros(n_items, dtype=np.uint8)
    bits[items] = 1

    if budget is None:
        rr = _disabled_rr(h)
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
        rng0 = derive_rng(master_seed, TAG_CLIENT_INIT, client_id)
        bits_prime = randresp.prr(bits, rr.f, rng0)

    return ClientState(
        client_id=client_id,
        u=np.array(u0, dtype=np.float64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
        bits=bits,
        bits_prime=bits_prime,
        rr=rr,
        budget=budget,
        hp=hp,
        master_seed=master_seed,
    )


def draw_send_set(state: ClientState, t: int) -> tuple[np.random.Generator, np.ndarray]:
    """The client's round-``t`` stream and the ids it sends, ascending.

    The send set is the stream's first draw, so every client round and the
    ``privmf attack`` redraw see the same sets.
    """
    rngs, items, _ = _draw_send_sets([state], t)
    return rngs[0], items


# uniforms per send-set block: bounds the block of clients drawn at once
_SEND_BLOCK = 1 << 13


def _draw_send_sets(clients, t):
    """Each client's round stream, and all the send sets in one array with
    each client's offset into it.

    All the round streams are derived in one ``derive_rngs`` call. A block
    of clients draws its ``randresp.irr`` uniforms client by client into one
    ``(clients, n_items)`` block, which one comparison against
    ``where(bits_prime, q, p)`` thresholds. Blocks hold ~``_SEND_BLOCK``
    uniforms, so no round holds a float per (client, item).
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    n_items = len(clients[0].bits_prime)
    per_block = max(1, _SEND_BLOCK // n_items)
    uniforms = np.empty((min(per_block, len(clients)), n_items))
    rngs = derive_rngs([(c.master_seed, TAG_CLIENT_ROUND, c.client_id, t) for c in clients])
    sent, counts = [], []
    for lo in range(0, len(clients), per_block):
        block = clients[lo : lo + per_block]
        for rng, row in zip(rngs[lo : lo + per_block], uniforms):
            rng.random(out=row)
        probs = np.where(
            np.stack([c.bits_prime for c in block]) == 1,
            np.array([c.rr.q for c in block])[:, None],
            np.array([c.rr.p for c in block])[:, None],
        )
        owner, ids = np.divmod(np.flatnonzero(uniforms[: len(block)] < probs), n_items)
        sent.append(ids)
        counts.append(np.bincount(owner, minlength=len(block)))
    return rngs, np.concatenate(sent), np.cumsum([0, *np.concatenate(counts).tolist()]).tolist()


def population_iteration(clients: list[ClientState], v_snapshot: np.ndarray, t: int) -> list[ClientUpdate]:
    """One round of the numerical task for clients that share ``hp`` and
    ``budget``: one ``ClientUpdate`` per client, in client order.

    Each client draws from its own round-``t`` stream, in one order: the
    send set, the user-step noise, the fake-error uniforms, the item-step
    noise. The send sets are drawn first; then chunks of consecutive
    clients holding ~``sgld._CHUNK_ROWS`` rated rows, which bound the
    temporaries, run in two passes. Every client's update, user factor and
    ledger entry are those of its own round computed alone.
    """
    hp, budget = clients[0].hp, clients[0].budget
    eps_g = None if budget is None else budget.eps_g
    eta = learning_rate(t, hp)
    rngs, items, at = _draw_send_sets(clients, t)
    # the round's item deltas, one row per sent item; each update views its slice
    deltas = np.empty((at[-1], hp.k))
    for lo, hi in row_chunks([c.h for c in clients]):
        _chunk_iteration(
            clients[lo:hi], rngs[lo:hi], items[at[lo] : at[hi]], np.diff(at[lo : hi + 1]),
            deltas[at[lo] : at[hi]], v_snapshot, eta, eps_g,
        )
    return [ClientUpdate(c.client_id, items[a:b], deltas[a:b]) for c, a, b in zip(clients, at, at[1:])]


def _chunk_iteration(chunk, rngs, items, counts, deltas, v_snapshot, eta, eps_g) -> None:
    """One chunk of ``population_iteration``: ``items`` holds its clients'
    send sets back to back, ``counts[i]`` ids each, and their item deltas
    are written to ``deltas``, one row per id.

    Pass 1 loops over the clients and only pulls the rest of each stream
    into preallocated blocks; pass 2 runs the arithmetic once over the rows
    of all the chunk's clients.
    """
    hp, noise = chunk[0].hp, chunk[0].hp.noise_enabled
    rows = UserRows([c.items for c in chunk], [c.ratings for c in chunk])
    owner = np.repeat(np.arange(len(chunk)), counts)
    row, rated = rows.locate(owner, items, len(v_snapshot))
    n_fake = np.bincount(owner[~rated], minlength=len(chunk))
    sent_at = np.cumsum([0, *counts.tolist()]).tolist()
    fake_at = np.cumsum([0, *n_fake.tolist()]).tolist()

    # pass 1: the rest of each client's stream, in its order
    user_noise = np.empty((len(rows.items), hp.k)) if noise else None
    uniforms = np.empty(fake_at[-1])
    for i, (rng, first, h) in enumerate(zip(rngs, rows.start.tolist(), rows.h.tolist())):
        if noise:
            rng.standard_normal(out=user_noise[first : first + h])
        rng.random(out=uniforms[fake_at[i] : fake_at[i + 1]])
        if noise:
            rng.standard_normal(out=deltas[sent_at[i] : sent_at[i + 1]])

    # pass 2: the arithmetic, once over all the chunk's rows
    u = np.stack([c.u for c in chunk])
    errs, du = user_pass(u, v_snapshot, rows, eta, hp, user_noise)
    del user_noise  # freed before the item step's temporaries
    mu = rows.per_user(errs, lambda block: block.mean(axis=1))
    sigma = rows.per_user(errs, lambda block: block.std(axis=1))
    fakes, bounds = fakegrad.fake_error_rows(mu, sigma, eps_g, n_fake, uniforms)
    e = np.empty(len(items))
    e[rated] = errs[row[rated]]
    e[~rated] = fakes
    out = item_pass(v_snapshot, e, u[owner], items, eta, hp, deltas if noise else None)
    if not noise:
        deltas[...] = out
    u += du / rows.h[:, None]
    for c, u_row, bound in zip(chunk, u, bounds):
        c.u[:] = u_row
        c.record(bound)


def client_iteration(state: ClientState, v_snapshot: np.ndarray, t: int) -> ClientUpdate:
    """One client round: ``population_iteration`` of that client alone.

    The update lists the sent items in ascending id order; the user factor
    is updated in place afterwards, from the per-rated-item deltas averaged
    over the number of ratings.
    """
    return population_iteration([state], v_snapshot, t)[0]


def server_begin_round(server: ServerState) -> np.ndarray:
    """Broadcast snapshot of the item factors; accumulator reset to zero."""
    server.accumulator = np.zeros_like(server.v)
    server.item_counts = np.zeros(server.n_items, dtype=np.int64)
    snapshot = server.v.copy()
    snapshot.setflags(write=False)
    return snapshot


def server_collect(server: ServerState, updates: list[ClientUpdate], n_clients: int) -> int:
    """Reduce one round's client updates into the accumulator.

    Returns the number of gradients received. Raises ProtocolError for a
    gradient to an item outside ``[0, n_items)``, or when updates from
    fewer than ``n_clients`` distinct clients arrived (aborted round).
    """
    ids = np.concatenate([np.empty(0, np.int64), *(update.item_ids for update in updates)])
    unknown = (ids < 0) | (ids >= server.n_items)
    if unknown.any():
        raise ProtocolError(f"gradient for unknown item {ids[np.argmax(unknown)]}")
    finished = len({update.client_id for update in updates})
    if finished != n_clients:
        raise ProtocolError(f"round aborted: finish received from {finished}/{n_clients} clients")
    server.accumulator, server.item_counts = reduce_item_deltas(
        [(update.item_ids, update.deltas) for update in updates], server.n_items, server.k
    )
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


def server_round(server: ServerState, clients, step_fn, transport: str = "memory") -> int:
    """Run one synchronous round over all clients; returns messages received.

    ``step_fn(clients, snapshot, t)`` returns one update per client. With
    ``transport="bytes"`` the updates cross the wire format; the session's
    first round opens with the handshake.
    """
    snapshot = server_begin_round(server)
    updates = step_fn(clients, snapshot, server.t)
    if transport == "bytes":
        handshake = Handshake(server.k, server.n_items) if server.t == 1 else None
        updates = decode_updates(encode_updates(updates, handshake), server.k, server.n_items)
    n_grad = server_collect(server, updates, n_clients=len(clients))
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
    clients = [
        client_init(i, *train.user_items(i), model0.u[i], train.n_items, hp, budget, z_target, hp.seed)
        for i in train.active_users()
    ]
    if len(clients) < train.n_users:
        logger.warning("excluded %d client(s) with no ratings", train.n_users - len(clients))
    if not clients:
        raise ProtocolError("no clients with ratings")

    if task == "one-class":
        from . import bpr

        step_fn = bpr.population_iteration
    else:
        step_fn = population_iteration

    server = ServerState(
        v=model0.v.copy(), n_items=train.n_items, k=hp.k, per_item_average=per_item_average
    )

    curve: list[RoundRecord] = []
    for _ in range(n_rounds):
        started = time.perf_counter()
        t = server.t
        n_grad = server_round(server, clients, step_fn, transport)
        metric = None
        if evaluator is not None:
            metric = float(evaluator(assemble_model(model0, clients, server)))
        curve.append(RoundRecord(t, metric, n_grad, time.perf_counter() - started))

    # one WARNING per kind of ledger event the run hit, with its client-round count
    eps_g = None if budget is None else budget.eps_g
    worst = max(c.eps_g_worst for c in clients)
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
        n = sum(getattr(c, counter) for c in clients)
        if n:
            logger.warning(text.format(n=n, eps_g=eps_g, worst=worst))
    return TrainingResult(assemble_model(model0, clients, server), curve)


def assemble_model(model0: FactorModel, clients: list[ClientState], server: ServerState) -> FactorModel:
    """Combine client-held user rows with the server's item factors."""
    u = model0.u.copy()
    for c in clients:
        u[c.client_id] = c.u
    return FactorModel(u, server.v.copy())
