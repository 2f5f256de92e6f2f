"""Client and server state machines for the distributed training rounds.

Each round the server broadcasts the item factors, every client locally
updates its user factor from its own ratings, draws a randomized send-set,
and returns one ``ClientUpdate``: a delta row per selected item (real
gradients for rated items, fake-error gradients for unrated ones), sent as
one gradient frame per row followed by a finish frame. The server only ever
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
from dataclasses import dataclass, field

import numpy as np

from . import fakegrad, randresp
from .codec import ClientUpdate, Handshake, decode_updates, encode_updates
from .data import RatingDataset
from .rng import TAG_CLIENT_INIT, TAG_CLIENT_ROUND, derive_rng
from .sgld import (
    FactorModel,
    Hyperparams,
    init_model,
    item_step,
    learning_rate,
    prediction_errors,
    reduce_item_deltas,
    user_step,
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
    unrated: np.ndarray = field(default=None, repr=False)
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
        unrated=np.flatnonzero(bits == 0).astype(np.int64),
    )


def draw_send_set(state: ClientState, t: int) -> tuple[np.random.Generator, np.ndarray]:
    """The client's round-``t`` stream and the ids it sends, ascending.

    The send set is the stream's first draw, so every client round and the
    ``privmf attack`` redraw see the same sets.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    rng = derive_rng(state.master_seed, TAG_CLIENT_ROUND, state.client_id, t)
    return rng, np.flatnonzero(randresp.irr(state.bits_prime, state.rr.p, state.rr.q, rng))


def client_iteration(state: ClientState, v_snapshot: np.ndarray, t: int) -> ClientUpdate:
    """One client round: local user update, send-set draw, item deltas.

    The update lists the sent items in ascending id order; the user factor
    is updated in place afterwards, from the per-rated-item deltas averaged
    over the number of ratings.
    """
    rng, selected = draw_send_set(state, t)
    hp = state.hp
    eta = learning_rate(t, hp)
    errs = prediction_errors(state.u, v_snapshot, state.items, state.ratings)
    du = user_step(state.u, errs, v_snapshot[state.items], eta, hp, rng).sum(axis=0)

    rated = state.bits[selected] == 1
    e = np.empty(len(selected), dtype=np.float64)
    e[rated] = errs[np.searchsorted(state.items, selected[rated])]
    eps_g = None if state.budget is None else state.budget.eps_g
    e[~rated], bound = fakegrad.fake_errors(errs, eps_g, int(np.count_nonzero(~rated)), rng)
    state.record(bound)
    deltas = item_step(v_snapshot[selected], e, state.u, eta, hp, rng)

    state.u += du / state.h
    return ClientUpdate(state.client_id, selected, deltas)


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
    for update in updates:
        unknown = update.item_ids[(update.item_ids < 0) | (update.item_ids >= server.n_items)]
        if len(unknown):
            raise ProtocolError(f"gradient for unknown item {unknown[0]}")
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

    With ``transport="bytes"`` the updates cross the wire format; the
    session's first round opens with the handshake.
    """
    snapshot = server_begin_round(server)
    updates = [step_fn(client, snapshot, server.t) for client in clients]
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
        from .bpr import sd_bpr_client_iteration as step_fn
    else:
        step_fn = client_iteration

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
