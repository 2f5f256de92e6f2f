"""Matrix-factorization core: predictions, Langevin-noise gradient steps,
the rated-row layout (``rated_chunks``, the one code that chunks rated rows,
into read-only ``UserRows``), and the centralized trainer used as the
reference for the distributed path.

All steps are additive deltas: ``delta = eta_t * (e * other - lambda * self)``
plus N(0, eta_t I) noise when enabled, applied as ``x <- x + delta``. With
noise off this strictly descends the squared-error objective
``0.5 * e^2 + 0.5 * x' diag(lambda) x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import TAG_CENTRAL_TRAIN, TAG_MODEL_INIT, TAG_REGULARIZERS, derive_rng


@dataclass(frozen=True, eq=False)
class Hyperparams:
    """Shared model hyperparameters.

    ``lambda_u`` / ``lambda_v`` are the diagonals of the per-coordinate
    regularization matrices (length ``k``, strictly positive). The learning
    rate decays as ``eta0 / t**gamma``.
    """

    k: int
    eta0: float
    gamma: float
    lambda_u: np.ndarray
    lambda_v: np.ndarray
    seed: int
    noise_enabled: bool = True
    # initial predictions concentrate near this score instead of 0, so
    # uncentered ratings do not spend most of a run learning their mean
    init_prediction: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda_u", np.asarray(self.lambda_u, dtype=np.float64))
        object.__setattr__(self, "lambda_v", np.asarray(self.lambda_v, dtype=np.float64))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.eta0 < np.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not -np.inf < self.init_prediction < np.inf:
            raise ValueError(f"init_prediction must be finite, got {self.init_prediction}")
        for name, lam in (("lambda_u", self.lambda_u), ("lambda_v", self.lambda_v)):
            if lam.shape != (self.k,):
                raise ValueError(f"{name} must have shape ({self.k},), got {lam.shape}")
            if not np.all(lam > 0):
                raise ValueError(f"{name} entries must be positive")

    @classmethod
    def with_gamma_priors(
        cls,
        k: int,
        eta0: float,
        gamma: float,
        seed: int,
        noise_enabled: bool = True,
        init_prediction: float = 0.0,
    ) -> "Hyperparams":
        """Draw the regularizer diagonals once from Gamma(shape 1, rate 100), i.e. scale 0.01."""
        rng = derive_rng(seed, TAG_REGULARIZERS)
        lambda_u = rng.gamma(1.0, 0.01, size=k)
        lambda_v = rng.gamma(1.0, 0.01, size=k)
        return cls(k, eta0, gamma, lambda_u, lambda_v, seed, noise_enabled, init_prediction)


@dataclass
class FactorModel:
    """User factor matrix (n_users x k) and item factor matrix (n_items x k)."""

    u: np.ndarray
    v: np.ndarray

    @property
    def k(self) -> int:
        return self.u.shape[1]


def init_model(n_users: int, n_items: int, hp: Hyperparams) -> FactorModel:
    """Initialize factors with i.i.d. normal entries (std 0.1/sqrt(k)).

    With ``init_prediction = P > 0`` every entry is centered at sqrt(P/k),
    so initial dot products concentrate near P; the default keeps them
    near 0.
    """
    rng = derive_rng(hp.seed, TAG_MODEL_INIT)
    loc = np.sqrt(hp.init_prediction / hp.k) if hp.init_prediction > 0 else 0.0
    scale = 0.1 / np.sqrt(hp.k)
    u = rng.normal(loc, scale, size=(n_users, hp.k))
    v = rng.normal(loc, scale, size=(n_items, hp.k))
    return FactorModel(u, v)


def learning_rate(t: int, hp: Hyperparams) -> float:
    """Decayed step size eta0 / t**gamma for round t >= 1."""
    if t < 1:
        raise ValueError(f"iteration must be >= 1, got {t}")
    return hp.eta0 / float(t) ** hp.gamma


def prediction_errors(
    u: np.ndarray, v_matrix: np.ndarray, items: np.ndarray, ratings: np.ndarray
) -> np.ndarray:
    """Per-item prediction errors r - u.v for one user's rated items.

    Shared by the centralized trainer and the protocol clients so both
    paths produce bitwise-identical error sequences. ``np.vecdot`` takes
    one BLAS dot per row, so each error rounds as ``r - np.dot(u, v)``; a
    matvec would not.
    """
    return ratings - np.vecdot(v_matrix[items], u)


def _step(x, e, other, lam, eta_t, noise=None) -> np.ndarray:
    """Deltas ``eta_t * (e * other - lam * x)``, plus ``sqrt(eta_t) * noise``
    for a pre-drawn standard-normal block. ``x`` and ``other`` are scratch
    blocks of the deltas' shape: the deltas are written over ``noise`` when
    given, else over ``other``."""
    other *= np.asarray(e)[..., None]
    x *= lam
    other -= x
    other *= eta_t
    if noise is None:
        return other
    noise *= np.sqrt(eta_t)
    noise += other
    return noise


def _single_step(x, e, other, lam, eta_t, hp: Hyperparams, rng: np.random.Generator) -> np.ndarray:
    """One ``user_step`` / ``item_step`` call: noise from ``rng``, and the
    caller's operands copied to scratch blocks."""
    shape = np.broadcast_shapes(np.shape(e) + (1,), np.shape(x), np.shape(other))
    # one (n, k) draw consumes the stream exactly as n draws of k
    noise = rng.standard_normal(shape) if hp.noise_enabled else None
    scratch = [np.array(np.broadcast_to(a, shape), dtype=np.float64) for a in (x, other)]
    return _step(scratch[0], e, scratch[1], lam, eta_t, noise)


def user_step(
    u: np.ndarray,
    e: float | np.ndarray,
    v: np.ndarray,
    eta_t: float,
    hp: Hyperparams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive delta for a user factor from one rated item; with a vector
    of n errors and an (n, k) block of item rows, the (n, k) block of
    deltas, one per rated item."""
    return _single_step(u, e, v, hp.lambda_u, eta_t, hp, rng)


def item_step(
    v: np.ndarray,
    e: float | np.ndarray,
    u: np.ndarray,
    eta_t: float,
    hp: Hyperparams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive delta for an item factor from one (real or fake) error; with
    an (n, k) block of item rows and n errors, the (n, k) block of deltas."""
    return _single_step(v, e, u, hp.lambda_v, eta_t, hp, rng)


# rated rows per population chunk: bounds the kernel's (rows, k) temporaries
_CHUNK_ROWS = 4096


class UserRows:
    """The rows of a chunk of users, one per (user, item), grouped by equal
    row count: the rated items with their ratings, or the items each user
    sends. Built from ``items`` (and ``ratings``), the users' rows back to
    back in user order, ``counts[i]`` of them for user ``i``.

    Users are laid out in ascending ``(h, position)`` order, each user's
    rows in its item order, so the users with one row count form one
    contiguous ``(m, h)`` block. A per-user reduction reshapes each block
    to ``(m, h, ...)`` and reduces axis 1, which sums every user's rows as
    numpy sums that user's own ``(h, ...)`` rows over axis 0; padding to a
    common length would not. A layout's arrays are read-only.
    """

    def __init__(self, items: np.ndarray, counts, ratings: np.ndarray | None = None):
        self.h = np.array(counts, dtype=np.int64)
        order = np.argsort(self.h, kind="stable")
        counts = self.h[order]
        ends = np.cumsum(counts)
        # each laid-out row's position in ``items``
        take = np.repeat((np.cumsum(self.h) - self.h)[order] - (ends - counts), counts)
        take += np.arange(len(take))
        self.items = items[take]
        self.ratings = None if ratings is None else ratings[take]
        self.owner = np.repeat(order, counts)  # user of each row, by position
        self.start = np.empty_like(self.h)  # each user's first row
        self.start[order] = ends - counts
        self._rank = np.empty_like(order)
        self._rank[order] = np.arange(len(order))
        for array in (self.h, self.items, self.ratings, self.owner, self.start, self._rank, order):
            if array is not None:
                array.setflags(write=False)
        # (users, first row, h) of each run of equal counts, read-only views of ``order``
        edges = np.flatnonzero(np.r_[True, np.diff(counts) != 0, True]).tolist()
        self.groups = [
            (order[a:b], int(ends[a] - counts[a]), int(counts[a])) for a, b in zip(edges, edges[1:])
        ]

    def per_user(self, values: np.ndarray, reduce) -> np.ndarray:
        """``reduce`` of each group's ``(m, h, ...)`` view of the row
        ``values``, one result row per user, in user order."""
        out = np.empty((len(self.h),) + values.shape[1:])
        for users, lo, h in self.groups:
            out[users] = reduce(values[lo : lo + len(users) * h].reshape(len(users), h, *values.shape[1:]))
        return out

    def moments(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each user's mean and population std of its rows' 1-D ``values``,
        bit for bit ``per_user`` of ``block.mean(axis=1)`` and
        ``block.std(axis=1)``, which numpy computes as a sum over ``h``, and
        as the square root of the mean squared deviation from that mean: here
        one sum per group each, the rest once over all the rows and users."""
        mu = self.per_user(values, lambda block: block.sum(axis=1)) / self.h
        dev = values - mu[self.owner]
        np.square(dev, out=dev)
        sigma = self.per_user(dev, lambda block: block.sum(axis=1)) / self.h
        return mu, np.sqrt(sigma, out=sigma)

    def locate(self, users: np.ndarray, items: np.ndarray, n_items: int) -> tuple[np.ndarray, np.ndarray]:
        """Row of each ``(user, item)`` pair, and whether the user rated it."""
        keys = self._rank[self.owner] * n_items + self.items  # ascending
        wanted = self._rank[users] * n_items + items
        rows = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
        return rows, keys[rows] == wanted

    def unrated(self, users: np.ndarray, j: np.ndarray, n_items: int) -> np.ndarray:
        """The ``j``-th smallest item id each of ``users`` has no row for."""
        # a user's i-th item (ascending) has items[i] - i missing ids below
        # it, so the j-th missing id is j plus the items with at most j below
        below = self.items - (np.arange(len(self.items)) - self.start[self.owner])
        keys = self._rank[self.owner] * n_items + below  # ascending
        before = np.searchsorted(keys, self._rank[users] * n_items + j, side="right")
        return j + before - self.start[users]


def rated_chunks(items, counts, ratings) -> list[tuple[int, int, UserRows]]:
    """Users' rated rows in chunks: ``(lo, hi, the layout of their rows)``
    per range ``[lo, hi)`` of consecutive users, each range closed once it
    holds ``_CHUNK_ROWS`` rows. ``items`` and ``ratings`` hold the users'
    rows back to back in user order, ``counts[i]`` of them for user ``i``."""
    out, lo, a, b = [], 0, 0, 0
    for i, h in enumerate(counts.tolist()):
        b += h
        if b - a >= _CHUNK_ROWS or i == len(counts) - 1:
            out.append((lo, i + 1, UserRows(items[a:b], counts[lo : i + 1], ratings[a:b])))
            lo, a = i + 1, b
    return out


def user_pass(
    u: np.ndarray, v: np.ndarray, rows: UserRows, eta_t: float, hp: Hyperparams, noise=None
) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's prediction errors, one per rated row, and each user's summed
    user deltas, from the users' factors ``u`` ``(m, k)`` and a pre-drawn
    ``noise`` block, one row per rated row, when SGLD noise is on.

    ``np.vecdot`` of gathered rows rounds each error as one user's
    ``prediction_errors`` does, and ``UserRows.per_user`` sums each user's
    deltas as ``user_step(...).sum(axis=0)`` does.
    """
    v_rows, u_rows = v[rows.items], u[rows.owner]
    errs = rows.ratings - np.vecdot(v_rows, u_rows)
    deltas = _step(u_rows, errs, v_rows, hp.lambda_u, eta_t, noise)
    return errs, rows.per_user(deltas, lambda block: block.sum(axis=1))


def item_pass(
    v: np.ndarray, e: np.ndarray, u_rows: np.ndarray, items: np.ndarray, eta_t: float,
    hp: Hyperparams, noise=None,
) -> np.ndarray:
    """Item deltas, one per ``(item, error, user row)``, written over the
    pre-drawn ``noise`` block when SGLD noise is on, else over ``u_rows``,
    which is scratch."""
    return _step(v[items], e, u_rows, hp.lambda_v, eta_t, noise)


def reduce_item_deltas(item_ids, deltas, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-independent reduction of a round's delta rows, one per item id.

    Returns per-item delta sums ``(n_items, k)`` and row counts ``(n_items,)``.
    Each item's rows are summed one after another from ``0.0`` in a canonical
    order: item id, then the delta's memory bytes. So any permutation of the
    same multiset of rows reduces to bitwise-identical sums. Raises
    ``ValueError`` for an id outside ``[0, n_items)``. The arguments are
    only read.

    The order comes from one sort of a packed ``uint64`` key per row: the id
    in the top ``s`` bits, then the first column's big-endian reading, whose
    numeric order is the bytewise order of its memory on any host. Runs of
    equal keys (duplicate rows, signed zeros) are re-sorted on every column.
    The sums are then rank-ordered vector adds: with the items ordered by row
    count, the ``r``-th add gathers each item's ``r``-th row, as the running
    per-item sum of ``np.add.at`` over the sorted rows would.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    d = np.ascontiguousarray(deltas, dtype=np.float64)
    k = d.shape[1]
    if len(ids) and (ids.min() < 0 or ids.max() >= n_items):
        outside = (ids < 0) | (ids >= n_items)
        raise ValueError(f"item id {ids[np.argmax(outside)]} outside [0, {n_items})")
    counts = np.bincount(ids, minlength=n_items)
    if len(ids) == 0 or k == 0:
        return np.zeros((n_items, k)), counts

    # the packed keys, a copy of the ids, go before the adds
    keys = d.view(">u8")
    s = max(1, (n_items - 1).bit_length())
    packed = ids.astype(np.uint64)
    packed <<= np.uint64(64 - s)
    packed |= keys[:, 0] >> np.uint64(s)
    # rows whose packed keys tie are re-sorted below, so any sort kind will do
    perm = np.argsort(packed)
    packed = packed[perm]
    tie = packed[1:] == packed[:-1]
    del packed
    if tie.any():
        run = np.cumsum(np.concatenate(([True], ~tie)))
        at = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
        rows = perm[at]
        perm[at] = rows[np.lexsort((*keys[rows].T[::-1], run[at]))]

    by_count = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    first = (np.cumsum(counts) - counts)[by_count]
    # m[r]: how many items have more than r rows, the first m[r] of by_count
    ascending = counts[by_count][::-1]
    m = len(by_count) - np.searchsorted(ascending, np.arange(ascending[-1]), side="right")
    acc = np.zeros((len(by_count), k))
    for r, m_r in enumerate(m.tolist()):
        acc[:m_r] += d[perm[first[:m_r] + r]]
    sums = np.zeros((n_items, k))
    sums[by_count] = acc
    return sums, counts


def centralized_train(train, hp: Hyperparams, n_rounds: int) -> FactorModel:
    """Train with all data in one place, mirroring the round semantics of
    the distributed protocol: user deltas are averaged per user and applied
    once per round; item deltas are averaged by the global delta count and
    applied once per round. With privacy disabled the distributed run
    reproduces this function's output exactly.
    """
    if n_rounds < 1:
        raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
    model = init_model(train.n_users, train.n_items, hp)
    rng = derive_rng(hp.seed, TAG_CENTRAL_TRAIN)
    users = train.active_users()
    # users without ratings have no rows, so ``order`` holds the users' rows
    # back to back, each user's in item order, user i's from at[i]
    at = train.indptr[[*users, train.n_users]]
    chunks = []
    for lo, hi, rows in rated_chunks(train.items[train.order], np.diff(at), train.ratings[train.order]):
        # the stream holds, user by user, h rows of user-step noise, then h
        # rows of item-step noise: each rated row's two rows in that draw
        first = 2 * (np.cumsum(rows.h) - rows.h)
        user_at = first[rows.owner] + np.arange(len(rows.items)) - rows.start[rows.owner]
        chunks.append((users[lo:hi], rows, user_at, user_at + rows.h[rows.owner], at[lo], at[hi]))
    # the round's item ids, one per rated row, chunk by chunk
    items = np.concatenate([np.empty(0, np.int64), *(c[1].items for c in chunks)])

    for t in range(1, n_rounds + 1):
        eta = learning_rate(t, hp)
        deltas = np.empty((len(items), hp.k))
        for ids, rows, user_at, item_at, a, b in chunks:
            user_noise = item_noise = None
            if hp.noise_enabled:
                draws = rng.standard_normal((2 * len(rows.items), hp.k))
                user_noise, item_noise = draws[user_at], draws[item_at]
            u = model.u[ids]
            errs, du = user_pass(u, model.v, rows, eta, hp, user_noise)
            deltas[a:b] = item_pass(model.v, errs, u[rows.owner], rows.items, eta, hp, item_noise)
            # user factors move only after this round's item deltas are computed
            model.u[ids] = u + du / rows.h[:, None]
        sums, counts = reduce_item_deltas(items, deltas, train.n_items)
        total = int(counts.sum())
        if total:
            model.v += sums / total
    return model
