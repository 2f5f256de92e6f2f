"""Rating-data ingestion, train/test splitting, and subsampling."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed input file or inconsistent rating data."""


class RatingTriple(NamedTuple):
    user_id: int
    item_id: int
    rating: float


@dataclass(eq=False)
class RatingDataset:
    """Sparse user-item ratings: three row arrays plus a per-user index.

    Row ``r`` says ``users[r]`` rated ``items[r]`` with ``ratings[r]``; rows
    are in file order for parsed data and construction order otherwise.
    The index is CSR: ``order`` sorts the rows stably by (user, item), the
    permutation ``np.lexsort((items, users))``, so user ``u``'s rows by item
    id are ``order[indptr[u]:indptr[u + 1]]``. Ids are dense and 0-based;
    ``user_ids`` / ``item_ids`` map them back to the external ids. The
    arrays are not writeable: instances are read-only and safe to share.
    """

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    score_range: tuple[float, float] = (1.0, 5.0)
    user_ids: list[int] = field(default_factory=list)
    item_ids: list[int] = field(default_factory=list)
    order: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.users = np.array(self.users, dtype=np.int64)
        self.items = np.array(self.items, dtype=np.int64)
        self.ratings = np.array(self.ratings, dtype=np.float64)
        # one packed key per row sorts as (user, item) for the in-range ids held
        self.order = np.argsort(self.users * self.n_items + self.items, kind="stable")
        self.indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.users, minlength=self.n_users), out=self.indptr[1:])
        for array in (self.users, self.items, self.ratings, self.order, self.indptr):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.users)

    def user_items(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """Item ids and ratings of one user, sorted by item id."""
        rows = self.order[self.indptr[user] : self.indptr[user + 1]]
        return self.items[rows], self.ratings[rows]

    def active_users(self) -> list[int]:
        """Ids of the users with at least one rating, ascending."""
        return np.flatnonzero(np.diff(self.indptr)).tolist()

    @property
    def triples(self) -> list[RatingTriple]:
        """The rows as triples, in row order (derived on each access)."""
        return list(map(RatingTriple, self.users.tolist(), self.items.tolist(), self.ratings.tolist()))

    @property
    def per_user(self) -> dict[int, list[tuple[int, float]]]:
        """User -> ``(item, rating)`` pairs by item id, users with ratings only (derived)."""
        pairs = {user: self.user_items(user) for user in self.active_users()}
        return {user: list(zip(i.tolist(), r.tolist())) for user, (i, r) in pairs.items()}

    def with_ratings(self, ratings: np.ndarray, score_range: tuple[float, float]) -> RatingDataset:
        """The same rows and id universe carrying new rating values."""
        return replace(self, ratings=ratings, score_range=score_range)

    def _rows(self, keep: np.ndarray) -> RatingDataset:
        """The rows selected by ``keep``, in row order, over the same id universe."""
        return replace(self, users=self.users[keep], items=self.items[keep], ratings=self.ratings[keep])


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "random-holdout"  # or "leave-one-out"
    fraction: float = 0.2
    seed: int = 0


def _first_fault(bad_id, users, items, ratings, n_items, score_range) -> tuple[int, int] | None:
    """The earliest faulty row and its first fault: 0 for an id flagged in
    ``bad_id``, 1 for a rating outside ``score_range``, 2 for the (user,
    item) pair of an earlier row; None when no row is faulty."""
    lo, hi = score_range
    # a key is exact for in-range ids, and rows past the first fault never matter
    repeat = np.ones(len(users), dtype=bool)
    repeat[np.unique(users * n_items + items, return_index=True)[1]] = False
    faults = (bad_id, ~((lo <= ratings) & (ratings <= hi)), repeat)
    faulty = np.logical_or.reduce(faults)
    if not faulty.any():
        return None
    row = int(np.argmax(faulty))
    return row, next(kind for kind, mask in enumerate(faults) if mask[row])


def _detect_delimiter(line: str) -> str | None:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    return None  # fall back to any-whitespace splitting


def _reindex(external: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids in order of first appearance, and the external id of each."""
    try:
        values = np.array(external, dtype=np.int64)
    except OverflowError:  # ids beyond 64 bits stay Python ints
        values = np.array(external, dtype=object)
    unique, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    dense = np.empty(len(unique), dtype=np.int64)
    dense[by_appearance] = np.arange(len(unique))
    return dense[inverse], unique[by_appearance]


def _parse_lines(text: str, delimiter: str | None):
    """The line loop: ``(line numbers, users, items, ratings)`` of the lines
    before the first malformed one, and that line's DataError or None."""
    rows: list[tuple[int, int, int, float]] = []  # (line number, user, item, rating)
    malformed: DataError | None = None  # rows stop at the first line that does not parse
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if delimiter is None:
            delimiter = _detect_delimiter(line)
        fields = line.split(delimiter) if delimiter else line.split()
        if len(fields) < 3:
            malformed = DataError(f"line {lineno}: expected at least 3 fields, got {len(fields)}")
            break
        try:
            rows.append((lineno, int(fields[0]), int(fields[1]), float(fields[2])))
        except ValueError as exc:
            malformed = DataError(f"line {lineno}: {exc}")
            break
    return *(zip(*rows) if rows else ((),) * 4), malformed


_BLOCK_CHARS = 1 << 16  # per block of the array path, which bounds its temporaries


def _parse_block(text: str, delimiter: str):
    """``(users, items, ratings)`` of a block of whole lines if it is plain, else None."""
    encoded = text.encode() + b"\n"[text.endswith("\n"):]
    buf = np.frombuffer(encoded, dtype=np.uint8)
    counts = np.bincount(buf, minlength=256)
    ends = np.flatnonzero(buf < ord("."))  # the byte after each field: both separators sort below "."
    line_end = buf[ends] == ord("\n")
    n = int(np.argmax(line_end)) + 1  # fields per line
    if (
        counts[ord("0") : ord("9") + 1].sum() + counts[[ord("."), ord("\n"), ord(delimiter)]].sum() < len(buf)
        or n < 3 or not line_end[n - 1 :: n].all() or counts[ord("\n")] != len(ends) // n
    ):
        return None
    # numpy reads each field with int() or float(), as the line loop does;
    # the fields after the third are never read
    fields = encoded.replace(b"\n", delimiter.encode()).split(delimiter.encode())[:-1]
    try:
        return tuple(np.array(fields[k::n], dtype=t) for k, t in enumerate((np.int64, np.int64, np.float64)))
    except (ValueError, OverflowError):  # an empty field, a dotted id, an id past int64
        return None


def _parse_columns(text: str, delimiter: str | None):
    """``(users, items, ratings)`` of a plain text as arrays, read block by
    block; None for any other text."""
    if delimiter is None:
        delimiter = _detect_delimiter(text[: text.find("\n") + 1 or None])  # the first line
    if not text or delimiter not in ("\t", ",") or not text.isascii():
        return None
    blocks, start = [], 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        blocks.append(_parse_block(text[start:end], delimiter))
        if blocks[-1] is None:
            return None
        start = end
    return tuple(map(np.concatenate, zip(*blocks)))


def parse_ratings(
    text: str,
    delimiter: str | None = None,
    score_range: tuple[float, float] = (1.0, 5.0),
) -> RatingDataset:
    """Parse ``user item rating [timestamp]`` lines into a dataset.

    Tab- or comma-delimited files are auto-detected; extra trailing fields
    (timestamps) are ignored. External ids are reindexed to dense 0-based
    ids in order of first appearance, and the mapping is preserved. A
    malformed line, a negative id, a rating outside ``score_range`` or a
    repeated (user, item) pair raises DataError naming the earliest faulty
    line.

    Plain texts are read as arrays, in blocks of whole lines: ASCII digits
    and dots, one tab or comma delimiter, ``\\n`` line ends, the same number
    (>= 3) of fields on each line of a block, integer ids below 2**63 and
    ratings that ``float()`` reads. Any other text (whitespace, CRLF, blank
    lines, signs, exponents, ``nan``, longer ids, a malformed field) is read
    line by line, with the same dataset and the same errors.
    """
    columns = _parse_columns(text, delimiter)
    linenos, malformed = None, None  # a plain text's row r is on line r + 1
    if columns is None:
        linenos, *columns, malformed = _parse_lines(text, delimiter)
    ext_users, ext_items, values = columns
    users, user_ids = _reindex(ext_users)
    items, item_ids = _reindex(ext_items)
    ratings = np.array(values, dtype=np.float64)
    negative = (user_ids[users] < 0) | (item_ids[items] < 0)
    fault = _first_fault(negative, users, items, ratings, len(item_ids), score_range)
    if fault is not None:
        k = fault[0]
        raise DataError(f"line {k + 1 if linenos is None else linenos[k]}: " + (
            "negative id",
            f"rating {float(ratings[k])} outside range {score_range}",
            f"duplicate rating for (user={user_ids[users[k]]}, item={item_ids[items[k]]})",
        )[fault[1]])
    if malformed is not None:
        raise malformed
    return RatingDataset(
        len(user_ids), len(item_ids), users, items, ratings, score_range,
        user_ids.tolist(), item_ids.tolist(),
    )


def format_ratings(dataset: RatingDataset, delimiter: str = "\t") -> str:
    """Serialize a dataset back to delimited text using external ids.

    Each distinct id and rating is formatted once. A rating is written as
    ``:g`` when that reads back as the same float, and as its ``repr``
    otherwise, so ``parse_ratings`` recovers every rating exactly.
    """
    bits, at = np.unique(dataset.ratings.view(np.int64), return_inverse=True)
    texts = [f"{r:g}" if float(f"{r:g}") == r else repr(r) for r in bits.view(np.float64).tolist()]
    columns = [np.array([f"{x}{end}" for x in table], dtype=object)[keys] for keys, table, end in (
        (dataset.users, dataset.user_ids, delimiter), (dataset.items, dataset.item_ids, delimiter), (at, texts, "\n"),
    )]
    return "".join(np.stack(columns, axis=1).ravel().tolist())


def split(dataset: RatingDataset, spec: SplitSpec) -> tuple[RatingDataset, RatingDataset]:
    """Partition into disjoint train/test datasets sharing the id universe.

    ``random-holdout`` moves round(fraction * n) ratings to the test set.
    ``leave-one-out`` holds out exactly one rating per user with at least
    two ratings; single-rating users stay fully in train (with a warning).
    Both sides keep the dataset's row order. Deterministic for a fixed seed.
    """
    if len(dataset) == 0:
        raise DataError("cannot split an empty dataset")
    rng = np.random.default_rng(spec.seed)
    test = np.zeros(len(dataset), dtype=bool)

    if spec.mode == "random-holdout":
        if not (0.0 < spec.fraction < 1.0):
            raise DataError(f"fraction must be in (0,1), got {spec.fraction}")
        n_test = int(round(spec.fraction * len(dataset)))
        test[rng.permutation(len(dataset))[:n_test]] = True
    elif spec.mode == "leave-one-out":
        counts = np.diff(dataset.indptr)
        singletons = int(np.count_nonzero(counts == 1))
        if singletons:
            logger.warning(
                "leave-one-out: %d user(s) with a single rating kept in train, excluded from test",
                singletons,
            )
        eligible = np.flatnonzero(counts >= 2)
        # one draw per eligible user, in user order: the position of the
        # held-out rating among the user's ratings sorted by item
        held = dataset.indptr[eligible] + rng.integers(0, counts[eligible])
        test[dataset.order[held]] = True
    else:
        raise DataError(f"unknown split mode {spec.mode!r}")

    return dataset._rows(~test), dataset._rows(test)


def subsample(
    dataset: RatingDataset,
    n_users: int,
    n_items: int,
    min_ratings: int = 1,
    seed: int = 0,
) -> RatingDataset:
    """Desk-scale subsample: most-rated items, then qualifying users.

    Keeps the ``n_items`` items with the highest rating counts, then
    uniformly samples ``n_users`` users having at least ``min_ratings``
    ratings among the retained items. Returns a reindexed dense dataset
    whose external-id mappings still point at the original ids.
    """
    if n_users > dataset.n_users or n_items > dataset.n_items:
        raise DataError("subsample target exceeds dataset dimensions")

    counts = np.bincount(dataset.items, minlength=dataset.n_items)
    # most-rated first; ties broken by lower internal id
    order = np.lexsort((np.arange(dataset.n_items), -counts))
    item_kept = np.zeros(dataset.n_items, dtype=bool)
    item_kept[order[:n_items]] = True
    on_kept_item = item_kept[dataset.items]

    user_deg = np.bincount(dataset.users[on_kept_item], minlength=dataset.n_users)
    kept_users = np.flatnonzero(user_deg >= min_ratings)
    if len(kept_users) == 0:
        logger.warning("subsample: no users with >= %d ratings among retained items", min_ratings)
    elif len(kept_users) < n_users:
        logger.warning(
            "subsample: only %d qualifying users (requested %d); keeping all",
            len(kept_users),
            n_users,
        )
    else:
        rng = np.random.default_rng(seed)
        kept_users = np.sort(rng.choice(kept_users, size=n_users, replace=False))
    user_kept = np.zeros(dataset.n_users, dtype=bool)
    user_kept[kept_users] = True
    kept_items = np.flatnonzero(item_kept)

    # new ids follow the old ones' order: a kept id's rank among the kept
    new_user, new_item = np.cumsum(user_kept) - 1, np.cumsum(item_kept) - 1
    rows = on_kept_item & user_kept[dataset.users]
    return RatingDataset(
        len(kept_users), len(kept_items),
        new_user[dataset.users[rows]], new_item[dataset.items[rows]], dataset.ratings[rows],
        dataset.score_range,
        [dataset.user_ids[u] for u in kept_users.tolist()],
        [dataset.item_ids[i] for i in kept_items.tolist()],
    )


def synthetic_dataset(
    n_users: int,
    n_items: int,
    seed: int = 0,
    mean_ratings_per_user: float = 25.0,
    latent_dim: int = 3,
    score_range: tuple[float, float] = (1.0, 5.0),
    signal: float = 1.0,
) -> RatingDataset:
    """Low-rank synthetic ratings for demos and offline test runs.

    Users rate items with probability skewed by item popularity and by a
    hidden user-item affinity; rating values follow the same affinity plus
    observation noise, rounded into the score range. ``signal`` scales how
    much of a rating is affinity rather than noise. Every user gets at
    least two ratings so leave-one-out splits are always possible. Rows
    come user by user, each user's in item order.
    """
    rng = np.random.default_rng(seed)
    lo, hi = score_range
    mid = 0.5 * (lo + hi)
    amp = signal * 0.45 * (hi - lo)

    u_lat = rng.normal(0.0, 1.0, size=(n_users, latent_dim)) / np.sqrt(latent_dim)
    v_lat = rng.normal(0.0, 1.0, size=(n_items, latent_dim))
    popularity = rng.normal(0.0, 1.0, size=n_items)

    users, items, ratings = [], [], []
    for user in range(n_users):
        affinity = u_lat[user] @ v_lat.T
        h = int(np.clip(rng.poisson(mean_ratings_per_user), 2, n_items))
        logits = popularity + 0.8 * affinity
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        chosen = np.sort(rng.choice(n_items, size=h, replace=False, p=probs))
        raw = mid + amp * affinity[chosen] + rng.normal(0.0, 0.35, size=h)
        users.append(np.full(h, user))
        items.append(chosen)
        ratings.append(np.clip(np.round(raw), lo, hi))

    rows = [np.concatenate(column or [[]]) for column in (users, items, ratings)]
    return RatingDataset(
        n_users, n_items, *rows, score_range, list(range(n_users)), list(range(n_items))
    )
