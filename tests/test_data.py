import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_dataset
from privmf.data import (
    DataError,
    RatingDataset,
    RatingTriple,
    SplitSpec,
    _parse_columns,
    format_ratings,
    parse_ratings,
    split,
    subsample,
    synthetic_dataset,
)


class TestParse:
    def test_single_tab_line_with_timestamp(self):
        ds = parse_ratings("1\t3\t4\t881250949\n")
        assert (ds.n_users, ds.n_items, len(ds)) == (1, 1, 1)
        assert ds.triples[0] == RatingTriple(0, 0, 4.0)
        assert ds.user_ids == [1] and ds.item_ids == [3]

    def test_comma_autodetect(self):
        ds = parse_ratings("10,20,5\n10,21,3\n11,20,1\n")
        assert (ds.n_users, ds.n_items, len(ds)) == (2, 2, 3)

    def test_empty_input_parses_but_cannot_split(self):
        ds = parse_ratings("")
        assert len(ds) == 0
        with pytest.raises(DataError, match="empty"):
            split(ds, SplitSpec())

    def test_malformed_line_reports_number(self):
        with pytest.raises(DataError, match="line 2"):
            parse_ratings("1\t2\t3\nbogus line\n")

    def test_too_few_fields(self):
        with pytest.raises(DataError, match="line 1.*fields"):
            parse_ratings("1\t2\n")

    def test_duplicate_pair(self):
        with pytest.raises(DataError, match="line 3.*duplicate"):
            parse_ratings("1\t2\t3\n1\t4\t3\n1\t2\t5\n")

    def test_rating_out_of_range(self):
        with pytest.raises(DataError, match="range"):
            parse_ratings("1\t2\t9\n")

    def test_earliest_faulty_line_is_reported(self):
        # a duplicate before a malformed line: the duplicate's line is named
        with pytest.raises(DataError, match=r"^line 3: duplicate rating for \(user=1, item=2\)$"):
            parse_ratings("1\t2\t3\n1\t4\t3\n1\t2\t5\nbogus line\n1\t9\t9\n")
        # and a malformed line before a duplicate and a bad rating is named first
        with pytest.raises(DataError, match=r"^line 2: invalid literal"):
            parse_ratings("1\t2\t3\nx\t2\t3\n1\t2\t5\n1\t3\t9\n")
        with pytest.raises(DataError, match=r"^line 2: expected at least 3 fields, got 2$"):
            parse_ratings("1\t2\t3\n1\t2\n-1\t2\t5\n")
        with pytest.raises(DataError, match=r"^line 2: negative id$"):
            parse_ratings("1\t2\t3\n1\t-2\t9\n1\t2\t3\nbogus\n")

    def test_reindex_is_invertible(self):
        ds = parse_ratings("7\t70\t1\n3\t30\t2\n7\t30\t3\n")
        for t in ds.triples:
            assert ds.user_ids[t.user_id] in (7, 3)
        externals = {(ds.user_ids[t.user_id], ds.item_ids[t.item_id]) for t in ds.triples}
        assert externals == {(7, 70), (3, 30), (7, 30)}

    def test_format_parse_roundtrip(self):
        ds = synthetic_dataset(8, 12, seed=2, mean_ratings_per_user=4)
        again = parse_ratings(format_ratings(ds))
        original = {(ds.user_ids[t.user_id], ds.item_ids[t.item_id], t.rating) for t in ds.triples}
        recovered = {
            (again.user_ids[t.user_id], again.item_ids[t.item_id], t.rating) for t in again.triples
        }
        assert recovered == original

    def test_format_keeps_every_digit_of_a_rating(self):
        # :g writes 1.0000001 as "1" and 3.14159265 as "3.14159": such ratings
        # are written in full, and the grid ratings stay in :g form
        values = [1.0000001, 3.14159265, 4.5, 3.0, 1 + 2**-52, 2.0000000000000004, 5.0]
        ds = build_dataset([RatingTriple(u, u % 2, r) for u, r in enumerate(values)], len(values), 2)
        text = format_ratings(ds)
        assert text.splitlines()[2:4] == ["2\t0\t4.5", "3\t1\t3"]
        again = parse_ratings(text)
        assert again.ratings.tobytes() == ds.ratings.tobytes()
        assert (again.user_ids, again.item_ids) == (ds.user_ids, ds.item_ids)

    @pytest.mark.parametrize("delimiter", ["\t", ","])
    def test_format_equals_the_line_by_line_f_string(self, delimiter):
        ds = parse_ratings("70\t5\t1\n3\t9\t4.5\n70\t9\t2.25\n2\t5\t5\n")
        for dataset in (ds, synthetic_dataset(20, 30, seed=3, mean_ratings_per_user=6), ds._rows(np.zeros(4, bool))):
            expected = "".join(
                f"{dataset.user_ids[u]}{delimiter}{dataset.item_ids[i]}{delimiter}{r:g}\n"
                for u, i, r in zip(dataset.users.tolist(), dataset.items.tolist(), dataset.ratings.tolist())
            )
            assert format_ratings(dataset, delimiter) == expected


class TestOrder:
    """``order`` is a packed-key argsort; it must stay the lexsort permutation."""

    @staticmethod
    def assert_lexsort(ds: RatingDataset):
        assert ds.order.dtype == np.int64
        assert np.array_equal(ds.order, np.lexsort((ds.items, ds.users)))

    def test_every_way_a_dataset_is_built(self):
        synth = synthetic_dataset(30, 40, seed=2, mean_ratings_per_user=6)
        parsed = parse_ratings("9\t4\t3\n2\t4\t1\n9\t1\t5\n2\t7\t2\n5\t4\t4\n")
        for ds in (synth, parsed, synthetic_dataset(30, 60, seed=4, mean_ratings_per_user=2)):
            self.assert_lexsort(ds)
            for part in split(ds, SplitSpec("random-holdout", 0.3, seed=1)):
                self.assert_lexsort(part)
            for part in split(ds, SplitSpec("leave-one-out", seed=1)):
                self.assert_lexsort(part)
            self.assert_lexsort(subsample(ds, 2, 3, min_ratings=1, seed=0))
        self.assert_lexsort(parse_ratings(""))
        self.assert_lexsort(build_dataset([], 3, 4))
        self.assert_lexsort(subsample(synth, 5, 10, min_ratings=100, seed=0))


class TestSplit:
    def test_holdout_size_and_disjointness(self):
        ds = synthetic_dataset(10, 20, seed=0, mean_ratings_per_user=5)
        train, test = split(ds, SplitSpec("random-holdout", 0.2, seed=4))
        assert len(test) == round(0.2 * len(ds))
        assert len(train) + len(test) == len(ds)
        assert set(train.triples).isdisjoint(test.triples)

    def test_same_seed_same_split(self):
        ds = synthetic_dataset(10, 20, seed=0, mean_ratings_per_user=5)
        a = split(ds, SplitSpec("random-holdout", 0.3, seed=9))
        b = split(ds, SplitSpec("random-holdout", 0.3, seed=9))
        assert a[0].triples == b[0].triples and a[1].triples == b[1].triples

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), frac=st.floats(0.1, 0.9))
    def test_partition_property(self, seed, frac):
        ds = synthetic_dataset(6, 10, seed=1, mean_ratings_per_user=4)
        train, test = split(ds, SplitSpec("random-holdout", frac, seed=seed))
        assert sorted(train.triples + test.triples) == sorted(ds.triples)

    def test_leave_one_out_one_per_user(self):
        ds = synthetic_dataset(15, 30, seed=3, mean_ratings_per_user=6)
        train, test = split(ds, SplitSpec("leave-one-out", seed=5))
        counts = {}
        for t in test.triples:
            counts[t.user_id] = counts.get(t.user_id, 0) + 1
        assert all(c == 1 for c in counts.values())
        assert set(counts) == set(range(15))

    def test_leave_one_out_singleton_user_kept_in_train(self, caplog):
        triples = [
            RatingTriple(0, 0, 3.0),
            RatingTriple(1, 0, 2.0),
            RatingTriple(1, 1, 4.0),
        ]
        ds = build_dataset(triples, 2, 2)
        with caplog.at_level(logging.WARNING):
            train, test = split(ds, SplitSpec("leave-one-out", seed=0))
        assert "single rating" in caplog.text
        assert RatingTriple(0, 0, 3.0) in train.triples
        assert all(t.user_id != 0 for t in test.triples)

    def test_leave_one_out_matches_per_user_draws(self):
        # the one-call draw must pick what one rng.integers(h) call per user picked
        for seed in range(20):
            ds = synthetic_dataset(25, 30, seed=seed, mean_ratings_per_user=3)
            _, test = split(ds, SplitSpec("leave-one-out", seed=seed))
            rng = np.random.default_rng(seed)
            held = []
            for user, pairs in sorted(ds.per_user.items()):
                if len(pairs) >= 2:
                    held.append((user, pairs[int(rng.integers(len(pairs)))][0]))
            assert [(t.user_id, t.item_id) for t in test.triples] == [
                (t.user_id, t.item_id) for t in ds.triples if (t.user_id, t.item_id) in set(held)
            ]

    def test_unknown_mode(self):
        ds = synthetic_dataset(5, 5, seed=0, mean_ratings_per_user=3)
        with pytest.raises(DataError, match="unknown split mode"):
            split(ds, SplitSpec("bogus"))


class TestSubsample:
    def test_exact_sizes_on_dense_data(self):
        rng = np.random.default_rng(0)
        triples = [
            RatingTriple(u, i, float(rng.integers(1, 6)))
            for u in range(30)
            for i in range(40)
        ]
        ds = build_dataset(triples, 30, 40)
        sub = subsample(ds, 10, 15, min_ratings=1, seed=2)
        assert (sub.n_users, sub.n_items) == (10, 15)

    def test_degree_floor_property(self):
        ds = synthetic_dataset(50, 60, seed=4, mean_ratings_per_user=8)
        sub = subsample(ds, 20, 30, min_ratings=5, seed=1)
        degrees = [len(pairs) for pairs in sub.per_user.values()]
        assert min(degrees) >= 5

    def test_too_strict_floor_warns(self, caplog):
        ds = synthetic_dataset(10, 10, seed=5, mean_ratings_per_user=3)
        with caplog.at_level(logging.WARNING):
            sub = subsample(ds, 5, 10, min_ratings=100, seed=0)
        assert sub.n_users == 0
        assert "no users" in caplog.text

    def test_deterministic(self):
        ds = synthetic_dataset(40, 50, seed=6, mean_ratings_per_user=10)
        a = subsample(ds, 15, 20, min_ratings=2, seed=3)
        b = subsample(ds, 15, 20, min_ratings=2, seed=3)
        assert a.triples == b.triples

    def test_external_ids_preserved(self):
        ds = parse_ratings("100\t7\t3\n200\t7\t4\n300\t8\t5\n100\t8\t1\n")
        sub = subsample(ds, 2, 2, min_ratings=1, seed=0)
        assert set(sub.user_ids).issubset({100, 200, 300})
        assert set(sub.item_ids).issubset({7, 8})


class TestSynthetic:
    def test_shapes_and_range(self):
        ds = synthetic_dataset(25, 35, seed=7, mean_ratings_per_user=6)
        assert ds.n_users == 25 and ds.n_items == 35
        assert all(1.0 <= t.rating <= 5.0 for t in ds.triples)

    def test_every_user_has_two_ratings(self):
        ds = synthetic_dataset(30, 40, seed=8, mean_ratings_per_user=3)
        assert all(len(ds.per_user.get(u, [])) >= 2 for u in range(30))

    def test_reproducible(self):
        a = synthetic_dataset(12, 18, seed=9)
        b = synthetic_dataset(12, 18, seed=9)
        assert a.triples == b.triples


def oracle_build(triples, n_users, n_items, score_range=(1.0, 5.0)):
    """The triple loop and per-user dict that the array-backed dataset replaced."""
    lo, hi = score_range
    seen = set()
    for t in triples:
        if not (0 <= t.user_id < n_users and 0 <= t.item_id < n_items):
            raise DataError(f"id out of range in triple {t}")
        if not (lo <= t.rating <= hi):
            raise DataError(f"rating {t.rating} outside declared range {score_range}")
        key = (t.user_id, t.item_id)
        if key in seen:
            raise DataError(f"duplicate (user, item) pair {key}")
        seen.add(key)
    per_user = {}
    for t in triples:
        per_user.setdefault(t.user_id, []).append((t.item_id, t.rating))
    for pairs in per_user.values():
        pairs.sort()
    return list(triples), per_user


def oracle_parse(text, score_range=(1.0, 5.0), delimiter=None):
    """The line-by-line parser that the array-backed dataset replaced."""
    triples, user_map, item_map, seen = [], {}, {}, set()
    lo, hi = score_range
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if delimiter is None:
            delimiter = "\t" if "\t" in line else "," if "," in line else None
        fields = line.split(delimiter) if delimiter else line.split()
        if len(fields) < 3:
            raise DataError(f"line {lineno}: expected at least 3 fields, got {len(fields)}")
        try:
            ext_user, ext_item, rating = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None
        if ext_user < 0 or ext_item < 0:
            raise DataError(f"line {lineno}: negative id")
        if not (lo <= rating <= hi):
            raise DataError(f"line {lineno}: rating {rating} outside range {score_range}")
        if (ext_user, ext_item) in seen:
            raise DataError(f"line {lineno}: duplicate rating for (user={ext_user}, item={ext_item})")
        seen.add((ext_user, ext_item))
        u = user_map.setdefault(ext_user, len(user_map))
        i = item_map.setdefault(ext_item, len(item_map))
        triples.append(RatingTriple(u, i, rating))
    return triples, list(user_map), list(item_map)


@st.composite
def faulty_triples(draw):
    """Unique in-range triples with up to three faults injected anywhere:
    an out-of-range user or item id, an out-of-range rating, or a repeat of
    another row's (user, item) pair."""
    n_users, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    users, items = st.integers(0, n_users - 1), st.integers(0, n_items - 1)
    ratings = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5, 5.0])
    pairs = draw(st.lists(st.tuples(users, items), unique=True, max_size=30))
    triples = [RatingTriple(u, i, draw(ratings)) for u, i in pairs]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["user", "item", "rating", "repeat"]))
        user, item, rating = draw(users), draw(items), draw(ratings)
        if kind == "user":
            user = draw(st.sampled_from([-1, n_users, n_users + 7]))
        elif kind == "item":
            item = draw(st.sampled_from([-2, n_items, n_items + 1]))
        elif kind == "rating":
            rating = draw(st.sampled_from([0.0, 0.999, 5.001, 9.0, math.nan]))
        elif triples:
            user, item = draw(st.sampled_from(triples))[:2]
        triples.insert(draw(st.integers(0, len(triples))), RatingTriple(user, item, rating))
    return triples, n_users, n_items


class TestArrayDatasetAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=faulty_triples())
    def test_build_dataset_matches_triple_loop(self, case):
        triples, n_users, n_items = case
        try:
            expected_triples, expected_per_user = oracle_build(triples, n_users, n_items)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                build_dataset(triples, n_users, n_items)
            assert str(raised.value) == str(exc)
            return
        ds = build_dataset(triples, n_users, n_items)
        assert ds.triples == expected_triples
        assert len(ds) == len(expected_triples)
        assert ds.per_user == expected_per_user
        for user in range(n_users):
            items, ratings = ds.user_items(user)
            pairs = expected_per_user.get(user, [])
            assert items.dtype == np.int64 and ratings.dtype == np.float64
            assert items.tolist() == [i for i, _ in pairs]
            assert ratings.tolist() == [r for _, r in pairs]

    @settings(max_examples=200, deadline=None)
    @given(case=faulty_triples(), ext=st.sampled_from([(1, 1), (7, 100), (-3, 2**70)]), data=st.data())
    def test_parse_ratings_matches_line_loop(self, case, ext, data):
        triples, _, _ = case
        # external ids: an affine map of the drawn ids (2**70 exceeds 64 bits)
        offset, scale = ext
        lines = [f"{offset + scale * t.user_id}\t{offset + scale * t.item_id}\t{t.rating:g}" for t in triples]
        if data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(["bogus line", "1\t2", "1\tx\t3", "", "  "]))
            lines.insert(data.draw(st.integers(0, len(lines))), bad)
        text = "\n".join(lines) + "\n"
        try:
            expected = oracle_parse(text)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                parse_ratings(text)
            assert str(raised.value) == str(exc)
            return
        ds = parse_ratings(text)
        assert (ds.triples, ds.user_ids, ds.item_ids) == expected
        assert (ds.n_users, ds.n_items) == (len(expected[1]), len(expected[2]))


# field forms the array path reads (plain) and forms only the line loop reads
PLAIN_IDS = ["{}", "0{}"]
OTHER_IDS = ["+{}", "-{}", "{}_0", "{}.5", " {}", "{}e0"]
PLAIN_BASES = [0, 1, 2, 3, 17, 2**53 + 1, 10**17 + 3, 10**18, 2**63 - 1]
OTHER_BASES = [2**63, 2**63 + 5, 2**70]
PLAIN_RATINGS = [
    "1", "3", "5", "4.5", "2.25", "3.", "1.0000001", "3.14159265", "05", "0.5", "9", "0", "5.000000000000001",
    "3.14159265358979323846",
]
OTHER_RATINGS = ["1e0", "2.5E0", "nan", "inf", "-inf", "+3", "-0", "1_0", ".", "3 "]
BAD_LINES = ["", "  ", "\t", "bogus line", "1\t2", "1,2", "1\tx\t3", "1\t2\t3\t4"]


@st.composite
def rating_texts(draw):
    """Rating files: plain ones, which the array path reads, and files with
    whitespace or comma delimiters, CRLF, blank lines, signs, exponents,
    ``nan``/``inf``, ids past 2**63, non-integral ids, out-of-range
    ratings, repeated pairs, extra fields and malformed lines."""
    plain = draw(st.integers(0, 2)) > 0

    def pick(plain_forms, other_forms):
        return draw(st.sampled_from(plain_forms if plain else plain_forms + other_forms))

    delimiter = pick(["\t", ","], [" ", "\t ", " ,"])
    newline = pick(["\n"], ["\r\n", "\r"])
    n_extra = draw(st.integers(0, 2))
    lines = []
    for _ in range(draw(st.integers(int(plain), 10))):
        ids = [pick(PLAIN_IDS, OTHER_IDS).format(pick(PLAIN_BASES, OTHER_BASES)) for _ in range(2)]
        extra = [pick(["881250949", "7.5.1"], ["x", ""]) for _ in range(n_extra)]
        lines.append(delimiter.join(ids + [pick(PLAIN_RATINGS, OTHER_RATINGS)] + extra))
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), delimiter


class TestParsePaths:
    @settings(max_examples=400, deadline=None)
    @given(case=rating_texts(), explicit=st.booleans(), block_chars=st.sampled_from([1, 12, 1 << 16]))
    def test_parse_matches_the_line_loop_oracle(self, case, explicit, block_chars):
        text, delimiter = case
        delimiter = delimiter if explicit and delimiter in ("\t", ",") else None
        with mock.patch("privmf.data._BLOCK_CHARS", block_chars):  # one or several lines per block
            try:
                triples, user_ids, item_ids = oracle_parse(text, delimiter=delimiter)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    parse_ratings(text, delimiter)
                assert str(raised.value) == str(exc)
                return
            ds = parse_ratings(text, delimiter)
        assert (ds.user_ids, ds.item_ids) == (user_ids, item_ids)
        users = np.array([t.user_id for t in triples], dtype=np.int64)
        items = np.array([t.item_id for t in triples], dtype=np.int64)
        ratings = np.array([t.rating for t in triples], dtype=np.float64)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(users, minlength=len(user_ids)))))
        expected = (users, items, ratings, np.lexsort((items, users)), indptr)
        for got, want in zip((ds.users, ds.items, ds.ratings, ds.order, ds.indptr), expected):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", [
        "1\t2\t3\n", "1\t2\t3", "1\t2\t3\t\n", "1,2,3\n4,5,6\n", "01\t2\t3.\t9.9\n", "1\t2\t.5\n",
        f"{2**63 - 1}\t2\t3\n", "1\t2\t1234567890123456789\n", "1\t2\t3\n4\t5\t6\n", "1\t2\t4.5\n3\t4\t5\n",
    ])
    def test_plain_texts_take_the_array_path(self, text):
        assert _parse_columns(text, None) is not None

    @pytest.mark.parametrize("text", [
        "", "\n1\t2\t3\n", "1\t2\t3\n\n4\t5\t6\n", "1\t2\t3\r\n", "1 2 3\n", "\t1\t2\t3\n",
        "1\t2\t3\n4\t5\t6\t7\n", "1\t2\t3\n4\t5\n6\t7\t8\t9\n", "1\t2\n", "+1\t2\t3\n", "1\t2\t-3\n", "1.5\t2\t3\n",
        "1\t2\t3.5.1\n", f"{2**63}\t2\t3\n", "1\t2\t.\n",
        "1\t2\t1e0\n", "1\t2\tnan\n", "1,2\t3\n", "1\t2,3\n", "1\t\t3\n", "\u00b9\t2\t3\n",
    ])
    def test_other_texts_take_the_line_loop(self, text):
        assert _parse_columns(text, None) is None
