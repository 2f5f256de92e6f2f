import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_message, round_of, segments
from privmf.codec import (
    CodecError,
    FinishMessage,
    GradientMessage,
    Handshake,
    RoundUpdates,
    decode_updates,
    encode_message,
    encode_updates,
    iter_messages,
)


class TestFixedLayouts:
    def test_gradient_frame_bytes(self):
        msg = GradientMessage(3, np.array([0.0, 1.0]))
        encoded = encode_message(msg)
        expected = bytes.fromhex("01" "03000000" "02000000" "0000000000000000" "000000000000f03f")
        assert encoded == expected
        assert len(encoded) == 25

    def test_finish_frame_bytes(self):
        encoded = encode_message(FinishMessage(7))
        assert encoded == bytes.fromhex("02" "07000000")
        assert len(encoded) == 5

    def test_handshake_frame_bytes(self):
        encoded = encode_message(Handshake(k=2, n_items=1682))
        assert encoded == bytes.fromhex("00" "02000000" "92060000")
        assert len(encoded) == 9


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(
        item=st.integers(min_value=0, max_value=2**32 - 1),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=0, max_size=12
        ),
    )
    def test_gradient_roundtrip(self, item, values):
        msg = GradientMessage(item, np.array(values, dtype=np.float64))
        decoded, used = decode_message(encode_message(msg))
        assert used == 9 + 8 * len(values)
        assert decoded == msg

    @given(client=st.integers(min_value=0, max_value=2**32 - 1))
    def test_finish_roundtrip(self, client):
        decoded, _ = decode_message(encode_message(FinishMessage(client)))
        assert decoded == FinishMessage(client)

    def test_many_random_messages_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            if rng.random() < 0.2:
                msg = FinishMessage(int(rng.integers(0, 2**31)))
            else:
                msg = GradientMessage(int(rng.integers(0, 2**31)), rng.normal(size=4))
            decoded, _ = decode_message(encode_message(msg))
            assert decoded == msg

    def test_stream_of_frames(self):
        msgs = [
            Handshake(3, 10),
            GradientMessage(1, np.array([1.5, -2.5, 0.0])),
            FinishMessage(0),
            GradientMessage(9, np.array([0.25, 0.5, 4.0])),
        ]
        blob = b"".join(encode_message(m) for m in msgs)
        assert list(iter_messages(blob)) == msgs


def sample_updates():
    return round_of([
        (4, [1, 9], [[1.5, -2.5, 0.0], [0.25, 0.5, 4.0]]),
        (2, [], np.empty((0, 3))),
        (7, [0], [[-0.0, 1e-300, 3.0]]),
    ], 3)


def assert_updates_equal(got, expected):
    assert isinstance(got, RoundUpdates)
    assert np.array_equal(got.client_ids, expected.client_ids)
    assert np.array_equal(got.offsets, expected.offsets)
    assert np.array_equal(got.item_ids, expected.item_ids)
    assert got.deltas.shape == expected.deltas.shape
    assert np.array_equal(got.deltas.view(np.uint64), expected.deltas.view(np.uint64))


class TestUpdates:
    def test_updates_are_frame_sequences(self):
        updates = sample_updates()
        frames = [Handshake(3, 10)]
        for client, ids, deltas in segments(updates):
            frames += [GradientMessage(int(j), d) for j, d in zip(ids, deltas)]
            frames.append(FinishMessage(client))
        expected = b"".join(encode_message(m) for m in frames)
        assert encode_updates(updates, Handshake(3, 10)) == expected
        assert encode_updates(updates) == expected[len(encode_message(Handshake(3, 10))):]

    def test_updates_roundtrip(self):
        updates = sample_updates()
        assert_updates_equal(decode_updates(encode_updates(updates, Handshake(3, 10)), 3, 10), updates)
        assert_updates_equal(decode_updates(encode_updates(updates), 3, 10), updates)


SPECIAL_DELTAS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072e-310, float("inf"), float("-inf")]


@st.composite
def update_lists(draw):
    k = draw(st.integers(min_value=1, max_value=12))
    delta = st.one_of(st.floats(allow_nan=False, width=64), st.sampled_from(SPECIAL_DELTAS))
    updates = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        n = draw(st.integers(min_value=0, max_value=6))
        ids = draw(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=n, max_size=n))
        values = draw(st.lists(delta, min_size=n * k, max_size=n * k))
        client = draw(st.integers(min_value=0, max_value=2**32 - 1))
        updates.append((client, ids, values))
    return k, round_of(updates, k)


def frame_by_frame(updates, handshake=None):
    frames = [] if handshake is None else [handshake]
    for client, ids, deltas in segments(updates):
        frames += [GradientMessage(int(j), d) for j, d in zip(ids, deltas)]
        frames.append(FinishMessage(client))
    return b"".join(encode_message(m) for m in frames)


def decode_frame_by_frame(data, k, n_items):
    """The per-frame decoder the batch decoder must agree with, errors included."""
    updates, ids, rows = [], [], []
    for msg in iter_messages(data, expect_k=k):
        if isinstance(msg, GradientMessage):
            ids.append(msg.item_id)
            rows.append(msg.delta)
        elif isinstance(msg, FinishMessage):
            updates.append((msg.client_id, ids, rows))
            ids, rows = [], []
        elif (msg.k, msg.n_items) != (k, n_items):
            raise CodecError(f"handshake mismatch: {msg} vs session ({k}, {n_items})")
    if ids:
        raise CodecError(f"{len(ids)} gradient frame(s) without a finish frame")
    return round_of(updates, k)


def assert_same_decoding(data, k, n_items):
    try:
        expected = decode_frame_by_frame(data, k, n_items)
    except CodecError as exc:
        with pytest.raises(CodecError) as got:
            decode_updates(data, k, n_items)
        assert str(got.value) == str(exc)
    else:
        assert_updates_equal(decode_updates(data, k, n_items), expected)


class TestBatchProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=update_lists(), n_items=st.integers(min_value=0, max_value=2**32 - 1))
    def test_batch_equals_frame_by_frame(self, case, n_items):
        k, updates = case
        handshake = Handshake(k, n_items)
        for hs in (None, handshake):
            data = encode_updates(updates, hs)
            assert data == frame_by_frame(updates, hs)
            assert_updates_equal(decode_updates(data, k, n_items), updates)

    @settings(max_examples=200, deadline=None)
    @given(case=update_lists(), cut=st.integers(min_value=0))
    def test_truncated_streams_fail_like_frame_by_frame(self, case, cut):
        k, updates = case
        data = encode_updates(updates, Handshake(k, 10))
        assert_same_decoding(data[: cut % (len(data) + 1)], k, 10)


class TestBatchErrors:
    def rows(self, n, k=3, item=0):
        update = round_of([(1, np.arange(item, item + n), np.ones((n, k)))], k)
        return encode_updates(update)[:-5]  # gradient frames only, no finish

    def test_dimension_mismatch_inside_a_run(self):
        bad = encode_message(GradientMessage(2, np.zeros(2)))
        data = self.rows(70) + bad + self.rows(5) + encode_message(FinishMessage(1))
        assert_same_decoding(data, 3, 10)
        with pytest.raises(CodecError, match="gradient dimension 2 does not match session k=3"):
            decode_updates(data, 3, 10)

    def test_truncated_last_gradient_frame(self):
        for cut in (1, 9, 20):
            data = self.rows(4)[:-cut]
            assert_same_decoding(data, 3, 10)
            with pytest.raises(CodecError, match="truncated gradient frame"):
                decode_updates(data, 3, 10)

    def test_unknown_type_byte_after_a_run(self):
        data = self.rows(3) + b"\x7f\x00\x00\x00\x00" + encode_message(FinishMessage(1))
        assert_same_decoding(data, 3, 10)
        with pytest.raises(CodecError, match="unknown frame type byte 0x7f"):
            decode_updates(data, 3, 10)

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_item_id_outside_u32(self, bad):
        update = round_of([(0, [3, bad], np.zeros((2, 3)))], 3)
        with pytest.raises(CodecError, match="item id outside"):
            encode_updates(update)

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_client_id_outside_u32(self, bad):
        update = round_of([(bad, [3], np.zeros((1, 3)))], 3)
        with pytest.raises(CodecError, match="client id .* outside"):
            encode_updates(update)


class TestWholeRound:
    def test_views_of_one_block_encode_as_separate_arrays(self):
        block = np.random.default_rng(3).normal(size=(9, 4))
        ids = np.arange(9, dtype=np.int64)
        cuts = [(0, 4), (4, 4), (4, 9)]  # the middle client sends nothing
        whole = RoundUpdates([0, 1, 2], [0, 4, 4, 9], ids, block)
        copies = round_of([(c, ids[a:b].copy(), block[a:b].copy()) for c, (a, b) in enumerate(cuts)], 4)
        assert encode_updates(whole) == encode_updates(copies) == frame_by_frame(copies)
        empty = round_of([], 4)
        assert encode_updates(empty) == frame_by_frame(empty) == b""

    @pytest.mark.parametrize("bad_client", [False, True])
    def test_u32_error_names_the_first_offending_client(self, bad_client):
        ok = (7, [1, 2], np.zeros((2, 3)))
        late = (9, [2**32], np.zeros((1, 3)))
        first = (-1 if bad_client else 8, [3, -1], np.zeros((2, 3)))
        match = "client id -1 outside" if bad_client else "client 8: item id outside"
        with pytest.raises(CodecError, match=match):
            encode_updates(round_of([ok, first, late], 3))

    def test_round_shares_one_dimension(self):
        # one delta block: every gradient frame of a round has its width
        frames = list(iter_messages(encode_updates(sample_updates())))
        assert {len(m.delta) for m in frames if isinstance(m, GradientMessage)} == {3}
        with pytest.raises(ValueError):
            RoundUpdates([0, 1], [0, 1, 2], [1, 2], [np.zeros(3), np.zeros(2)])


class TestErrors:
    def test_truncated_frames(self):
        full = encode_message(GradientMessage(1, np.array([1.0, 2.0])))
        for cut in (0, 3, 8, 12, len(full) - 1):
            with pytest.raises(CodecError, match="truncated|empty"):
                decode_message(full[:cut])

    def test_unknown_type_byte(self):
        with pytest.raises(CodecError, match="unknown frame type"):
            decode_message(b"\x7f\x00\x00\x00\x00")

    def test_dimension_mismatch_with_session(self):
        frame = encode_message(GradientMessage(1, np.array([1.0, 2.0, 3.0])))
        with pytest.raises(CodecError, match="does not match session"):
            decode_message(frame, expect_k=2)
        decoded, _ = decode_message(frame, expect_k=3)
        assert decoded.item_id == 1

    def test_handshake_mismatch_with_session(self):
        for handshake in (Handshake(2, 10), Handshake(3, 11)):
            data = encode_updates(sample_updates(), handshake)
            with pytest.raises(CodecError, match="handshake mismatch"):
                decode_updates(data, 3, 10)

    def test_gradients_without_finish(self):
        data = encode_updates(sample_updates()) + encode_message(GradientMessage(1, np.zeros(3)))
        with pytest.raises(CodecError, match="without a finish frame"):
            decode_updates(data, 3, 10)


def frame_starts(updates, handshake=None):
    """The offset of every frame of ``encode_updates(updates, handshake)``
    and whether it is a gradient frame."""
    size, at, starts = 9 + 8 * updates.deltas.shape[1], 0, []
    if handshake is not None:
        at, starts = 9, [(0, False)]
    for _, ids, _ in segments(updates):
        starts += [(at + j * size, True) for j in range(len(ids))]
        at += len(ids) * size
        starts.append((at, False))
        at += 5
    return starts


@st.composite
def corrupted_rounds(draw):
    """A multi-client round's bytes with one frame's type byte or ``k``
    field overwritten, or cut anywhere."""
    k, updates = draw(update_lists())
    data = bytearray(encode_updates(updates, Handshake(k, 10)))
    starts = frame_starts(updates, Handshake(k, 10))
    gradients = [at for at, gradient in starts if gradient]
    how = draw(st.sampled_from(["type", "k", "cut"] if gradients else ["type", "cut"]))
    if how == "type":
        at, _ = draw(st.sampled_from(starts))
        data[at] = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 255)))
    elif how == "k":
        at = draw(st.sampled_from(gradients))
        data[at + 5 : at + 9] = draw(st.integers(0, 2 * k + 2)).to_bytes(4, "little")
    else:
        del data[draw(st.integers(0, len(data))) :]
    return k, bytes(data)


class TestCorruption:
    @settings(max_examples=200, deadline=None)
    @given(case=corrupted_rounds())
    def test_corrupted_round_fails_like_frame_by_frame(self, case):
        k, data = case
        assert_same_decoding(data, k, 10)

    def test_wrong_dimension_before_an_unknown_type_byte(self):
        # client 0's run holds a frame of another k, and client 2's run ends
        # at an unknown type byte: frame by frame, the dimension comes first
        updates = round_of([(c, np.arange(4), np.ones((4, 3))) for c in range(3)], 3)
        data = bytearray(encode_updates(updates))
        starts = [at for at, gradient in frame_starts(updates) if gradient]
        data[starts[1] + 5 : starts[1] + 9] = (2).to_bytes(4, "little")
        data[starts[10]] = 0x7F
        assert_same_decoding(bytes(data), 3, 10)
        with pytest.raises(CodecError, match="gradient dimension 2 does not match session k=3"):
            decode_updates(bytes(data), 3, 10)
