import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmf.codec import (
    ClientUpdate,
    CodecError,
    FinishMessage,
    GradientMessage,
    Handshake,
    decode_message,
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
    return [
        ClientUpdate(4, np.array([1, 9]), np.array([[1.5, -2.5, 0.0], [0.25, 0.5, 4.0]])),
        ClientUpdate(2, np.empty(0, dtype=np.int64), np.empty((0, 3))),
        ClientUpdate(7, np.array([0]), np.array([[-0.0, 1e-300, 3.0]])),
    ]


def assert_updates_equal(got, expected):
    assert [u.client_id for u in got] == [u.client_id for u in expected]
    for a, b in zip(got, expected):
        assert np.array_equal(a.item_ids, b.item_ids)
        assert a.deltas.shape == b.deltas.shape
        assert np.array_equal(a.deltas.view(np.uint64), b.deltas.view(np.uint64))


class TestUpdates:
    def test_updates_are_frame_sequences(self):
        updates = sample_updates()
        frames = [Handshake(3, 10)]
        for up in updates:
            frames += [GradientMessage(int(j), d) for j, d in zip(up.item_ids, up.deltas)]
            frames.append(FinishMessage(up.client_id))
        expected = b"".join(encode_message(m) for m in frames)
        assert encode_updates(updates, Handshake(3, 10)) == expected
        assert encode_updates(updates) == expected[len(encode_message(Handshake(3, 10))):]

    def test_updates_roundtrip(self):
        updates = sample_updates()
        assert_updates_equal(decode_updates(encode_updates(updates, Handshake(3, 10)), 3, 10), updates)
        assert_updates_equal(decode_updates(encode_updates(updates), 3, 10), updates)


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
