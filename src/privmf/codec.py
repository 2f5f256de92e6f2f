"""Binary wire format for client-to-server frames.

Frames are self-delimiting:

    handshake  0x00 | u32 k | u32 n_items
    gradient   0x01 | u32 item_id | u32 k | k * f64 delta
    finish     0x02 | u32 client_id

All integers are little-endian unsigned 32-bit; reals are little-endian
IEEE-754 doubles. decode(encode(m)) == m exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

TYPE_HANDSHAKE = 0x00
TYPE_GRADIENT = 0x01
TYPE_FINISH = 0x02

_HEAD = struct.Struct("<BI")
_U32 = struct.Struct("<I")


class CodecError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class GradientMessage:
    item_id: int
    delta: np.ndarray = field(repr=False)

    def __eq__(self, other):
        return (
            isinstance(other, GradientMessage)
            and self.item_id == other.item_id
            and np.array_equal(self.delta, other.delta)
        )


@dataclass(frozen=True)
class FinishMessage:
    client_id: int


@dataclass(frozen=True)
class Handshake:
    k: int
    n_items: int


Message = GradientMessage | FinishMessage | Handshake


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """One client's round: a delta row per sent item, ids ascending. On the
    wire it is a gradient frame per row, then the client's finish frame."""

    client_id: int
    item_ids: np.ndarray = field(repr=False)  # (n,) int64
    deltas: np.ndarray = field(repr=False)  # (n, k) float64


def encode_message(msg: Message) -> bytes:
    if isinstance(msg, GradientMessage):
        delta = np.ascontiguousarray(msg.delta, dtype="<f8")
        return (
            _HEAD.pack(TYPE_GRADIENT, msg.item_id)
            + _U32.pack(delta.shape[0])
            + delta.tobytes()
        )
    if isinstance(msg, FinishMessage):
        return _HEAD.pack(TYPE_FINISH, msg.client_id)
    if isinstance(msg, Handshake):
        return _HEAD.pack(TYPE_HANDSHAKE, msg.k) + _U32.pack(msg.n_items)
    raise CodecError(f"cannot encode {type(msg).__name__}")


def _decode_at(data: bytes, offset: int, expect_k: int | None) -> tuple[Message, int]:
    """Decode one frame starting at ``offset``; returns (message, next offset)."""
    remaining = len(data) - offset
    if remaining < 1:
        raise CodecError("truncated frame: empty buffer")
    msg_type = data[offset]
    if msg_type == TYPE_FINISH:
        if remaining < _HEAD.size:
            raise CodecError("truncated finish frame")
        _, client_id = _HEAD.unpack_from(data, offset)
        return FinishMessage(client_id), offset + _HEAD.size
    if msg_type == TYPE_HANDSHAKE:
        if remaining < _HEAD.size + _U32.size:
            raise CodecError("truncated handshake frame")
        _, k = _HEAD.unpack_from(data, offset)
        (n_items,) = _U32.unpack_from(data, offset + _HEAD.size)
        return Handshake(k, n_items), offset + _HEAD.size + _U32.size
    if msg_type == TYPE_GRADIENT:
        if remaining < _HEAD.size + _U32.size:
            raise CodecError("truncated gradient frame header")
        _, item_id = _HEAD.unpack_from(data, offset)
        (k,) = _U32.unpack_from(data, offset + _HEAD.size)
        if expect_k is not None and k != expect_k:
            raise CodecError(f"gradient dimension {k} does not match session k={expect_k}")
        size = _HEAD.size + _U32.size + 8 * k
        if remaining < size:
            raise CodecError(f"truncated gradient frame: need {size} bytes, have {remaining}")
        delta = np.frombuffer(data, dtype="<f8", count=k, offset=offset + _HEAD.size + _U32.size)
        return GradientMessage(item_id, delta.copy()), offset + size
    raise CodecError(f"unknown frame type byte 0x{msg_type:02x}")


def decode_message(data: bytes, expect_k: int | None = None) -> tuple[Message, int]:
    """Decode one frame from the head of ``data``; returns (message, bytes consumed)."""
    return _decode_at(data, 0, expect_k)


def iter_messages(data: bytes, expect_k: int | None = None):
    """Decode a concatenation of frames."""
    offset = 0
    while offset < len(data):
        msg, offset = _decode_at(data, offset, expect_k)
        yield msg


def encode_updates(updates, handshake: Handshake | None = None) -> bytes:
    """Frames for a round's updates, in order, each client's gradient frames
    followed by its finish frame; the handshake, when given, goes first."""
    frames = [] if handshake is None else [encode_message(handshake)]
    for update in updates:
        for item_id, delta in zip(update.item_ids, update.deltas):
            frames.append(encode_message(GradientMessage(int(item_id), delta)))
        frames.append(encode_message(FinishMessage(update.client_id)))
    return b"".join(frames)


def decode_updates(data: bytes, k: int, n_items: int) -> list[ClientUpdate]:
    """Regroup a round's frames into updates, one per finish frame.

    Rejects a handshake that differs from the session's ``(k, n_items)``
    and gradient frames that no finish frame closes.
    """
    updates, ids, rows = [], [], []
    for msg in iter_messages(data, expect_k=k):
        if isinstance(msg, GradientMessage):
            ids.append(msg.item_id)
            rows.append(msg.delta)
        elif isinstance(msg, FinishMessage):
            deltas = np.array(rows, dtype=np.float64).reshape(len(ids), k)
            updates.append(ClientUpdate(msg.client_id, np.array(ids, dtype=np.int64), deltas))
            ids, rows = [], []
        elif (msg.k, msg.n_items) != (k, n_items):
            raise CodecError(f"handshake mismatch: {msg} vs session ({k}, {n_items})")
    if ids:
        raise CodecError(f"{len(ids)} gradient frame(s) without a finish frame")
    return updates
