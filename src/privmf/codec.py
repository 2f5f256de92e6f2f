"""Binary wire format for client-to-server frames.

Frames are self-delimiting:

    handshake  0x00 | u32 k | u32 n_items
    gradient   0x01 | u32 item_id | u32 k | k * f64 delta
    finish     0x02 | u32 client_id

All integers are little-endian unsigned 32-bit; reals are little-endian
IEEE-754 doubles. decode(encode(m)) == m exactly.

A round travels as one ``RoundUpdates`` value: every client's delta rows
in one block, with each client's segment of it. A gradient frame has a
fixed size, 9 + 8k bytes, so a run of them is one packed record array
``[u1 type, <u4 item, <u4 k, (k,)<f8 delta]``: ``encode_updates`` fills
one such array from the round's block and splices the finish frames in
between the clients' runs of its bytes. ``decode_updates`` walks the
frame type bytes at that stride to find each run of gradient frames, and
reads each run with one ``frombuffer`` back into one block. The bytes are
those of frame-by-frame ``encode_message``, and a malformed stream raises
the ``CodecError`` frame-by-frame decoding raises.
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
_U32_MAX = 2**32 - 1


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
class RoundUpdates:
    """A round's updates: client ``client_ids[i]`` sent rows ``offsets[i]``
    to ``offsets[i + 1]`` of ``item_ids`` and ``deltas``, the segments in
    client order. On the wire each row is a gradient frame and each segment
    ends with its client's finish frame. The arrays are read-only views; a
    malformed shape raises ``ValueError`` when the round is built, so both
    transports reject it alike."""

    client_ids: np.ndarray  # (m,) int64
    offsets: np.ndarray  # (m + 1,) int64, from 0 to n, never decreasing
    item_ids: np.ndarray  # (n,) int64
    deltas: np.ndarray  # (n, k) float64

    def __post_init__(self):
        for name in ("client_ids", "offsets", "item_ids", "deltas"):
            array = np.asarray(getattr(self, name), np.float64 if name == "deltas" else np.int64).view()
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        clients, offsets, n = self.client_ids, self.offsets, len(self.item_ids)
        if clients.ndim != 1 or offsets.ndim != 1 or self.item_ids.ndim != 1:
            raise ValueError("client_ids, offsets and item_ids must be 1-D")
        if self.deltas.ndim != 2 or len(self.deltas) != n:
            raise ValueError(f"deltas of shape {self.deltas.shape} for {n} item ids: need ({n}, k)")
        if len(offsets) != len(clients) + 1:
            raise ValueError(f"{len(offsets)} offsets for {len(clients)} clients: need {len(clients) + 1}")
        if offsets[0] != 0 or offsets[-1] != n or np.any(offsets[1:] < offsets[:-1]):
            raise ValueError(f"offsets must run from 0 to {n} without decreasing")


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


def _dimension_error(k: int, session_k: int) -> CodecError:
    return CodecError(f"gradient dimension {k} does not match session k={session_k}")


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
            raise _dimension_error(k, expect_k)
        size = _HEAD.size + _U32.size + 8 * k
        if remaining < size:
            raise CodecError(f"truncated gradient frame: need {size} bytes, have {remaining}")
        delta = np.frombuffer(data, dtype="<f8", count=k, offset=offset + _HEAD.size + _U32.size)
        return GradientMessage(item_id, delta.copy()), offset + size
    raise CodecError(f"unknown frame type byte 0x{msg_type:02x}")


def iter_messages(data: bytes, expect_k: int | None = None):
    """Decode a concatenation of frames."""
    offset = 0
    while offset < len(data):
        msg, offset = _decode_at(data, offset, expect_k)
        yield msg


def _gradient_dtype(k: int) -> np.dtype:
    """A gradient frame as one packed record: 9 + 8k bytes, no padding."""
    return np.dtype([("type", "u1"), ("item", "<u4"), ("k", "<u4"), ("delta", "<f8", (k,))])


def _first_outside_u32(values) -> int | None:
    """Index of the first value outside ``[0, 2**32)``, if any."""
    bad = (values < 0) | (values > _U32_MAX)
    return int(np.argmax(bad)) if bad.any() else None


def encode_updates(updates: RoundUpdates, handshake: Handshake | None = None) -> bytes:
    """Frames for a round, in client order, each client's gradient frames
    followed by its finish frame; the handshake, when given, goes first.

    The round's gradient frames are one packed record array, filled with
    one assignment of the delta block; each client's run of its bytes is
    spliced in through a memoryview, and the frames are joined once.
    """
    clients, offsets = updates.client_ids, updates.offsets
    # the first client, in order, with an id or an item id outside u32
    bad_client = _first_outside_u32(clients)
    bad_row = _first_outside_u32(updates.item_ids)
    bad_item = len(clients) if bad_row is None else int(np.searchsorted(offsets[1:], bad_row, side="right"))
    if bad_client is not None and bad_client <= bad_item:
        raise CodecError(f"client id {clients[bad_client]} outside [0, 2**32)")
    if bad_row is not None:
        raise CodecError(f"client {clients[bad_item]}: item id outside [0, 2**32)")

    k = updates.deltas.shape[1]
    records = np.empty(len(updates.item_ids), dtype=_gradient_dtype(k))
    records["type"], records["item"], records["k"] = TYPE_GRADIENT, updates.item_ids, k
    records["delta"] = updates.deltas
    frames = [] if handshake is None else [encode_message(handshake)]
    raw, size = memoryview(records.view(np.uint8)), records.itemsize
    for client, a, b in zip(clients.tolist(), offsets[:-1].tolist(), offsets[1:].tolist()):
        frames.append(raw[a * size : b * size])
        frames.append(encode_message(FinishMessage(client)))
    return b"".join(frames)


def decode_updates(data: bytes, k: int, n_items: int) -> RoundUpdates:
    """Regroup a round's frames into a ``RoundUpdates``, one client segment
    per finish frame.

    One walk over the frame type bytes steps over each run of gradient
    frames at their fixed size, 9 + 8k bytes; the frame that ends a run is
    decoded on its own, so a malformed one raises the same ``CodecError``
    as frame-by-frame decoding. The runs are then copied into one item
    array and one delta block, and their ``k`` fields checked: a frame of
    another dimension raises its ``CodecError`` first, before any error
    found further on. Rejects a handshake that differs from the session's
    ``(k, n_items)`` and gradient frames that no finish frame closes.
    """
    records = _gradient_dtype(k)
    size, end = records.itemsize, len(data)
    last = end - size  # the last offset a whole gradient frame can start at
    runs, offsets, clients = [], [0], []
    offset, pending = 0, 0
    try:
        while offset < end:
            start = offset
            while offset <= last and data[offset] == TYPE_GRADIENT:
                offset += size
            if offset > start:
                runs.append((start, (offset - start) // size))
                pending += runs[-1][1]
                if offset == end:
                    break
            msg, offset = _decode_at(data, offset, k)
            if isinstance(msg, FinishMessage):
                offsets.append(offsets[-1] + pending)
                clients.append(msg.client_id)
                pending = 0
            elif (msg.k, msg.n_items) != (k, n_items):
                raise CodecError(f"handshake mismatch: {msg} vs session ({k}, {n_items})")
    except CodecError:
        # a frame of another dimension walked over earlier comes first
        _read_runs(data, runs, records)
        raise
    items, deltas = _read_runs(data, runs, records)
    if pending:
        raise CodecError(f"{pending} gradient frame(s) without a finish frame")
    return RoundUpdates(clients, offsets, items, deltas)


def _read_runs(data: bytes, runs, records: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The item ids and delta rows of the ``(offset, count)`` runs of
    gradient frames, in order; the first frame whose ``k`` field is not the
    runs' dimension raises ``CodecError``."""
    n, k = sum(count for _, count in runs), records["delta"].shape[0]
    items, dims, deltas = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.uint32), np.empty((n, k))
    at = 0
    for offset, count in runs:
        frames = np.frombuffer(data, records, count=count, offset=offset)
        items[at : at + count], dims[at : at + count] = frames["item"], frames["k"]
        deltas[at : at + count] = frames["delta"]
        at += count
    wrong = dims != k
    if wrong.any():
        raise _dimension_error(int(dims[wrong.argmax()]), k)
    return items, deltas
