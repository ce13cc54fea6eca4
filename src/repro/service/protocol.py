"""Wire protocol for the serving layer: length-prefixed binary frames.

Every message — request or response — travels as one frame::

    [u32 payload length (little endian)] [payload]

A request payload is ``[u8 opcode][op-specific body]``; a response payload
is ``[u8 status][op-specific body]``.  Variable-length fields inside a body
are themselves ``u32``-length-prefixed byte strings, so zero-length keys
and values are first-class.

Two properties matter for a server that multiplexes many pipelined
connections:

* **Incremental decoding.**  :class:`FrameDecoder` is fed whatever chunks
  ``read()`` produced — half a header, three frames and a tail, one byte at
  a time — and emits complete payloads in order.  No alignment between TCP
  segments and frames is assumed.
* **Bounded frames.**  A declared payload length above ``max_frame_bytes``
  is a protocol violation by the peer, but not a connection-fatal one: the
  decoder emits a :class:`FrameTooLarge` marker, then *discards* exactly
  the declared number of bytes, so the stream stays framed and the
  connection survives (the server answers the marker with
  ``Status.TOO_LARGE``).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import IntEnum

_U32 = struct.Struct("<I")
_HEADER_SIZE = _U32.size

#: default hard cap on one frame's payload (requests and responses)
MAX_FRAME_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """Malformed frame payload (truncated field, unknown opcode, ...)."""


class Op(IntEnum):
    """Request opcodes."""

    PING = 1
    GET = 2
    PUT = 3
    DELETE = 4
    BATCH = 5
    SCAN = 6
    STATS = 7
    DESCRIBE = 8


class Status(IntEnum):
    """Response status codes."""

    OK = 0
    NOT_FOUND = 1
    #: transient backpressure — the client should back off and retry
    RETRY = 2
    BAD_REQUEST = 3
    TOO_LARGE = 4
    ERROR = 5


#: statuses a well-behaved client retries with backoff
RETRYABLE_STATUSES = frozenset({Status.RETRY})


@dataclass(frozen=True)
class FrameTooLarge:
    """Emitted by :class:`FrameDecoder` in place of an oversized frame."""

    declared_size: int


@dataclass(slots=True)
class Request:
    """One decoded request."""

    op: Op
    key: bytes = b""
    value: bytes = b""
    count: int = 0
    #: BATCH only: ("put", key, value) / ("delete", key) tuples
    ops: list[tuple] = field(default_factory=list)


# -- primitive field encoding ---------------------------------------------------------


def _pack_bytes(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _u32_at(buf: bytes, pos: int) -> int:
    """The ``u32`` at ``pos``; with :func:`_field`, the decoders' only reads."""
    if pos + 4 > len(buf):
        raise ProtocolError("truncated u32")
    return _U32.unpack_from(buf, pos)[0]


def _field(buf: bytes, pos: int) -> tuple[bytes, int]:
    """The length-prefixed byte string at ``pos`` and the offset after it."""
    end = pos + 4 + _u32_at(buf, pos)
    if end > len(buf):
        raise ProtocolError("truncated bytes field")
    return buf[pos + 4:end], end


def _expect_end(buf: bytes, pos: int) -> None:
    if pos != len(buf):
        raise ProtocolError(f"{len(buf) - pos} trailing bytes")


def frame(payload: bytes) -> bytes:
    """Wrap a payload in the length-prefixed frame header."""
    return _U32.pack(len(payload)) + payload


# -- requests --------------------------------------------------------------------------


def encode_ping(payload: bytes = b"") -> bytes:
    return frame(bytes([Op.PING]) + _pack_bytes(payload))


def encode_get(key: bytes) -> bytes:
    return frame(bytes([Op.GET]) + _pack_bytes(key))


def encode_put(key: bytes, value: bytes) -> bytes:
    return frame(bytes([Op.PUT]) + _pack_bytes(key) + _pack_bytes(value))


def encode_delete(key: bytes) -> bytes:
    return frame(bytes([Op.DELETE]) + _pack_bytes(key))


def encode_batch(ops: list[tuple]) -> bytes:
    """Encode ``("put", key, value)`` / ``("delete", key)`` tuples."""
    parts = [bytes([Op.BATCH]), _U32.pack(len(ops))]
    for op in ops:
        if op[0] == "put":
            parts.append(b"\x00" + _pack_bytes(op[1]) + _pack_bytes(op[2]))
        elif op[0] == "delete":
            parts.append(b"\x01" + _pack_bytes(op[1]))
        else:
            raise ValueError(f"unknown batch op {op[0]!r}")
    return frame(b"".join(parts))


def encode_scan(start: bytes, count: int) -> bytes:
    return frame(bytes([Op.SCAN]) + _pack_bytes(start) + _U32.pack(count))


def encode_stats() -> bytes:
    return frame(bytes([Op.STATS]))


def encode_describe() -> bytes:
    return frame(bytes([Op.DESCRIBE]))


_OPS = {int(op): op for op in Op}


def decode_request(payload: bytes) -> Request:
    """Parse one request payload (the bytes inside a frame)."""
    if not payload:
        raise ProtocolError("truncated u8")
    op = _OPS.get(payload[0])
    if op is None:
        raise ProtocolError(f"unknown opcode: {payload[0]} is not a valid Op")
    if op is Op.GET or op is Op.PING or op is Op.DELETE:
        key, pos = _field(payload, 1)
        request = Request(op, key)
    elif op is Op.PUT:
        key, pos = _field(payload, 1)
        value, pos = _field(payload, pos)
        request = Request(op, key, value)
    elif op is Op.SCAN:
        key, pos = _field(payload, 1)
        request = Request(op, key, count=_u32_at(payload, pos))
        pos += 4
    elif op is Op.BATCH:
        request, pos = Request(op), 5
        for __ in range(_u32_at(payload, 1)):
            if pos >= len(payload):
                raise ProtocolError("truncated u8")
            kind = payload[pos]
            if kind == 0:
                key, pos = _field(payload, pos + 1)
                value, pos = _field(payload, pos)
                request.ops.append(("put", key, value))
            elif kind == 1:
                key, pos = _field(payload, pos + 1)
                request.ops.append(("delete", key))
            else:
                raise ProtocolError(f"unknown batch op kind {kind}")
    else:  # STATS / DESCRIBE carry no body
        request, pos = Request(op), 1
    _expect_end(payload, pos)
    return request


# -- responses -------------------------------------------------------------------------


def encode_response(status: Status, body: bytes = b"") -> bytes:
    return frame(bytes([status]) + body)


def decode_response(payload: bytes) -> tuple[Status, bytes]:
    if not payload:
        raise ProtocolError("truncated u8")
    try:
        status = Status(payload[0])
    except ValueError as exc:
        raise ProtocolError(f"unknown status: {exc}") from None
    return status, payload[1:]


def encode_value_body(value: bytes) -> bytes:
    return _pack_bytes(value)


def decode_value_body(body: bytes) -> bytes:
    value, pos = _field(body, 0)
    _expect_end(body, pos)
    return value


def encode_pairs_body(pairs: list[tuple[bytes, bytes]]) -> bytes:
    pack = _U32.pack
    parts = [pack(len(pairs))]
    for key, value in pairs:
        parts += (pack(len(key)), key, pack(len(value)), value)
    return b"".join(parts)


def decode_pairs_body(body: bytes) -> list[tuple[bytes, bytes]]:
    pairs, pos = [], 4
    for __ in range(_u32_at(body, 0)):
        key, pos = _field(body, pos)
        value, pos = _field(body, pos)
        pairs.append((key, value))
    _expect_end(body, pos)
    return pairs


def encode_json_body(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def decode_json_body(body: bytes):
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON body: {exc}") from None


# -- incremental frame decoding ---------------------------------------------------------


class FrameDecoder:
    """Reassembles frames from an arbitrarily chunked byte stream.

    Feed it whatever the transport produced; it returns the payloads of
    every frame completed so far, in order.  Oversized frames surface as
    :class:`FrameTooLarge` markers while their declared bytes are silently
    discarded, keeping the stream framed (see module docstring).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buf = bytearray()
        self._pos = 0
        #: bytes of an oversized frame still to discard
        self._skip = 0

    def feed(self, data: bytes) -> list[bytes | FrameTooLarge]:
        """Absorb ``data``; return the frames it completed (possibly none)."""
        self._buf += data
        out: list[bytes | FrameTooLarge] = []
        while True:
            if self._skip:
                available = len(self._buf) - self._pos
                consumed = min(self._skip, available)
                self._pos += consumed
                self._skip -= consumed
                if self._skip:
                    break  # the oversized body is still streaming in
            if len(self._buf) - self._pos < _HEADER_SIZE:
                break
            (length,) = _U32.unpack_from(self._buf, self._pos)
            if length > self.max_frame_bytes:
                self._pos += _HEADER_SIZE
                self._skip = length
                out.append(FrameTooLarge(length))
                continue
            if len(self._buf) - self._pos - _HEADER_SIZE < length:
                break
            start = self._pos + _HEADER_SIZE
            out.append(bytes(self._buf[start:start + length]))
            self._pos = start + length
        # Compact once the consumed prefix dominates the buffer.
        if self._pos > 4096 and self._pos * 2 > len(self._buf):
            del self._buf[:self._pos]
            self._pos = 0
        return out

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet part of a completed frame."""
        return len(self._buf) - self._pos
