"""A SCAN reply never exceeds the frame limit.

Like ``max_scan_items``, ``max_frame_bytes`` caps a SCAN reply: the handler
stops adding pairs before the reply frame would exceed it, so the client
gets a short reply it can decode instead of a frame it must reject.  Only
when not even the first pair fits is the answer ``Status.TOO_LARGE``.
"""

import struct

from repro.core.store import UniKV
from repro.service import protocol
from repro.service.handler import RequestHandler, Session
from repro.service.protocol import MAX_FRAME_BYTES, FrameDecoder, Status
from repro.service.router import ShardRouter


def _handler(pairs, **kwargs) -> RequestHandler:
    store = UniKV()
    for key, value in pairs:
        store.put(key, value)
    return RequestHandler(ShardRouter([store], []), **kwargs)


def _scan(handler: RequestHandler, start: bytes, count: int) -> bytes:
    return handler.handle_now(protocol.encode_scan(start, count)[4:], Session())


def _decoded(reply: bytes, max_frame_bytes: int = MAX_FRAME_BYTES):
    (payload,) = FrameDecoder(max_frame_bytes).feed(reply)
    return protocol.decode_response(payload)


def test_large_values_give_a_short_reply_within_the_frame_limit():
    pairs = [(b"key-%02d" % i, bytes([65 + i % 26]) * 100_000) for i in range(50)]
    reply = _scan(_handler(pairs), b"", 50)
    # 50 pairs of 100 KB would be a ~5 MB frame; the reply stops short.
    assert len(reply) - 4 <= MAX_FRAME_BYTES
    status, body = _decoded(reply)
    assert status == Status.OK
    got = protocol.decode_pairs_body(body)
    per_pair = 8 + len(pairs[0][0]) + len(pairs[0][1])
    assert got == pairs[:len(got)]
    assert len(got) == (MAX_FRAME_BYTES - 5) // per_pair  # as many as fit


def test_reply_may_fill_the_frame_exactly():
    pairs = [(b"a", b"x" * 10), (b"b", b"y" * 10), (b"c", b"z" * 10)]
    two_pairs = 5 + 2 * (8 + 1 + 10)
    for limit, expected in ((two_pairs, 2), (two_pairs - 1, 1), (two_pairs + 18, 2)):
        reply = _scan(_handler(pairs, max_frame_bytes=limit), b"", 3)
        status, body = _decoded(reply, limit)
        assert status == Status.OK
        assert protocol.decode_pairs_body(body) == pairs[:expected]


def test_first_pair_larger_than_the_frame_is_too_large():
    handler = _handler([(b"big", b"v" * 2000), (b"small", b"s")], max_frame_bytes=1024)
    status, body = _decoded(_scan(handler, b"", 10), 1024)
    assert status == Status.TOO_LARGE
    assert b"1024" in body
    # A scan that starts past the oversized pair is answered normally.
    status, body = _decoded(_scan(handler, b"c", 10), 1024)
    assert status == Status.OK
    assert protocol.decode_pairs_body(body) == [(b"small", b"s")]


def test_normal_scan_reply_bytes_are_unchanged():
    handler = _handler([(b"a", b"1"), (b"b", b"22"), (b"c", b"")])
    u32 = struct.Struct("<I").pack
    body = (u32(3) + u32(1) + b"a" + u32(1) + b"1" + u32(1) + b"b" + u32(2) + b"22"
            + u32(1) + b"c" + u32(0))
    assert _scan(handler, b"", 10) == u32(1 + len(body)) + b"\x00" + body
    assert _scan(handler, b"zz", 10) == u32(5) + b"\x00" + u32(0)
