"""Wire-protocol edge cases: framing, partial reads, limits."""

import struct

import pytest

from repro.service import protocol
from repro.service.protocol import (
    FrameDecoder,
    FrameTooLarge,
    Op,
    ProtocolError,
    Status,
)


def payload_of(frame_bytes: bytes) -> bytes:
    """Strip the length header off a single complete frame."""
    (length,) = struct.unpack_from("<I", frame_bytes)
    assert len(frame_bytes) == 4 + length
    return frame_bytes[4:]


# -- request round trips ----------------------------------------------------------------

def test_request_round_trips():
    cases = [
        (protocol.encode_ping(b"hi"), Op.PING),
        (protocol.encode_get(b"k"), Op.GET),
        (protocol.encode_put(b"k", b"v"), Op.PUT),
        (protocol.encode_delete(b"k"), Op.DELETE),
        (protocol.encode_scan(b"start", 17), Op.SCAN),
        (protocol.encode_stats(), Op.STATS),
        (protocol.encode_describe(), Op.DESCRIBE),
    ]
    for frame_bytes, op in cases:
        req = protocol.decode_request(payload_of(frame_bytes))
        assert req.op == op
    req = protocol.decode_request(payload_of(protocol.encode_put(b"k", b"v")))
    assert (req.key, req.value) == (b"k", b"v")
    req = protocol.decode_request(payload_of(protocol.encode_scan(b"s", 17)))
    assert (req.key, req.count) == (b"s", 17)


def test_batch_round_trip():
    ops = [("put", b"a", b"1"), ("delete", b"b"), ("put", b"c", b"3")]
    req = protocol.decode_request(payload_of(protocol.encode_batch(ops)))
    assert req.op == Op.BATCH
    assert req.ops == ops


def test_zero_length_keys_and_values_are_first_class():
    req = protocol.decode_request(payload_of(protocol.encode_put(b"", b"")))
    assert (req.key, req.value) == (b"", b"")
    req = protocol.decode_request(payload_of(protocol.encode_get(b"")))
    assert req.key == b""
    ops = [("put", b"", b""), ("delete", b"")]
    req = protocol.decode_request(payload_of(protocol.encode_batch(ops)))
    assert req.ops == ops
    body = protocol.encode_pairs_body([(b"", b"")])
    assert protocol.decode_pairs_body(body) == [(b"", b"")]


def test_response_round_trip():
    frame_bytes = protocol.encode_response(
        Status.OK, protocol.encode_value_body(b"value"))
    status, body = protocol.decode_response(payload_of(frame_bytes))
    assert status == Status.OK
    assert protocol.decode_value_body(body) == b"value"
    pairs = [(b"k1", b"v1"), (b"k2", b"v2")]
    status, body = protocol.decode_response(payload_of(
        protocol.encode_response(Status.OK, protocol.encode_pairs_body(pairs))))
    assert protocol.decode_pairs_body(body) == pairs


# -- malformed payloads -----------------------------------------------------------------

def test_unknown_opcode_rejected():
    with pytest.raises(ProtocolError):
        protocol.decode_request(b"\xff")


def test_truncated_fields_rejected():
    good = payload_of(protocol.encode_put(b"key", b"value"))
    for cut in range(1, len(good)):
        with pytest.raises(ProtocolError):
            protocol.decode_request(good[:cut])


def test_trailing_garbage_rejected():
    good = payload_of(protocol.encode_get(b"key"))
    with pytest.raises(ProtocolError):
        protocol.decode_request(good + b"x")


def test_unknown_status_rejected():
    with pytest.raises(ProtocolError):
        protocol.decode_response(b"\xee")


# -- incremental decoding ---------------------------------------------------------------

def test_decoder_handles_byte_at_a_time_delivery():
    frames = [protocol.encode_get(b"alpha"), protocol.encode_put(b"b", b"2"),
              protocol.encode_ping(b"")]
    stream = b"".join(frames)
    decoder = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(decoder.feed(stream[i:i + 1]))
    assert out == [payload_of(f) for f in frames]
    assert decoder.pending_bytes() == 0


def test_decoder_handles_many_frames_in_one_chunk():
    frames = [protocol.encode_put(b"k%d" % i, b"v%d" % i) for i in range(50)]
    decoder = FrameDecoder()
    out = decoder.feed(b"".join(frames))
    assert out == [payload_of(f) for f in frames]


def test_decoder_split_across_header_boundary():
    frame_bytes = protocol.encode_get(b"key")
    decoder = FrameDecoder()
    assert decoder.feed(frame_bytes[:2]) == []       # half a header
    assert decoder.feed(frame_bytes[2:5]) == []      # header + 1 body byte
    assert decoder.feed(frame_bytes[5:]) == [payload_of(frame_bytes)]


def test_decoder_oversized_frame_skipped_stream_survives():
    decoder = FrameDecoder(max_frame_bytes=64)
    big = protocol.frame(b"x" * 200)
    good = protocol.encode_get(b"after")
    out = decoder.feed(big + good)
    assert isinstance(out[0], FrameTooLarge)
    assert out[0].declared_size == 200
    assert out[1] == payload_of(good)


def test_decoder_oversized_frame_streamed_in_pieces():
    decoder = FrameDecoder(max_frame_bytes=16)
    big = protocol.frame(b"y" * 100)
    good = protocol.encode_ping(b"ok")
    stream = big + good
    out = []
    for i in range(0, len(stream), 7):
        out.extend(decoder.feed(stream[i:i + 7]))
    assert [type(x) for x in out] == [FrameTooLarge, bytes]
    assert out[1] == payload_of(good)
    assert decoder.pending_bytes() == 0


def test_decoder_buffer_compaction_keeps_decoding():
    decoder = FrameDecoder()
    frames = [protocol.encode_put(b"key-%04d" % i, b"v" * 200)
              for i in range(100)]
    out = []
    for f in frames:
        out.extend(decoder.feed(f))
    assert out == [payload_of(f) for f in frames]


# -- property: re-chunking never changes what the decoder emits -------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _frame_stream(draw):
    """A valid multi-frame byte stream plus its expected payloads."""
    payloads = draw(st.lists(st.binary(max_size=64), min_size=1, max_size=8))
    stream = b"".join(protocol.frame(p) for p in payloads)
    return payloads, stream


@settings(max_examples=100, deadline=None)
@given(_frame_stream(), st.data())
def test_decoder_invariant_under_rechunking(frames, data):
    """Any split of the stream — including 1-byte feeds — decodes to the
    exact same payload sequence as feeding it whole."""
    payloads, stream = frames
    cuts = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(stream)), max_size=12))
    bounds = [0] + sorted(set(cuts)) + [len(stream)]
    decoder = FrameDecoder()
    out = []
    for a, b in zip(bounds, bounds[1:]):
        out.extend(decoder.feed(stream[a:b]))
    assert out == payloads
    assert decoder.pending_bytes() == 0


def test_decoder_one_byte_feed_equals_whole_feed():
    payloads = [b"", b"x", b"hello world", b"\x00" * 31]
    stream = b"".join(protocol.frame(p) for p in payloads)
    whole = FrameDecoder().feed(stream)
    decoder = FrameDecoder()
    trickled = []
    for i in range(len(stream)):
        trickled.extend(decoder.feed(stream[i:i + 1]))
    assert trickled == whole == payloads


# -- exact error texts at every truncation point ---------------------------------------

#: a payload and the (kind, width) of each of its fields, in order
_LAYOUTS = {
    "put": (protocol.encode_put(b"key", b"value"),
            [("u8", 1), ("u32", 4), ("bytes", 3), ("u32", 4), ("bytes", 5)]),
    "scan": (protocol.encode_scan(b"start", 7),
             [("u8", 1), ("u32", 4), ("bytes", 5), ("u32", 4)]),
    "batch": (protocol.encode_batch([("put", b"a", b"1"), ("delete", b"bb"),
                                     ("put", b"c", b"333")]),
              [("u8", 1), ("u32", 4),
               ("u8", 1), ("u32", 4), ("bytes", 1), ("u32", 4), ("bytes", 1),
               ("u8", 1), ("u32", 4), ("bytes", 2),
               ("u8", 1), ("u32", 4), ("bytes", 1), ("u32", 4), ("bytes", 3)]),
}
_TRUNCATED = {"u8": "truncated u8", "u32": "truncated u32",
              "bytes": "truncated bytes field"}


def _truncation_cases():
    for name, (frame_bytes, layout) in _LAYOUTS.items():
        payload = payload_of(frame_bytes)
        assert sum(width for __, width in layout) == len(payload)
        end = 0
        for kind, width in layout:
            for cut in range(end, end + width):
                yield pytest.param(payload[:cut], _TRUNCATED[kind],
                                   id=f"{name}-cut{cut}")
            end += width
        yield pytest.param(payload + b"x", "1 trailing bytes", id=f"{name}-trailing")


@pytest.mark.parametrize("payload, message", [
    *_truncation_cases(),
    pytest.param(b"\x09", "unknown opcode: 9 is not a valid Op", id="opcode-9"),
    pytest.param(b"\x00\x00", "unknown opcode: 0 is not a valid Op", id="opcode-0"),
    pytest.param(b"\x07\x00", "1 trailing bytes", id="stats-trailing"),
    pytest.param(b"\x05\x01\x00\x00\x00\x02", "unknown batch op kind 2",
                 id="batch-kind-2"),
])
def test_decode_request_error_text(payload, message):
    """Every malformed request is answered BAD_REQUEST with this exact text."""
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_request(payload)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("decode, body, message", [
    (protocol.decode_response, b"", "truncated u8"),
    (protocol.decode_response, b"\xee", "unknown status: 238 is not a valid Status"),
    (protocol.decode_value_body, b"\x03\x00\x00", "truncated u32"),
    (protocol.decode_value_body, b"\x03\x00\x00\x00ab", "truncated bytes field"),
    (protocol.decode_value_body, b"\x01\x00\x00\x00abc", "2 trailing bytes"),
    (protocol.decode_pairs_body, b"\x01\x00\x00", "truncated u32"),
    (protocol.decode_pairs_body, b"\x01\x00\x00\x00\x01\x00\x00\x00k",
     "truncated u32"),
    (protocol.decode_pairs_body, b"\x00\x00\x00\x00z", "1 trailing bytes"),
])
def test_response_decoders_error_text(decode, body, message):
    with pytest.raises(ProtocolError) as excinfo:
        decode(body)
    assert str(excinfo.value) == message
