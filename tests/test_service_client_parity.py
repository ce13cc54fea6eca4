"""The client core alone, the blocking transport and the asyncio transport
agree on one scripted conversation.

A scripted server answers each request frame with the next canned reply:
OK, NOT_FOUND, RETRY then OK, ERROR, TOO_LARGE, an oversized response
frame, then a closed connection on the call and on its retry.  All three
paths must send byte-identical request frames and produce the same
results, exceptions and ``total_retries``.
"""

import asyncio
import socket
import struct
import threading

from repro.service import protocol
from repro.service.client import AsyncKVClient, ClientCore, KVClient, RetryPolicy
from repro.service.protocol import FrameDecoder, Status

#: client frame limit; the oversized reply declares more than this
MAX_FRAME = 64
#: scripted reply meaning "read the request, then close the connection"
CLOSE = None

CALLS = [
    ("get", (b"k1",)),
    ("get", (b"k2",)),
    ("put", (b"k3", b"v3")),
    ("delete", (b"k4",)),
    ("scan", (b"a", 5)),
    ("ping", (b"p",)),
    ("stats", ()),
]
REPLIES = [
    protocol.encode_response(Status.OK, protocol.encode_value_body(b"v1")),
    protocol.encode_response(Status.NOT_FOUND),
    protocol.encode_response(Status.RETRY, b"busy"),
    protocol.encode_response(Status.OK, struct.pack("<I", 1)),
    protocol.encode_response(Status.ERROR, b"boom"),
    protocol.encode_response(Status.TOO_LARGE, b"too big"),
    struct.pack("<I", 100) + b"x" * 100,
    CLOSE,
    CLOSE,
]
EXPECTED = [
    b"v1",
    None,
    1,
    ("ServerError", "ERROR: boom"),
    ("ServerError", "TOO_LARGE: too big"),
    ("ProtocolError", "server response of 100 bytes exceeds the frame limit"),
    ("TransientError", "gave up after 1 retries: server closed the connection"),
]


def policy() -> RetryPolicy:
    return RetryPolicy(retries=1, backoff_base_s=0.001, jitter=0.0)


def result_of(call):
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


class ScriptedServer:
    """Answers request frames with :data:`REPLIES`, in order, across
    connections; records every request frame it reads."""

    def __init__(self) -> None:
        self.requests: list[bytes] = []
        self._replies = list(REPLIES)
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self._sock:
            while self._replies:
                conn, __ = self._sock.accept()
                with conn:
                    self._answer(conn)

    def _answer(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        while self._replies:
            data = conn.recv(64 * 1024)
            if not data:
                return
            for payload in decoder.feed(data):
                self.requests.append(protocol.frame(payload))
                reply = self._replies.pop(0)
                if reply is CLOSE:
                    return
                conn.sendall(reply)

    def join(self) -> None:
        self._thread.join(10)
        assert not self._thread.is_alive(), "the script was not played out"


class CoreAlone(ClientCore):
    """The bare core, fed the scripted replies as byte strings."""

    def __init__(self) -> None:
        super().__init__(retry=policy(), max_frame_bytes=MAX_FRAME)
        self.sent: list[bytes] = []
        self._replies = iter(REPLIES)

    def _open(self, pipe):
        return None

    def run(self, attempts):
        outcome = None
        while True:
            try:
                step = attempts.send(outcome)
            except StopIteration as done:
                return done.value
            if not isinstance(step, bytes):
                outcome = None  # a backoff: nothing to wait for here
                continue
            self.sent.append(step)
            pipe = self.pipeline()
            pipe.pending.append(step)
            reply = next(self._replies)
            try:
                outcome = pipe.feed(b"" if reply is CLOSE else reply)[0][1]
            except ConnectionError as exc:
                self.drop(pipe)
                outcome = exc


def through_core():
    core = CoreAlone()
    results = [result_of(lambda: core.run(getattr(core, name)(*args)))
               for name, args in CALLS]
    return core.sent, results, core.total_retries


def through_blocking():
    server = ScriptedServer()
    with KVClient(port=server.port, retry=policy(), max_frame_bytes=MAX_FRAME) as client:
        results = [result_of(lambda: getattr(client, name)(*args)) for name, args in CALLS]
    server.join()
    return server.requests, results, client.total_retries


async def _asyncio_calls(port):
    client = AsyncKVClient(port=port, retry=policy(), max_frame_bytes=MAX_FRAME)
    results = []
    for name, args in CALLS:
        try:
            results.append(await getattr(client, name)(*args))
        except Exception as exc:
            results.append((type(exc).__name__, str(exc)))
    await client.close()
    return results, client.total_retries


def through_asyncio():
    server = ScriptedServer()
    results, retries = asyncio.run(_asyncio_calls(server.port))
    server.join()
    return server.requests, results, retries


def test_core_blocking_and_asyncio_transports_agree():
    core = through_core()
    assert core[1] == EXPECTED
    assert core[2] == 2  # RETRY once, reconnect once
    assert len(core[0]) == len(CALLS) + 2
    assert through_blocking() == core
    assert through_asyncio() == core
