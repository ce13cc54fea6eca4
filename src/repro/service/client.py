"""Clients for the serving layer: one sans-IO :class:`ClientCore` under a
blocking socket client, an asyncio client and the chaos simulator's client.

The core encodes calls, matches replies to requests per connection
(:class:`Pipeline`, the order the server guarantees), retries transient
failures — ``Status.RETRY`` backpressure responses, timeouts, dropped
connections — with exponential backoff, and unpacks replies.  The
transports only move bytes and wait.  Both socket clients reuse one
connection, decoding responses incrementally (no assumption that a
``recv`` returns a whole frame); the async client additionally pipelines
concurrent requests over it.

Run ``python -m repro.service.client --port 7711 put greeting hello`` for
a command-line smoke client.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random
import socket
import struct
import sys
import time
from collections import deque
from dataclasses import dataclass

from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    RETRYABLE_STATUSES,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    Status,
)

_U32 = struct.Struct("<I")


class TransientError(Exception):
    """A retryable failure that outlived the retry budget."""


class ServerError(Exception):
    """A non-retryable error response from the server."""

    def __init__(self, status: Status, message: str) -> None:
        super().__init__(f"{status.name}: {message}")
        self.status = status


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for transient errors.

    Pure ``base * mult**attempt`` backoff synchronizes every client shed at
    the same instant into a retry storm that arrives — again — at the same
    instant.  Jitter breaks the lockstep: each delay is drawn uniformly
    from ``[(1 - jitter) * d, d]`` ("equal jitter"), seeded per policy
    instance so two clients with different seeds spread out while a given
    seed reproduces its delay sequence exactly.
    """

    retries: int = 4
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.5
    #: fraction of each delay randomized away (0 = legacy fixed backoff)
    jitter: float = 0.5
    #: seed for the jitter stream; None draws one from system entropy
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay(self, attempt: int) -> float:
        base = min(self.backoff_max_s,
                   self.backoff_base_s * self.backoff_multiplier ** attempt)
        if self.jitter <= 0.0:
            return base
        return base * (1.0 - self.jitter * self._rng.random())


class Batcher:
    """Client-side write batching: buffer ops, flush as one BATCH frame.

    A context manager — leaving the ``with`` block flushes the tail::

        with client.batcher(max_ops=64) as batch:
            batch.put(b"k", b"v")
    """

    def __init__(self, client: "ClientCore", max_ops: int = 128) -> None:
        self._client = client
        self.max_ops = max_ops
        self.ops: list[tuple] = []
        self.flushes = 0

    # put, delete and flush return what ``_send`` does (an AsyncBatcher's is awaitable)
    def put(self, key: bytes, value: bytes):
        return self._send(self._push(("put", key, value)))

    def delete(self, key: bytes):
        return self._send(self._push(("delete", key)))

    def flush(self):
        return self._send(self._take())

    def _push(self, op: tuple) -> list[tuple]:
        """Buffer ``op``; the ops to send now (none until the buffer fills)."""
        self.ops.append(op)
        return self._take() if len(self.ops) >= self.max_ops else []

    def _take(self) -> list[tuple]:
        ops, self.ops = self.ops, []
        if ops:
            self.flushes += 1
        return ops

    def _send(self, ops: list[tuple]) -> int:
        return self._client.write_batch(ops) if ops else 0

    def __enter__(self) -> "Batcher":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.flush()


class AsyncBatcher(Batcher):
    """Async twin of :class:`Batcher` (``async with`` flushes the tail)."""

    async def _send(self, ops: list[tuple]) -> int:
        return await self._client.write_batch(ops) if ops else 0

    async def __aenter__(self) -> "AsyncBatcher":
        return self

    async def __aexit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            await self.flush()


def _unpack(op_name: str, status: Status, body: bytes):
    if status == Status.OK:
        if op_name in ("get", "ping"):
            return protocol.decode_value_body(body)
        if op_name == "scan":
            return protocol.decode_pairs_body(body)
        if op_name in ("stats", "describe"):
            return protocol.decode_json_body(body)
        if op_name in ("put", "delete", "batch"):
            return _U32.unpack(body)[0]
        return body
    if status == Status.NOT_FOUND:
        return None
    raise ServerError(status, body.decode("utf-8", "replace"))


# -- the sans-IO core -------------------------------------------------------------------


class Pipeline:
    """One connection's request order: the server answers in arrival order,
    so a reply belongs to the oldest pending request.  The queue lives and
    dies with its connection, so a reply never reaches a request sent on
    another one."""

    def __init__(self, max_frame_bytes: int) -> None:
        #: the transport's handle (socket, connect task, chaos connection)
        self.transport = None
        #: one waiter per request sent and not yet answered, oldest first
        self.pending: deque = deque()
        self._decoder = FrameDecoder(max_frame_bytes)

    def feed(self, data: bytes) -> list[tuple[object, bytes | FrameTooLarge]]:
        """(waiter, reply frame) for each reply ``data`` completes."""
        if not data:
            raise ConnectionError("server closed the connection")
        return self.deliver(self._decoder.feed(data))

    def deliver(self, frames: list) -> list[tuple[object, bytes | FrameTooLarge]]:
        """:meth:`feed` for already reassembled reply frames."""
        if len(frames) > len(self.pending):
            raise ProtocolError("unsolicited response frame")
        return [(self.pending.popleft(), frame) for frame in frames]


class ClientCore:
    """Everything a client does except move bytes and wait: encode calls,
    order each connection's requests, retry, back off and unpack replies.

    On the bare core each API method returns the call's :meth:`attempts`
    generator for the caller to drive; a transport overrides ``_call`` to
    drive it and implements ``_open`` (``host``, ``port``, ``timeout``).
    """

    _batcher = Batcher

    def __init__(self, host: str = "127.0.0.1", port: int = 7711, *,
                 timeout: float = 5.0, retry: RetryPolicy | None = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.max_frame_bytes = max_frame_bytes
        #: transient-failure retries performed (the backoff path's odometer)
        self.total_retries = 0
        self._pipeline: Pipeline | None = None

    # -- connections ------------------------------------------------------------------

    def pipeline(self) -> Pipeline:
        """The current pipeline.  After a drop the next caller gets a new
        one and the transport's ``_open`` starts its connection; later
        callers share it, so one connect is in flight at a time."""
        if self._pipeline is None:
            self._pipeline = Pipeline(self.max_frame_bytes)
            self._pipeline.transport = self._open(self._pipeline)
        return self._pipeline

    def drop(self, pipe: Pipeline) -> deque:
        """Retire ``pipe`` after a failure; returns its pending waiters."""
        if self._pipeline is pipe:
            self._pipeline = None
        pending, pipe.pending = pipe.pending, deque()
        return pending

    # -- calls ------------------------------------------------------------------------

    def attempts(self, op_name: str, frame: bytes):
        """One call's retry loop, as a generator the transport drives.

        Yields ``frame`` to send, and before each retry the backoff in
        seconds; is sent back each attempt's outcome: the reply frame, a
        :class:`FrameTooLarge` marker or the transport's exception.
        Returns the unpacked result, or raises :class:`ServerError`,
        :class:`ProtocolError`, or :class:`TransientError` once the
        retries are spent.
        """
        last: Exception | None = None
        for attempt in range(self.retry.retries + 1):
            if attempt:
                self.total_retries += 1
                yield self.retry.delay(attempt - 1)
            outcome = yield frame
            if isinstance(outcome, FrameTooLarge):
                raise ProtocolError(f"server response of {outcome.declared_size} "
                                    f"bytes exceeds the frame limit")
            if isinstance(outcome, ProtocolError):
                raise outcome
            if isinstance(outcome, Exception):
                last = outcome
                continue
            status, body = protocol.decode_response(outcome)
            if status in RETRYABLE_STATUSES:
                last = TransientError(body.decode("utf-8", "replace"))
                continue
            return _unpack(op_name, status, body)
        raise TransientError(
            f"gave up after {self.retry.retries} retries: {last}") from last

    _call = attempts

    # -- API: each returns what the transport's ``_call`` returns --------------------

    def ping(self, payload: bytes = b""):
        return self._call("ping", protocol.encode_ping(payload))

    def get(self, key: bytes):
        return self._call("get", protocol.encode_get(key))

    def put(self, key: bytes, value: bytes):
        return self._call("put", protocol.encode_put(key, value))

    def delete(self, key: bytes):
        return self._call("delete", protocol.encode_delete(key))

    def write_batch(self, ops: list[tuple]):
        return self._call("batch", protocol.encode_batch(ops))

    def scan(self, start: bytes, count: int):
        return self._call("scan", protocol.encode_scan(start, count))

    def stats(self):
        return self._call("stats", protocol.encode_stats())

    def describe(self):
        return self._call("describe", protocol.encode_describe())

    def batcher(self, max_ops: int = 128) -> Batcher:
        return self._batcher(self, max_ops=max_ops)


# -- transports -------------------------------------------------------------------------


class KVClient(ClientCore):
    """Blocking client over one reused TCP connection."""

    def close(self) -> None:
        if self._pipeline is not None:
            self._drop(self._pipeline)

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, op_name: str, frame: bytes):
        attempts = self.attempts(op_name, frame)
        outcome = None
        while True:
            try:
                step = attempts.send(outcome)
            except StopIteration as done:
                return done.value
            outcome = self._exchange(step) if isinstance(step, bytes) else time.sleep(step)

    def _open(self, pipe: Pipeline) -> socket.socket:
        return socket.create_connection((self.host, self.port), timeout=self.timeout)

    def _exchange(self, frame: bytes):
        """One attempt: the reply, or the failure that dropped the connection."""
        try:
            pipe = self.pipeline()
            pipe.pending.append(frame)
            pipe.transport.sendall(frame)
            replies = []
            while not replies:
                replies = pipe.feed(pipe.transport.recv(64 * 1024))
            return replies[0][1]
        except (OSError, ProtocolError) as exc:
            self._drop(self._pipeline)  # the pipeline in use (or failing to open)
            return exc

    def _drop(self, pipe: Pipeline) -> None:
        self.drop(pipe)
        if pipe.transport is not None:
            with contextlib.suppress(OSError):
                pipe.transport.close()


class AsyncKVClient(ClientCore):
    """Asyncio client with request pipelining over one connection.

    Any number of coroutines may issue requests concurrently; frames are
    written in issue order and responses matched back in that order.  Use
    ``asyncio.gather`` over many calls to pipeline.  Coroutines share one
    connect, and a failed connection fails the requests pending on it.
    """

    _batcher = AsyncBatcher

    # -- connection management --------------------------------------------------------

    async def connect(self) -> None:
        await asyncio.shield(self.pipeline().transport)

    async def close(self) -> None:
        pipe = self._pipeline
        if pipe is not None:
            self._drop(pipe, ConnectionError("connection closed"))
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                writer, __ = await pipe.transport
                await writer.wait_closed()

    async def __aenter__(self) -> "AsyncKVClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def _open(self, pipe: Pipeline) -> asyncio.Task:
        return asyncio.ensure_future(self._connect(pipe))

    async def _connect(self, pipe: Pipeline) -> tuple[asyncio.StreamWriter, asyncio.Task]:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout)
        return writer, asyncio.ensure_future(self._read_loop(pipe, reader))

    def _drop(self, pipe: Pipeline, exc: Exception) -> None:
        for reply in self.drop(pipe):
            if not reply.done():
                reply.set_result(exc)
        pipe.transport.add_done_callback(_close_stream)

    # -- pipelined plumbing -----------------------------------------------------------

    async def _read_loop(self, pipe: Pipeline, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                for reply, frame in pipe.feed(await reader.read(64 * 1024)):
                    if not reply.done():
                        reply.set_result(frame)
        except (OSError, ProtocolError) as exc:
            self._drop(pipe, exc)

    async def _call(self, op_name: str, frame: bytes):
        attempts = self.attempts(op_name, frame)
        outcome = None
        while True:
            try:
                step = attempts.send(outcome)
            except StopIteration as done:
                return done.value
            outcome = await (self._exchange(step) if isinstance(step, bytes)
                             else asyncio.sleep(step))

    async def _exchange(self, frame: bytes):
        """One attempt: the reply, or the failure that dropped the connection."""
        pipe = self.pipeline()
        try:
            writer, __ = await asyncio.shield(pipe.transport)
            if pipe is not self._pipeline:  # dropped while this request waited
                return ConnectionError("connection dropped")
            reply = asyncio.get_running_loop().create_future()
            # Enqueue and write with no await in between: response order is
            # exactly pending-queue order.
            pipe.pending.append(reply)
            writer.write(frame)
            await writer.drain()
            return await asyncio.wait_for(reply, self.timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            self._drop(pipe, exc)
            return exc


def _close_stream(opening: asyncio.Future) -> None:
    """Close a dropped connection once its connect task has finished."""
    if not opening.cancelled() and opening.exception() is None:
        writer, reading = opening.result()
        reading.cancel()
        writer.close()


# -- command-line smoke client ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Smoke client for a repro-kv server "
                    "(start one with: python -m repro serve).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7711)
    parser.add_argument("--timeout", type=float, default=5.0)
    parser.add_argument("command",
                        choices=["ping", "get", "put", "delete", "scan",
                                 "stats", "describe"])
    parser.add_argument("args", nargs="*", metavar="ARG",
                        help="get/delete: KEY; put: KEY VALUE; scan: START COUNT")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    expected = {"ping": (0, 1), "get": (1, 1), "put": (2, 2), "delete": (1, 1),
                "scan": (2, 2), "stats": (0, 0), "describe": (0, 0)}
    lo, hi = expected[args.command]
    if not lo <= len(args.args) <= hi:
        print(f"{args.command}: expected between {lo} and {hi} argument(s)",
              file=sys.stderr)
        return 2
    with KVClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            if args.command == "ping":
                payload = args.args[0].encode() if args.args else b"ping"
                print(client.ping(payload).decode("utf-8", "replace"))
            elif args.command == "get":
                value = client.get(args.args[0].encode())
                if value is None:
                    print("(not found)")
                    return 1
                sys.stdout.write(value.decode("utf-8", "replace") + "\n")
            elif args.command == "put":
                client.put(args.args[0].encode(), args.args[1].encode())
                print("OK")
            elif args.command == "delete":
                client.delete(args.args[0].encode())
                print("OK")
            elif args.command == "scan":
                pairs = client.scan(args.args[0].encode(), int(args.args[1]))
                for key, value in pairs:
                    print(f"{key.decode('utf-8', 'replace')}\t"
                          f"{value.decode('utf-8', 'replace')}")
                print(f"({len(pairs)} pairs)")
            elif args.command == "stats":
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            else:
                print(json.dumps(client.describe(), indent=2, sort_keys=True))
        except (TransientError, ServerError, ConnectionError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
