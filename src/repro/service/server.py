"""Asyncio TCP transport over a :class:`~repro.service.handler.RequestHandler`.

One connection is one pipelined request stream: the client may send any
number of frames without waiting; the server decodes them incrementally
(:class:`~repro.service.protocol.FrameDecoder`) and writes the responses
back in arrival order — the ordering contract pipelining clients rely on.

:class:`KVServer` *is* a request handler: decode, admission control,
execute, encode, error mapping and metrics are the inherited synchronous
:meth:`RequestHandler.handle`, the code the chaos simulator drives too.
This module adds framing, flow control, draining and a delayed write's
pause.  No lock is needed: the handler never awaits, so each store
operation runs to completion on the one event loop.

**Connections.**  Each connection is an :class:`asyncio.Protocol`
(:class:`_Connection`), not a task over streams.  ``data_received``
appends the frames it completed to the connection's FIFO and answers
them, in order, inside the callback: one event-loop callback per read,
no future or task wake-up per request.  Answering stalls while

* a :class:`~repro.service.handler.Delayed` write sleeps out its pause:
  ``loop.call_later`` applies it, writes its reply and answers the frames
  queued behind it.  It is applied even if the connection closed during
  the pause, since admission already accepted it;
* the transport's write buffer is above its high-water mark
  (``pause_writing``/``resume_writing``), so a client that pipelines
  without reading holds the server to about one buffer of replies.

While answering stalls the connection keeps reading into its FIFO, as a
stream reader would, and pauses reading only once more than
:data:`READ_BACKLOG_BYTES` have arrived in the stall.

**Graceful drain.**  EOF from the client and :meth:`KVServer.stop` both
*finish* a connection: it reads no more, answers every frame already
received, including those that arrived during a delayed write's pause
(after that write), flushes and closes.
``stop()`` closes the listening socket, finishes every connection, waits
until each has closed and its delayed write is applied, then closes the
shards via :meth:`ShardRouter.close`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from collections import deque

from repro.core.config import UniKVConfig
from repro.obs import server_view
from repro.obs.render import render_periodic_dump
from repro.service.handler import Delayed, RequestHandler, Session
from repro.service.protocol import MAX_FRAME_BYTES, FrameDecoder, FrameTooLarge
from repro.service.router import ShardRouter

#: bytes a connection reads while answering stalls before it pauses
#: reading: twice the 64 KiB limit at which a stream reader pauses
READ_BACKLOG_BYTES = 2 * 64 * 1024


class KVServer(RequestHandler):
    """Pipelined TCP front end for a sharded UniKV deployment."""

    def __init__(self, router: ShardRouter, host: str = "127.0.0.1",
                 port: int = 0, *,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 admission: str = "delay",
                 slowdown_delay_s: float = 0.0005,
                 max_delay_s: float = 0.02,
                 max_consecutive_sheds: int = 2,
                 max_scan_items: int = 10_000,
                 close_router_on_stop: bool = True) -> None:
        super().__init__(router, max_frame_bytes=max_frame_bytes, admission=admission,
                         slowdown_delay_s=slowdown_delay_s, max_delay_s=max_delay_s,
                         max_consecutive_sheds=max_consecutive_sheds,
                         max_scan_items=max_scan_items)
        self.host = host
        self.port = port
        self.close_router_on_stop = close_router_on_stop
        self._server: asyncio.AbstractServer | None = None
        #: live connections; stop() waits for each one's ``done``
        self._connections: set[_Connection] = set()
        self._stopped = False

    # -- lifecycle --------------------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: no new connections, finish in-flight requests,
        flush responses, close the shards.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
        # Before wait_closed: from Python 3.12.1 it also waits for every
        # accepted connection to close.  Connections made later finish
        # themselves.
        for conn in list(self._connections):
            conn.finish()
        if self._server is not None:
            await self._server.wait_closed()
        if self._connections:
            await asyncio.gather(*(conn.done for conn in self._connections))
        if self.close_router_on_stop and not self.router.closed:
            self.router.close()

    async def _respond(self, item: bytes | FrameTooLarge,
                       session: Session) -> bytes | Delayed:
        """The reply to one frame, or the :class:`Delayed` write the
        connection applies after its pause.

        A coroutine that never awaits: the connection runs it to completion
        with one ``send(None)`` (:func:`_result`).  It stays a coroutine so
        that wrapping it in an ``async`` span timer, as
        ``perfbench/traced_server.py`` does to time the server layer,
        keeps working.
        """
        return self.handle(item, session)


def _result(coro):
    """The value of a coroutine that must finish without suspending."""
    try:
        coro.send(None)
    except StopIteration as finished:
        return finished.value
    coro.close()
    raise RuntimeError("KVServer._respond suspended; it must answer without awaiting")


class _Connection(asyncio.Protocol):
    """One client connection: frames in, replies out, in arrival order."""

    def __init__(self, server: KVServer) -> None:
        self._server = server
        self._respond = server._respond
        self._session = Session()
        self._decoder = FrameDecoder(server.max_frame_bytes)
        self.transport: asyncio.Transport | None = None
        #: frames received and not yet answered, in arrival order
        self._pending: deque[bytes | FrameTooLarge] = deque()
        #: a delayed write is sleeping out its pause
        self._delayed = False
        #: the transport's write buffer is above its high-water mark
        self._write_paused = False
        #: bytes received since answering last stalled
        self._backlog = 0
        #: no more input: close once the pending frames are answered
        self._finishing = False
        self._lost = False
        #: resolved once the connection has closed and no delayed write is
        #: left to apply
        self.done = asyncio.get_running_loop().create_future()

    # -- asyncio.Protocol callbacks ----------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        server = self._server
        server._connections.add(self)
        server._connections_total.inc()
        if server._stopped:
            self.finish()

    def data_received(self, data: bytes) -> None:
        self._pending.extend(self._decoder.feed(data))
        if self._delayed or self._write_paused:
            self._backlog += len(data)
            if self._backlog > READ_BACKLOG_BYTES:
                self.transport.pause_reading()
        else:
            self._answer()

    def eof_received(self) -> bool:
        self.finish()
        return True  # half-closed: the replies still owed go out first

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._answer()

    def connection_lost(self, exc: Exception | None) -> None:
        self._lost = True
        self._pending.clear()
        self._settle()

    # -- request flow ------------------------------------------------------------------

    def finish(self) -> None:
        """Read no more; answer the frames already received, then close."""
        self._finishing = True
        self.transport.pause_reading()
        self._answer()

    def _answer(self) -> None:
        """Answer pending frames in order until one is delayed or the
        write buffer fills; once all are answered, resume reading, or
        close if finishing."""
        pending = self._pending
        respond, session = self._respond, self._session
        write = self.transport.write
        while pending and not (self._delayed or self._write_paused):
            reply = _result(respond(pending.popleft(), session))
            if isinstance(reply, Delayed):
                self._delayed = True
                asyncio.get_running_loop().call_later(
                    reply.pause_s, self._apply, reply)
                return
            write(reply)
        if self._delayed or self._write_paused or self._lost:
            return
        self._backlog = 0
        if self._finishing:
            self.transport.close()
        else:
            self.transport.resume_reading()

    def _apply(self, delayed: Delayed) -> None:
        # Admission accepted the write: apply it even if the connection
        # closed during the pause.
        reply = delayed.apply()
        self._delayed = False
        if self._lost:
            self._settle()
        else:
            self.transport.write(reply)
            self._answer()

    def _settle(self) -> None:
        if self._lost and not self._delayed and not self.done.done():
            self._server._connections.discard(self)
            self.done.set_result(None)


async def _periodic_stats_dump(server: KVServer, interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        print(render_periodic_dump(server.stats_payload()), flush=True)


async def run_server(num_shards: int = 2, host: str = "127.0.0.1",
                     port: int = 7711, boundaries: list[bytes] | None = None,
                     config: UniKVConfig | None = None,
                     admission: str = "delay",
                     stats_interval: float = 0.0,
                     ready: asyncio.Event | None = None,
                     server_ref: list | None = None) -> None:
    """Serve until SIGINT/SIGTERM (or cancellation), then drain gracefully.

    ``stats_interval > 0`` prints a compact metrics line every that many
    seconds.  ``ready``/``server_ref`` let an in-process harness wait for
    startup and learn the bound port when ``port=0``.
    """
    router = ShardRouter.create(num_shards, boundaries=boundaries, config=config)
    server = KVServer(router, host, port, admission=admission)
    await server.start()
    if server_ref is not None:
        server_ref.append(server)
    print(f"repro-kv: serving {num_shards} shard(s) on "
          f"{server.host}:{server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    dump_task: asyncio.Task | None = None
    if stats_interval > 0:
        dump_task = asyncio.ensure_future(
            _periodic_stats_dump(server, stats_interval))
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        if dump_task is not None:
            dump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dump_task
        await server.stop()
        requests = server_view(server.metrics.snapshot())["requests"]
        print(f"repro-kv: shutdown complete ({requests} requests served)", flush=True)
