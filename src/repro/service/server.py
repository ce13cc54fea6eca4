"""Asyncio TCP transport over a :class:`~repro.service.handler.RequestHandler`.

One connection is one pipelined request stream: the client may send any
number of frames without waiting; the server decodes them incrementally
(:class:`~repro.service.protocol.FrameDecoder`) and writes the responses
back in arrival order — the ordering contract pipelining clients rely on.

:class:`KVServer` *is* a request handler: decode, admission control,
execute, encode, error mapping and metrics are the inherited synchronous
:meth:`RequestHandler.handle`, the code the chaos simulator drives too.
This module adds framing, draining and sleeping out a delayed write's
pause before applying it.  No lock is needed: the handler never awaits,
so each store operation runs to completion on the one event loop.

**Graceful drain.**  :meth:`KVServer.stop` closes the listening socket,
then stops reading every connection and wakes its pending read with
``feed_eof()``: the read loop answers the requests already received (a
busy connection finishes its batch, bytes already buffered are still
decoded), flushes the responses, sees EOF and leaves; an idle connection
leaves at once.  Then the shards close via :meth:`ShardRouter.close`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal

from repro.core.config import UniKVConfig
from repro.obs import server_view
from repro.obs.render import render_periodic_dump
from repro.service.handler import Delayed, RequestHandler, Session
from repro.service.protocol import MAX_FRAME_BYTES, FrameDecoder, FrameTooLarge
from repro.service.router import ShardRouter


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
        #: live connection tasks and their streams, awaited by drain
        self._connections: dict[asyncio.Task, tuple[asyncio.StreamReader,
                                                    asyncio.StreamWriter]] = {}
        self._stopped = False

    # -- lifecycle --------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
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
        # accepted connection to close, which an idle one only does once
        # it reads EOF.  Tasks that start later drain themselves.
        for reader, writer in self._connections.values():
            _stop_reading(reader, writer)
        if self._server is not None:
            await self._server.wait_closed()
        tasks = list(self._connections)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self.close_router_on_stop and not self.router.closed:
            self.router.close()

    # -- connection handling ----------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        if self._stopped:
            _stop_reading(reader, writer)
        session = Session()
        self._connections_total.inc()
        decoder = FrameDecoder(self.max_frame_bytes)
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                if self._stopped:
                    # A reader that paused on a full buffer resumes the
                    # transport as it drains; data arriving after feed_eof
                    # would fail the stream's assertion.
                    writer.transport.pause_reading()
                for item in decoder.feed(data):
                    writer.write(await self._respond(item, session))
                await writer.drain()
        except ConnectionError:
            pass
        except asyncio.CancelledError:
            # Loop teardown (e.g. a failing test harness) — exit quietly;
            # graceful drain goes through feed_eof, not cancellation.
            pass
        finally:
            # Stay registered until the socket is closed, so stop() waits
            # for the close instead of leaving it to the loop's teardown,
            # which would cancel it mid-wait and log the cancellation.
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()
            del self._connections[task]

    async def _respond(self, item: bytes | FrameTooLarge,
                       session: Session) -> bytes:
        reply = self.handle(item, session)
        if isinstance(reply, Delayed):
            # Admission control wants a pause: yield the event loop to
            # other connections, then apply the write.
            await asyncio.sleep(reply.pause_s)
            reply = reply.apply()
        return reply


def _stop_reading(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    """Drain one connection: no more socket reads, and a pending (or the
    next) ``reader.read`` returns what is buffered, then EOF."""
    writer.transport.pause_reading()
    reader.feed_eof()


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
