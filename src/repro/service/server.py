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
lets every connection finish the requests it has already received, flushes
their responses, then closes the shards via :meth:`ShardRouter.close`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal

from repro.core.config import UniKVConfig
from repro.obs.render import render_periodic_dump
from repro.service.handler import Delayed, RequestHandler, ServerStats, Session
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
        #: live connection tasks, awaited by drain
        self._connections: set[asyncio.Task] = set()
        self._stopping = asyncio.Event()
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
            await self._server.wait_closed()
        self._stopping.set()
        tasks = list(self._connections)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self.close_router_on_stop and not self.router.closed:
            self.router.close()

    # -- connection handling ----------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        session = Session()
        self.stats.connections += 1
        decoder = FrameDecoder(self.max_frame_bytes)
        stop_wait: asyncio.Task | None = None
        try:
            while not self._stopping.is_set():
                read = asyncio.ensure_future(reader.read(64 * 1024))
                stop_wait = asyncio.ensure_future(self._stopping.wait())
                done, __ = await asyncio.wait(
                    {read, stop_wait}, return_when=asyncio.FIRST_COMPLETED)
                if read not in done:
                    # Draining while idle: nothing buffered, just leave.
                    read.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await read
                    break
                stop_wait.cancel()
                data = read.result()
                if not data:
                    break
                for item in decoder.feed(data):
                    writer.write(await self._respond(item, session))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown (e.g. a failing test harness) — exit quietly;
            # graceful drain goes through self._stopping, not cancellation.
            pass
        finally:
            if stop_wait is not None and not stop_wait.done():
                stop_wait.cancel()
            # Stay registered until the socket is closed, so stop() waits
            # for the close instead of leaving it to the loop's teardown,
            # which would cancel it mid-wait and log the cancellation.
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()
            self._connections.discard(task)

    async def _respond(self, item: bytes | FrameTooLarge,
                       session: Session) -> bytes:
        reply = self.handle(item, session)
        if isinstance(reply, Delayed):
            # Admission control wants a pause: yield the event loop to
            # other connections, then apply the write.
            await asyncio.sleep(reply.pause_s)
            reply = reply.apply()
        return reply


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
                     server_ref: list | None = None) -> ServerStats:
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
        print(f"repro-kv: shutdown complete "
              f"({server.stats.requests} requests served)", flush=True)
    return server.stats
