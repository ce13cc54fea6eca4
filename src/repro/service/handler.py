"""Sans-IO request handling shared by the TCP server and the chaos simulator.

:class:`RequestHandler` answers one request frame with one response frame
and never awaits or touches a socket, so the asyncio
:class:`~repro.service.server.KVServer` and the simulator's tick loop run
the same decode, admission control, execute, encode and error mapping.

**Admission control.**  A write first probes its shards' stall counters
(:meth:`ShardRouter.pressure`).  Under pressure, ``admission="delay"``
(the default) returns a :class:`Delayed` write: the server sleeps out the
bounded pause, yielding to other connections, then applies it; the
simulator applies it at once.  Nothing is dropped.  ``admission="shed"``
answers ``Status.RETRY`` instead, at most ``max_consecutive_sheds`` times
in a row per :class:`Session` before falling back to delay.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

from repro.env.storage import DiskCrashed
from repro.obs import MetricsRegistry, server_view
from repro.service import protocol
from repro.service.protocol import MAX_FRAME_BYTES, FrameTooLarge, Op, ProtocolError, Status
from repro.service.router import ShardPressure, ShardRouter

_U32 = struct.Struct("<I")
#: each op's ``server_request_seconds`` label
_OP_LABELS = {op: op.name.lower() for op in Op}


@dataclass
class Session:
    """Per-connection admission state: the current shed streak."""

    consecutive_sheds: int = 0


@dataclass
class Delayed:
    """A write admitted after a pause: wait ``pause_s``, then ``apply()``
    returns the response frame."""

    pause_s: float
    apply: Callable[[], bytes]


class RequestHandler:
    """Request frames in, response frames out, over a :class:`ShardRouter`."""

    def __init__(self, router: ShardRouter, *,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 admission: str = "delay",
                 slowdown_delay_s: float = 0.0005,
                 max_delay_s: float = 0.02,
                 max_consecutive_sheds: int = 2,
                 max_scan_items: int = 10_000) -> None:
        if admission not in ("delay", "shed"):
            raise ValueError("admission must be 'delay' or 'shed'")
        self.router = router
        self.max_frame_bytes = max_frame_bytes
        self.admission = admission
        self.slowdown_delay_s = slowdown_delay_s
        self.max_delay_s = max_delay_s
        self.max_consecutive_sheds = max_consecutive_sheds
        self.max_scan_items = max_scan_items
        #: wall clock (perf_counter), unlike the stores' registries which
        #: run on the schedulers' virtual clocks.  STATS ``server`` is its
        #: ``server_<key>_total`` counters (:func:`repro.obs.server_view`).
        self.metrics = metrics = MetricsRegistry()
        self._connections_total = metrics.counter("server_connections_total")
        self._requests = metrics.counter("server_requests_total")
        self._delayed_writes = metrics.counter("server_delayed_writes_total")
        self._shed_writes = metrics.counter("server_shed_writes_total")
        self._too_large_frames = metrics.counter("server_too_large_frames_total")
        self._bad_requests = metrics.counter("server_bad_requests_total")
        self._errors = metrics.counter("server_errors_total")
        #: the part of ``errors`` answered RETRY because a shard device crashed
        self._crashed_rejections = metrics.counter("server_crashed_rejections_total")
        self._inflight_high_water = metrics.gauge("server_inflight_requests_high_water")
        self._request_seconds = metrics.histogram_family("server_request_seconds", "op")
        #: per-shard stall_events watermark from the last write admission
        self._stall_marks: dict[int, int] = {}
        self._inflight = 0

    def handle(self, item: bytes | FrameTooLarge,
               session: Session) -> bytes | Delayed:
        """The response frame for one request payload (or oversized-frame
        marker), or a :class:`Delayed` write that the transport applies
        after its pause.  The ``server_request_seconds`` span covers the
        pause."""
        start = self.metrics.clock()
        self._inflight += 1
        if self._inflight > self._inflight_high_water.value:
            self._inflight_high_water.set(self._inflight)
        op_name, reply = self._dispatch(item, session)
        if isinstance(reply, Delayed):
            return Delayed(reply.pause_s, lambda: self._finish(
                op_name, start, self._guarded(reply.apply)))
        return self._finish(op_name, start, reply)

    def handle_now(self, item: bytes | FrameTooLarge,
                   session: Session) -> bytes:
        """:meth:`handle` for a transport with no clock to wait on: a
        delayed write is applied at once."""
        reply = self.handle(item, session)
        return reply.apply() if isinstance(reply, Delayed) else reply

    def stats_payload(self) -> dict:
        """The full STATS response body: views plus obs snapshots.

        ``shards``/``aggregate`` are the router's store views, ``server``
        this handler's counters; ``obs.stores`` is the shard-merged store
        registry snapshot (histograms merged bucket-wise, quantiles
        recomputed) and ``obs.server`` this handler's own wall-clocked one.
        """
        stats = self.router.stats()
        server = self.metrics.snapshot()
        stats["server"] = server_view(server)
        stats["obs"] = {"server": server, "stores": self.router.metrics_snapshot()}
        return stats

    # -- internals --------------------------------------------------------------------

    def _finish(self, op_name: str, start: float, response: bytes) -> bytes:
        self._inflight -= 1
        self._request_seconds[op_name].record(self.metrics.clock() - start)
        return response

    def _dispatch(self, item: bytes | FrameTooLarge,
                  session: Session) -> tuple[str, bytes | Delayed]:
        """(op label for metrics, response or delayed write)."""
        self._requests.inc()
        if isinstance(item, FrameTooLarge):
            self._too_large_frames.inc()
            return "invalid", protocol.encode_response(
                Status.TOO_LARGE,
                b"frame of %d bytes exceeds limit %d"
                % (item.declared_size, self.max_frame_bytes))
        try:
            request = protocol.decode_request(item)
        except ProtocolError as exc:
            self._bad_requests.inc()
            return "invalid", protocol.encode_response(
                Status.BAD_REQUEST, str(exc).encode())
        return _OP_LABELS[request.op], self._guarded(self._execute, request, session)

    def _guarded(self, run: Callable[..., bytes | Delayed], *args) -> bytes | Delayed:
        """``run(*args)``, with a store failure turned into an error response."""
        try:
            return run(*args)
        except DiskCrashed as exc:
            # A shard's device failed mid-operation.  That's transient from
            # the client's point of view — the operator (or chaos harness)
            # recovers the shard and re-attaches it — so steer the client
            # to its retry path rather than reporting a hard error.
            self._errors.inc()
            self._crashed_rejections.inc()
            return protocol.encode_response(
                Status.RETRY, f"shard device crashed: {exc}".encode())
        except Exception as exc:  # a failing request must not kill the stream
            self._errors.inc()
            return protocol.encode_response(
                Status.ERROR, f"{type(exc).__name__}: {exc}".encode())

    def _execute(self, request: protocol.Request,
                 session: Session) -> bytes | Delayed:
        router = self.router
        op = request.op
        if op is Op.GET:
            value = router.get(request.key)
            if value is None:
                return protocol.encode_response(Status.NOT_FOUND)
            return protocol.encode_response(
                Status.OK, protocol.encode_value_body(value))
        if op is Op.PING:
            return protocol.encode_response(
                Status.OK, protocol.encode_value_body(request.key))
        if op is Op.SCAN:
            pairs = router.scan(request.key, min(request.count, self.max_scan_items))
            body = protocol.encode_pairs_body(pairs)
            if 1 + len(body) > self.max_frame_bytes:
                # Like max_scan_items, the frame limit makes the reply
                # short; only a first pair that cannot fit is an error.
                fit = self._pairs_that_fit(pairs)
                if fit == 0:
                    return protocol.encode_response(
                        Status.TOO_LARGE,
                        b"first scan pair of %d bytes exceeds frame limit %d"
                        % (len(pairs[0][0]) + len(pairs[0][1]), self.max_frame_bytes))
                body = protocol.encode_pairs_body(pairs[:fit])
            return protocol.encode_response(Status.OK, body)
        if op is Op.STATS:
            return protocol.encode_response(
                Status.OK, protocol.encode_json_body(self.stats_payload()))
        if op is Op.DESCRIBE:
            return protocol.encode_response(
                Status.OK, protocol.encode_json_body(router.describe()))
        # -- writes (PUT, DELETE, BATCH): admission control first -------------------
        if op is Op.BATCH:
            shards = sorted(router.split_batch(request.ops))
        else:
            shards = [router.shard_index(request.key)]
        pressure, severity = self._probe_pressure(shards)
        if severity <= 0:
            session.consecutive_sheds = 0
            return self._write(request)
        if (self.admission == "shed"
                and session.consecutive_sheds < self.max_consecutive_sheds):
            session.consecutive_sheds += 1
            self._shed_writes.inc()
            return protocol.encode_response(
                Status.RETRY,
                b"shard %d backpressure (%d new stall events, %d jobs in flight)"
                % (pressure.shard, severity, pressure.queue_depth))
        # Delay, never drop: a bounded pause scaled by how much stall
        # pressure the shard reported since the last admission.
        self._delayed_writes.inc()
        session.consecutive_sheds = 0
        return Delayed(min(self.max_delay_s, self.slowdown_delay_s * severity),
                       lambda: self._write(request))

    def _write(self, request: protocol.Request) -> bytes:
        if request.op == Op.PUT:
            self.router.put(request.key, request.value)
        elif request.op == Op.DELETE:
            self.router.delete(request.key)
        else:
            self.router.write_batch(request.ops)
        applied = len(request.ops) if request.op == Op.BATCH else 1
        return protocol.encode_response(Status.OK, _U32.pack(applied))

    def _pairs_that_fit(self, pairs: list[tuple[bytes, bytes]]) -> int:
        """How many leading ``pairs`` an OK reply can carry within
        ``max_frame_bytes``."""
        budget = self.max_frame_bytes - 5  # status byte, pair count
        for i, (key, value) in enumerate(pairs):
            budget -= 8 + len(key) + len(value)  # two length prefixes
            if budget < 0:
                return i
        return len(pairs)

    def _probe_pressure(self, shard_indexes) -> tuple[ShardPressure | None, int]:
        """The most pressured shard and its severity (0 = no pressure).

        Severity is the shard's new stall events since the last write
        admission, floored at 1 when a probe catches the background queue
        at/above the slowdown trigger.  Probing consumes the delta (the
        watermark advances), so one stall burst disturbs one admission.
        """
        worst: ShardPressure | None = None
        severity = 0
        for i in shard_indexes:
            pressure = self.router.pressure(i)
            delta = pressure.stall_events - self._stall_marks.get(i, 0)
            if pressure.state != "ok":
                delta = max(delta, 1)
            self._stall_marks[i] = pressure.stall_events
            if worst is None or delta > severity:
                worst, severity = pressure, delta
        return worst, severity
