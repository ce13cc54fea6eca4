"""Seeded chaos transport: deterministic network faults below the protocol.

The harness (:mod:`repro.sim.harness`) connects simulated clients to the
server through :class:`ChaosConnection` — an in-memory duplex byte pipe
that deliberately misbehaves.  All misbehaviour is drawn from one seeded
``random.Random``, so a run is a pure function of its seed.

Fault model (chosen so every fault maps to something a real TCP stack can
produce, and so the client's request/response accounting stays sound):

* **Chunking + delay** — a frame is split into random chunks, each given a
  delivery tick; delivery is *order-preserving* (a chunk is never due
  before an earlier one), exactly like TCP segments arriving late.  This
  is what exercises :class:`~repro.service.protocol.FrameDecoder`
  reassembly, and cross-connection reordering emerges from it naturally.
* **Request drop** — the frame silently never arrives (a lost segment on
  an idle connection); the client times out, abandons the connection and
  retries on a fresh one.
* **Request duplicate** — the frame arrives twice *back-to-back in one
  chunk*, so the server decodes and executes the copies adjacently (no
  other operation can interleave between them — the at-most-once window a
  real retransmission-induced duplicate has on one TCP stream) and the
  connection suppresses the second copy's response.  The client still sees
  exactly one response per request.
* **Response drop / reset** — the connection breaks; the client observes
  the break (or times out), abandons the connection, and retries.

A client that abandons a connection never reads from it again, so a late
response can never be matched to the wrong operation — the invariant that
keeps the oracle's invoke/ack bookkeeping truthful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.service.protocol import MAX_FRAME_BYTES, FrameDecoder, FrameTooLarge


@dataclass(frozen=True)
class FaultConfig:
    """Per-decision fault probabilities (all zero = a perfect network)."""

    drop_request: float = 0.0
    dup_request: float = 0.0
    drop_response: float = 0.0
    reset: float = 0.0
    #: probability that a chunk is delayed at all
    delay: float = 0.0
    #: maximum extra ticks a delayed chunk waits
    max_delay_ticks: int = 8
    #: maximum number of chunks one frame is split into
    max_chunks: int = 4


#: a perfectly behaved network (used for the drain phase)
NO_FAULTS = FaultConfig()


class ChaosPipe:
    """One direction of a connection: ordered chunks with delivery ticks."""

    def __init__(self) -> None:
        self._chunks: list[tuple[int, bytes]] = []  # (due tick, data)
        self._last_due = 0

    def send(self, data: bytes, now: int, delay_ticks: int = 0) -> None:
        # Order-preserving: never due before a previously sent chunk.
        due = max(self._last_due, now + 1 + delay_ticks)
        self._last_due = due
        self._chunks.append((due, data))

    def recv(self, now: int) -> bytes:
        """All bytes whose delivery tick has arrived, in stream order."""
        out = bytearray()
        while self._chunks and self._chunks[0][0] <= now:
            out += self._chunks.pop(0)[1]
        return bytes(out)


class ChaosConnection:
    """A duplex client<->server stream with seeded fault injection.

    The client writes whole request frames (:meth:`client_send`) and reads
    response payloads (:meth:`client_recv`); the server reads request
    payloads (:meth:`server_recv`) and writes whole response frames
    (:meth:`server_send`).  Both directions run through
    :class:`FrameDecoder`, so the server really is reassembling frames
    from an adversarially chunked byte stream.
    """

    def __init__(self, rng: random.Random, faults: FaultConfig = NO_FAULTS,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._rng = rng
        self.faults = faults
        self._c2s = ChaosPipe()
        self._s2c = ChaosPipe()
        self._server_decoder = FrameDecoder(max_frame_bytes)
        self._client_decoder = FrameDecoder(max_frame_bytes)
        #: server-side indexes of duplicate request copies whose responses
        #: must be discarded (keeps client responses 1:1 with requests)
        self._suppress: set[int] = set()
        self._requests_sent = 0     # frames enqueued toward the server
        self._responses_sent = 0    # response slots consumed by the server
        self.broken = False
        # observability for traces/tests
        self.dropped_requests = 0
        self.duplicated_requests = 0
        self.dropped_responses = 0
        self.resets = 0

    # -- client side ------------------------------------------------------------------

    def client_send(self, frame: bytes, now: int) -> None:
        """Transmit one request frame (faults may drop/dup/delay/reset it)."""
        rng, faults = self._rng, self.faults
        if self.broken:
            return
        if faults.reset and rng.random() < faults.reset:
            self.broken = True
            self.resets += 1
            return
        if faults.drop_request and rng.random() < faults.drop_request:
            self.dropped_requests += 1
            return
        if faults.dup_request and rng.random() < faults.dup_request:
            # Both copies travel in ONE chunk: the server decodes and
            # executes them back-to-back, and the second response slot is
            # suppressed below.
            self.duplicated_requests += 1
            self._suppress.add(self._requests_sent + 1)
            self._requests_sent += 2
            self._c2s.send(frame + frame, now, self._delay())
            return
        self._requests_sent += 1
        for chunk in self._split(frame):
            self._c2s.send(chunk, now, self._delay())

    def client_recv(self, now: int) -> list[bytes]:
        """Response payloads delivered by ``now`` (empty list if none)."""
        if self.broken:
            return []
        return [p for p in self._client_decoder.feed(self._s2c.recv(now))
                if isinstance(p, bytes)]

    # -- server side ------------------------------------------------------------------

    def server_recv(self, now: int) -> list[bytes | FrameTooLarge]:
        """Request payloads (or oversized-frame markers, which the server
        answers too) the server can decode by ``now``."""
        if self.broken:
            return []
        return self._server_decoder.feed(self._c2s.recv(now))

    def server_send(self, frame: bytes, now: int) -> None:
        """Transmit one response frame (suppression and faults apply)."""
        index = self._responses_sent
        self._responses_sent += 1
        if self.broken:
            return
        if index in self._suppress:
            self._suppress.discard(index)
            return
        rng, faults = self._rng, self.faults
        if faults.drop_response and rng.random() < faults.drop_response:
            # A response that vanishes while the connection lives would
            # leave the client waiting forever on a healthy stream; model
            # it as the close/RST a real peer would eventually see.
            self.dropped_responses += 1
            self.broken = True
            return
        for chunk in self._split(frame):
            self._s2c.send(chunk, now, self._delay())

    # -- fault helpers ----------------------------------------------------------------

    def _delay(self) -> int:
        faults = self.faults
        if faults.delay and self._rng.random() < faults.delay:
            return self._rng.randint(1, max(1, faults.max_delay_ticks))
        return 0

    def _split(self, frame: bytes) -> list[bytes]:
        """Cut a frame into 1..max_chunks pieces at seeded offsets."""
        max_chunks = self.faults.max_chunks
        if max_chunks <= 1 or len(frame) < 2:
            return [frame]
        pieces = self._rng.randint(1, max_chunks)
        if pieces == 1:
            return [frame]
        cuts = sorted(self._rng.sample(range(1, len(frame)),
                                       min(pieces - 1, len(frame) - 1)))
        bounds = [0] + cuts + [len(frame)]
        return [frame[a:b] for a, b in zip(bounds, bounds[1:])]
