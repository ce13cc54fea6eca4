"""Deterministic full-stack fault-injection harness.

One integer seed drives an entire run: concurrent clients issue put/get/
delete traffic at a sharded UniKV deployment through the chaos transport
(:mod:`repro.sim.faults`), shards are killed with torn-write power
failures and recovered from crash-consistent device clones
(:meth:`~repro.env.storage.SimulatedDisk.crash_clone` →
:func:`~repro.core.recovery.recover_store` →
:meth:`~repro.service.router.ShardRouter.reattach`), and afterwards the
consistency oracle (:mod:`repro.sim.oracle`) validates the acknowledged
history against the recovered final state.

The simulation is a single-threaded discrete-tick loop: per tick every
client advances one step, the server drains every connection, and due
crash/recovery events fire.  All nondeterminism is drawn from
``random.Random`` instances derived from the master seed, and no wall
clock steers the run, so the same seed reproduces the same run bit for
bit (asserted via the event trace).  Both ends are shipped code, not
copies: the server's ``RequestHandler`` and each client's ``ClientCore``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import UniKVConfig
from repro.core.store import UniKV
from repro.env.storage import SimulatedDisk
from repro.obs import server_view
from repro.service.client import ClientCore, Pipeline, RetryPolicy, ServerError, TransientError
from repro.service.handler import RequestHandler, Session
from repro.service.router import ShardRouter, default_boundaries, replace_config
from repro.sim.faults import NO_FAULTS, ChaosConnection, FaultConfig
from repro.sim.oracle import History, Violation, check


@dataclass
class SimConfig:
    """Knobs of one chaos run (everything else derives from the seed)."""

    steps: int = 600
    num_shards: int = 3
    num_clients: int = 4
    keyspace: int = 48
    #: shard power failures injected per run
    num_crashes: int = 2
    #: ticks a crashed shard stays down before its recovered store attaches
    recovery_delay: int = 8
    #: ticks a client waits for a response before abandoning the connection
    client_timeout: int = 40
    #: hard cap on post-run drain ticks (a failure to drain is a bug)
    max_drain_ticks: int = 20_000
    faults: FaultConfig = field(default_factory=lambda: FaultConfig(
        drop_request=0.02, dup_request=0.02, drop_response=0.02,
        reset=0.01, delay=0.25, max_delay_ticks=6, max_chunks=4))
    #: op mix weights (put, get, delete)
    weights: tuple[float, float, float] = (0.5, 0.3, 0.2)


#: PUT values are padded to this size so memtables fill and maintenance runs
PUT_VALUE_BYTES = 400

#: seconds of client backoff per tick: converts RetryPolicy delays to ticks
TICK_S = 0.001


def sim_store_config(seed: int = 0) -> UniKVConfig:
    """A small-scale store config so flush/merge/scan-merge fire (not yet GC/split)."""
    return UniKVConfig(
        memtable_size=2 * 1024,
        unsorted_limit_bytes=8 * 1024,
        vlog_gc_limit=16 * 1024,
        partition_size_limit=48 * 1024,
        hash_buckets=512,
        index_checkpoint_interval=2,
        seed=seed,
    )


class SimClient(ClientCore):
    """One closed-loop client: at most one logical operation in flight.

    Calls, retries, backoff and reply decoding are the shipped client core;
    this transport only moves frames over a :class:`ChaosConnection` and
    waits in ticks.
    """

    def __init__(self, cid: int, harness: "SimHarness", master: random.Random) -> None:
        self.op_rng = random.Random(master.randrange(2 ** 63))
        #: one fault stream across all of this client's connections, so a
        #: reconnect continues (not restarts) the seeded fault schedule
        self.fault_rng = random.Random(master.randrange(2 ** 63))
        super().__init__(retry=RetryPolicy(seed=master.randrange(2 ** 63)))
        self.cid = cid
        self.harness = harness
        self.session = Session()  # server-side admission state (shed streak)
        self.record = None          # in-flight OpRecord
        self._attempts = None       # its retry loop (the client core's generator)
        self.sent_at = None         # tick its frame was sent; None while backing off
        self.resume_at = 0          # tick the backoff ends
        self.timeouts = 0
        self.gave_up = 0
        self.pipeline()  # connect up front

    @property
    def idle(self) -> bool:
        return self.record is None

    # -- tick step --------------------------------------------------------------------

    def step(self, now: int) -> None:
        if self.record is None:
            if self.harness.generating:
                self._start_op(now)
        elif self.sent_at is None:
            if now >= self.resume_at:
                self._advance(now, None)
        elif self.conn.broken:
            self._fail(now, "broken", ConnectionError("connection broken"))
        elif replies := self._pipeline.deliver(self.conn.client_recv(now)):
            self._advance(now, replies[0][1])
        elif now - self.sent_at >= self.harness.config.client_timeout:
            self.timeouts += 1
            self._fail(now, "timeout", TimeoutError("no response"))

    # -- operation lifecycle ------------------------------------------------------------

    def _start_op(self, now: int) -> None:
        rng = self.op_rng
        harness = self.harness
        key = harness.keys[rng.randrange(len(harness.keys))]
        (w_put, w_get, __) = harness.config.weights
        roll = rng.random()
        if roll < w_put:
            kind = "put"
        elif roll < w_put + w_get:
            kind = "get"
        else:
            kind = "delete"
        record = harness.history.invoke(self.cid, kind, key, None, now)
        self.record = record
        harness.trace_event(f"t={now} c{self.cid} invoke op{record.op_id} "
                            f"{kind} {key!r}")
        if kind == "put":
            # Unique per logical operation: the oracle identifies writes
            # by value, and retries re-send the same value.
            record.value = (b"v-c%d-op%d-" % (self.cid, record.op_id)).ljust(
                PUT_VALUE_BYTES, b"x")
            self._attempts = self.put(key, record.value)
        elif kind == "delete":
            self._attempts = self.delete(key)
        else:
            self._attempts = self.get(key)
        self._advance(now, None)

    def _advance(self, now: int, outcome) -> None:
        """Feed the core's retry loop one outcome and act on its decision:
        send, back off, or end the operation (acked, or unacked after an
        error reply or once the retries are spent)."""
        record = self.record
        try:
            step = self._attempts.send(outcome)
        except StopIteration as done:
            self.harness.history.ack(record, now, done.value)
            event = "ack"
        except TransientError:
            self.gave_up += 1
            event = "giveup"
        except ServerError as exc:
            event = f"error ({exc})"
        else:
            if isinstance(step, bytes):
                self.pipeline().pending.append(record)
                self.conn.client_send(step, now)
                self.sent_at = now
            else:
                self.harness.history.retry(record)
                self.sent_at = None
                self.resume_at = now + max(1, round(step / TICK_S))
                self.harness.trace_event(f"t={now} c{self.cid} backoff "
                                         f"op{record.op_id} to t={self.resume_at}")
            return
        self.harness.trace_event(f"t={now} c{self.cid} {event} op{record.op_id}")
        self.record = self._attempts = None

    def _fail(self, now: int, what: str, exc: Exception) -> None:
        self.harness.trace_event(f"t={now} c{self.cid} {what} op{self.record.op_id}")
        self.drop(self._pipeline)
        self.conn.broken = True  # abandoned: neither side reads it again
        self._advance(now, exc)

    def _open(self, pipe: Pipeline) -> ChaosConnection:
        self.conn = self.harness.open_connection(self)
        return self.conn


class SimHarness:
    """Builds the deployment, runs the tick loop, checks the oracle."""

    def __init__(self, seed: int, config: SimConfig | None = None) -> None:
        self.seed = seed
        self.config = config or SimConfig()
        master = random.Random(seed)
        self.history = History()
        self.trace: list[str] = []
        self.generating = True
        self._faults = self.config.faults

        # keyspace spread across the shard boundaries (first byte spans
        # 0..255 so every shard sees traffic)
        n = self.config.keyspace
        self.keys = [bytes([(i * 256) // n]) + b"k%03d" % i for i in range(n)]

        self.store_config = sim_store_config(seed)
        stores = [UniKV(disk=SimulatedDisk(sync_tracking=True),
                        config=replace_config(self.store_config))
                  for __ in range(self.config.num_shards)]
        self.router = ShardRouter(
            stores, default_boundaries(self.config.num_shards))
        #: the request handler the TCP server runs, minus its transport
        self.handler = RequestHandler(self.router)
        #: every connection opened, abandoned ones included (they are broken)
        self.connections: list[tuple[SimClient, ChaosConnection]] = []
        self.clients = [SimClient(cid, self, master)
                        for cid in range(self.config.num_clients)]
        self._crash_rng = random.Random(master.randrange(2 ** 63))
        self._crash_schedule = self._plan_crashes()
        #: (due tick, shard index, crash-consistent disk clone) — a list,
        #: not a tick-keyed dict: two crashes may come due the same tick
        #: (seed 23 of the harsh-profile sweep found the collision)
        self._pending_recovery: list[tuple[int, int, SimulatedDisk]] = []
        #: shards with an armed mid-append crash, awaiting detection
        self._armed: set[int] = set()
        self.crashes = 0
        self.recoveries = 0

    # -- wiring -----------------------------------------------------------------------

    def open_connection(self, client: SimClient) -> ChaosConnection:
        """A fresh connection for ``client``."""
        conn = ChaosConnection(client.fault_rng, self._faults)
        self.connections.append((client, conn))
        return conn

    def trace_event(self, line: str) -> None:
        self.trace.append(line)

    # -- crash orchestration ------------------------------------------------------------

    def _plan_crashes(self) -> dict[int, tuple[int, str]]:
        """tick -> (shard, flavor); scheduled in the middle of the run."""
        cfg = self.config
        if cfg.num_crashes <= 0 or cfg.steps < 40:
            return {}
        lo, hi = cfg.steps // 5, (cfg.steps * 4) // 5
        ticks = sorted(self._crash_rng.sample(
            range(lo, hi), min(cfg.num_crashes, hi - lo)))
        schedule = {}
        for tick in ticks:
            shard = self._crash_rng.randrange(cfg.num_shards)
            flavor = ("armed" if self._crash_rng.random() < 0.5
                      else "immediate")
            schedule[tick] = (shard, flavor)
        return schedule

    def _fire_crash(self, now: int, shard: int, flavor: str) -> None:
        disk = self.router.stores[shard].disk
        if (disk.crashed or shard in self._armed
                or any(s == shard for __, s, ___ in self._pending_recovery)):
            return  # already down or recovering; skip this injection
        if flavor == "armed":
            # Lose power inside one of the next appends — a live torn
            # write, detected when the store raises DiskCrashed.
            disk.arm_crash(self._crash_rng.randint(1, 512))
            self._armed.add(shard)
            self.trace_event(f"t={now} arm-crash shard{shard}")
            return
        self.trace_event(f"t={now} crash shard{shard}")
        self._begin_recovery(now, shard, disk)

    def _begin_recovery(self, now: int, shard: int,
                        disk: SimulatedDisk) -> None:
        self.crashes += 1
        self._armed.discard(shard)
        clone = disk.crash_clone(random.Random(self._crash_rng.randrange(2 ** 63)))
        disk.crash()  # the live device is dead until the clone attaches
        self._pending_recovery.append(
            (now + self.config.recovery_delay, shard, clone))

    def _poll_crashes(self, now: int) -> None:
        # Scheduled injections.
        event = self._crash_schedule.pop(now, None)
        if event is not None:
            self._fire_crash(now, *event)
        # Armed crashes that have fired inside the store.
        for shard in sorted(self._armed):
            disk = self.router.stores[shard].disk
            if disk.crashed:
                # crash_clone reads the raw file map (it is not gated on
                # the crashed flag), so the partially landed append is
                # visible and the seeded tear applies on top of it.
                self.trace_event(f"t={now} crash shard{shard} (mid-append)")
                self._begin_recovery(now, shard, disk)
        # Due recoveries.
        due = [entry for entry in self._pending_recovery if entry[0] <= now]
        self._pending_recovery = [e for e in self._pending_recovery
                                  if e[0] > now]
        for __, shard, clone in due:
            self._recover(now, shard, clone)

    def _finish_recoveries(self, now: int) -> None:
        """Disarm pending crashes and attach every recovered store."""
        for shard in sorted(self._armed):
            self.router.stores[shard].disk.disarm_crash()
        self._armed.clear()
        for __, shard, clone in self._pending_recovery:
            self._recover(now, shard, clone, drain=True)
        self._pending_recovery = []

    def _recover(self, now: int, shard: int, clone: SimulatedDisk,
                 drain: bool = False) -> None:
        """Reopen ``shard`` from its crash clone and attach it."""
        store = UniKV(disk=clone, config=replace_config(self.store_config))
        self.router.reattach(shard, store)
        self.recoveries += 1
        note = "drain" if drain else f"{store.num_partitions()} partitions"
        self.trace_event(f"t={now} recover shard{shard} ({note})")

    # -- the run ----------------------------------------------------------------------

    def run(self) -> "SimResult":
        cfg = self.config
        now = 0
        for now in range(cfg.steps):
            self._poll_crashes(now)
            for client in self.clients:
                client.step(now)
            self._server_tick(now)

        # Drain: no new ops, no new faults, every in-flight op completes.
        self.generating = False
        self._faults = NO_FAULTS
        for __, conn in self.connections:
            conn.faults = NO_FAULTS
        now += 1
        self._finish_recoveries(now)
        drained_at = None
        for now in range(now, now + cfg.max_drain_ticks):
            self._poll_crashes(now)
            for client in self.clients:
                client.step(now)
            self._server_tick(now)
            if all(c.idle for c in self.clients):
                drained_at = now
                break
        if drained_at is None:
            raise RuntimeError(
                f"seed {self.seed}: clients failed to drain within "
                f"{cfg.max_drain_ticks} ticks")
        self.trace_event(f"t={drained_at} drained")

        final_state = self._read_final_state()
        violations = check(self.history, final_state)
        server = server_view(self.handler.metrics.snapshot())
        return SimResult(
            seed=self.seed,
            violations=violations,
            trace=list(self.trace),
            history_stats=self.history.stats(),
            final_keys=len(final_state),
            crashes=self.crashes,
            recoveries=self.recoveries,
            server_requests=server["requests"],
            server_errors=server["errors"],
            crashed_rejections=server["crashed_rejections"],
            timeouts=sum(c.timeouts for c in self.clients),
            gave_up=sum(c.gave_up for c in self.clients),
            transport=self._transport_stats(),
        )

    def _server_tick(self, now: int) -> None:
        # handle_now: the tick loop has no wall clock, so a delayed write
        # is applied at once
        for client, conn in self.connections:
            for payload in conn.server_recv(now):
                conn.server_send(self.handler.handle_now(payload, client.session), now)

    def _read_final_state(self) -> dict[bytes, bytes]:
        """The recovered, drained deployment's full contents (fault-free)."""
        pairs = self.router.scan(b"", self.config.keyspace * 4 + 16)
        return dict(pairs)

    def _transport_stats(self) -> dict:
        keys = ("dropped_requests", "duplicated_requests", "dropped_responses", "resets")
        return {key: sum(getattr(conn, key) for __, conn in self.connections)
                for key in keys}


@dataclass
class SimResult:
    """Outcome of one seeded chaos run."""

    seed: int
    violations: list[Violation]
    trace: list[str]
    history_stats: dict
    final_keys: int
    crashes: int
    recoveries: int
    server_requests: int
    server_errors: int
    crashed_rejections: int
    timeouts: int
    #: operations abandoned unacked once the client's retries were spent
    gave_up: int
    transport: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        h = self.history_stats
        line = (f"seed={self.seed} ops={h['ops']} acked={h['acked']} "
                f"retries={h['retries']} crashes={self.crashes} "
                f"recoveries={self.recoveries} timeouts={self.timeouts} "
                f"gave_up={self.gave_up} "
                f"final_keys={self.final_keys} "
                f"violations={len(self.violations)}")
        if self.violations:
            line += "\n" + "\n".join(f"  {v}" for v in self.violations)
        return line


def run_sim(seed: int, config: SimConfig | None = None) -> SimResult:
    """Run one seeded chaos simulation end to end."""
    return SimHarness(seed, config).run()
