"""Seeded inputs, closed-loop clients and the correctness model.

Every key the benchmark ever sends is known to a :class:`Model` held by the
benchmark process.  Keys look like YCSB's (``user`` + 16 hex digits of a
seeded 64-bit hash of the record id), so ids spread evenly over the four
shard ranges ``user0..``, ``user4..``, ``user8..`` and ``userc..``.

A value encodes its key and a version number and is padded to a fixed
size, so every value read back can be checked for the right key, the
right length and a version the model allows.  Each record has exactly one
writing client (ownership by id), and each client issues one request at a
time on its own connection, so a record's versions are applied in order
and a reader can bound the version it must see:

* a client reading a record it owns must see exactly its last acked write;
* any client reading any record must see a version between the one acked
  when it sent the request and the highest one sent when the reply came.

Scans are also checked for order, range, and completeness: every loaded
record between the start key and the last returned key must be present.
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_left
from time import perf_counter

from repro.service.client import AsyncKVClient, RetryPolicy, ServerError, TransientError
from repro.workloads.distributions import ZipfianChooser

_MASK = (1 << 64) - 1

#: Loaded records: far more than the shards' block caches hold, few enough
#: that set-up stays near one second.
RECORDS = 20_000
VALUE_SIZE = 100
#: Closed-loop clients, one connection and one request in flight each.
#: One client leaves the server idle between requests and two keep it
#: busy (see README.md); four keep it busy while the client process runs
#: slow, and give ``batch-get`` three readers.  More only lengthen the queue.
CLIENTS = 4
#: Puts per BATCH, in the load and in ``batch-get``: the batch size of the
#: repository's head-of-line measurement (ROADMAP.md, "Serving has
#: head-of-line blocking").
BATCH = 128

#: failures of a single request: the op is counted as attempted and failed
REQUEST_ERRORS = (TransientError, ServerError, ConnectionError, OSError,
                  asyncio.TimeoutError)


def _mix64(x: int) -> int:
    """splitmix64 finaliser: a seeded, collision-resistant id -> key hash."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class Model:
    """Every record the benchmark wrote, with its owner and versions."""

    def __init__(self, seed: int) -> None:
        self.salt = _mix64(seed)
        self.loaded = RECORDS
        self.keys: list[bytes] = []
        self.ids: dict[bytes, int] = {}
        self.owner: list[int] = []
        #: highest version sent / acked per id (-1: never written)
        self.sent: list[int] = []
        self.acked: list[int] = []
        for i in range(RECORDS):
            self.new_record(i % CLIENTS)
        self.sorted_loaded = sorted(self.keys)
        #: user bytes (key + value) acked by the server
        self.user_bytes = 0

    def new_record(self, owner: int) -> int:
        i = len(self.keys)
        key = b"user%016x" % _mix64(self.salt ^ i)
        self.keys.append(key)
        self.ids[key] = i
        self.owner.append(owner)
        self.sent.append(-1)
        self.acked.append(-1)
        return i

    def owned(self, i: int, client: int) -> int:
        """The id nearest ``i`` among the loaded ids ``client`` owns."""
        i += client - i % CLIENTS
        return i if i < self.loaded else i - CLIENTS

    def value(self, i: int, version: int) -> bytes:
        head = b"%s|%d|" % (self.keys[i], version)
        return head.ljust(VALUE_SIZE, b".")

    def next_version(self, i: int) -> tuple[bytes, bytes, int]:
        version = self.sent[i] + 1
        self.sent[i] = version
        return self.keys[i], self.value(i, version), version

    def ack(self, i: int, version: int) -> None:
        if version > self.acked[i]:
            self.acked[i] = version
        self.user_bytes += len(self.keys[i]) + VALUE_SIZE

    def check(self, i: int, value: bytes | None, lo: int) -> bool:
        """Is ``value`` a version of record ``i`` in ``[lo, sent]``?"""
        if value is None:
            return lo < 0
        key = self.keys[i]
        if not value.startswith(key + b"|"):
            return False
        end = value.find(b"|", len(key) + 1)
        if end < 0:
            return False
        try:
            version = int(value[len(key) + 1:end])
        except ValueError:
            return False
        return lo <= version <= self.sent[i] and value == self.value(i, version)

    def check_scan(self, client: int, start: bytes, count: int,
                   pairs: list[tuple[bytes, bytes]]) -> bool:
        if len(pairs) > count:
            return False
        prev = None
        seen = set()
        for key, value in pairs:
            if key < start or (prev is not None and key <= prev):
                return False
            prev = key
            i = self.ids.get(key)
            if i is None:
                return False  # a key nobody wrote
            lo = self.acked[i] if self.owner[i] == client else 0
            if not self.check(i, value, lo):
                return False
            seen.add(key)
        # Completeness against the loaded records, which are never deleted.
        pos = bisect_left(self.sorted_loaded, start)
        loaded = self.sorted_loaded
        while pos < len(loaded) and (prev is None or loaded[pos] <= prev):
            if loaded[pos] not in seen:
                return False
            pos += 1
        # A short result must have reached the end of the keyspace.
        return len(pairs) == count or pos == len(loaded)


class Workload:
    """One traffic mix: what each client sends and how replies are checked."""

    name = ""

    def __init__(self, model: Model, seed: int) -> None:
        self.model = model
        self.seed = seed

    def ops(self, me: int) -> int:
        """KV operations each request of client ``me`` carries."""
        return 1

    async def step(self, client: AsyncKVClient, rng: random.Random,
                   zipf: ZipfianChooser, me: int) -> tuple[str, bool]:
        """Send one request; return (its kind, outputs correct)."""
        raise NotImplementedError

    async def _put(self, client: AsyncKVClient, i: int) -> bool:
        model = self.model
        key, value, version = model.next_version(i)
        applied = await client.put(key, value)
        model.ack(i, version)
        return applied == 1

    async def _get(self, client: AsyncKVClient, i: int) -> bool:
        model = self.model
        lo = model.acked[i]
        value = await client.get(model.keys[i])
        return model.check(i, value, lo)


class YcsbB(Workload):
    """95% point reads, 5% updates, Zipfian over the loaded records."""

    name = "ycsb-b"

    async def step(self, client, rng, zipf, me):
        i = zipf.next()
        if rng.random() < 0.05:
            return "put", await self._put(client, self.model.owned(i, me))
        return "get", await self._get(client, i)


class YcsbE(Workload):
    """95% short scans (Zipfian start, 1-100 records), 5% inserts."""

    name = "ycsb-e"
    max_scan = 100

    async def step(self, client, rng, zipf, me):
        model = self.model
        if rng.random() < 0.05:
            return "insert", await self._put(client, model.new_record(me))
        start = model.keys[zipf.next()]
        count = rng.randint(1, self.max_scan)
        pairs = await client.scan(start, count)
        return "scan", model.check_scan(me, start, count, pairs)


class BatchGet(Workload):
    """Client 0 streams BATCHes of overwrites; the others send Zipfian GETs.

    A GET that reaches the server while a batch runs waits for all of it,
    and for any flush, merge or GC the batch triggers, so GET latency here
    includes the server's head-of-line blocking.  Overwrites, uniform over
    the records client 0 owns, keep the live data set at a fixed size, so
    the maintenance cost per operation does not drift with how many
    operations a run completes.
    """

    name = "batch-get"

    def ops(self, me):
        return 1 if me else BATCH

    async def step(self, client, rng, zipf, me):
        model = self.model
        if me:
            return "get", await self._get(client, zipf.next())
        ops, written = [], []
        for __ in range(BATCH):
            i = model.owned(rng.randrange(model.loaded), me)
            key, value, version = model.next_version(i)
            ops.append(("put", key, value))
            written.append((i, version))
        applied = await client.write_batch(ops)
        for i, version in written:
            model.ack(i, version)
        return "batch", applied == len(ops)


WORKLOADS = {cls.name: cls for cls in (YcsbB, YcsbE, BatchGet)}


class Samples:
    """Per-request outcomes of one phase."""

    def __init__(self) -> None:
        #: (completion time, latency seconds, KV ops, kind) of each
        #: successful request
        self.done: list[tuple[float, float, int, str]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0


async def run_phase(workload: Workload, port: int, seconds: float,
                    phase: int) -> tuple[Samples, float, float]:
    """Drive every client closed-loop for ``seconds``; returns the samples
    and the phase's (start, deadline) on the ``perf_counter`` clock."""
    samples = Samples()
    start = perf_counter()
    deadline = start + seconds

    async def one(me: int) -> None:
        rng = random.Random(workload.seed * 1_000_003 + phase * 1009 + me)
        retry = RetryPolicy(seed=rng.getrandbits(32))
        zipf = ZipfianChooser(workload.model.loaded, seed=rng.getrandbits(64))
        nops = workload.ops(me)
        async with AsyncKVClient(port=port, retry=retry, timeout=30.0) as client:
            while perf_counter() < deadline:
                t0 = perf_counter()
                samples.attempted += nops
                try:
                    kind, ok = await workload.step(client, rng, zipf, me)
                except REQUEST_ERRORS:
                    samples.failed += nops
                    continue
                t1 = perf_counter()
                samples.done.append((t1, t1 - t0, nops, kind))
                if not ok:
                    samples.wrong += 1

    await asyncio.gather(*(one(me) for me in range(CLIENTS)))
    return samples, start, deadline


async def verify(model: Model, port: int, rng: random.Random, sample: int = 1500) -> int:
    """Read back a seeded sample of records after the clients stopped;
    returns the number of wrong or failed reads."""
    written = [i for i in range(len(model.keys)) if model.sent[i] > 0 or i >= model.loaded]
    ids = rng.sample(written, min(sample, len(written)))
    ids += rng.sample(range(model.loaded), min(sample // 3, model.loaded))
    wrong = 0
    async with AsyncKVClient(port=port, timeout=30.0) as client:
        for pos in range(0, len(ids), 64):
            chunk = ids[pos:pos + 64]
            values = await asyncio.gather(
                *(client.get(model.keys[i]) for i in chunk), return_exceptions=True)
            for i, value in zip(chunk, values):
                if isinstance(value, BaseException):
                    wrong += 1
                elif not model.check(i, value, model.acked[i]):
                    wrong += 1
    return wrong
