"""UniKV public facade.

Ties together the unified-indexing design: a store-level memtable + WAL in
front of range partitions, each holding a hash-indexed UnsortedStore over an
append-only table list (hot data, inline values) and a fully-sorted,
KV-separated SortedStore (cold data).  Writes are absorbed by flushes;
merges (partial KV separation), GC, scan-merges and range splits are
submitted as jobs to the store's maintenance scheduler
(:mod:`repro.runtime`) exactly when their triggers fire — synchronous
foreground work by default, overlapped background device time with
write-stall backpressure when ``config.background_threads >= 1``.

Typical use::

    from repro import UniKV, UniKVConfig

    db = UniKV()
    db.put(b"user:1", b"alice")
    db.get(b"user:1")
    db.scan(b"user:", 10)

Reopening over an existing :class:`~repro.env.SimulatedDisk` recovers the
store from its manifest, WAL and hash-index checkpoints::

    db2 = UniKV(disk=db.disk, config=db.config)

Every metadata change is one manifest record, and :meth:`UniKV.apply` is
the one place a record becomes in-memory state: a job commits through it
(:meth:`~repro.core.context.StoreContext.commit`) and recovery replays
every record through it.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Iterator

from repro.engine.errors import CorruptionError
from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE, KIND_VPTR
from repro.engine.memtable import MemTable
from repro.engine.sstable import TableMeta
from repro.engine.vlog import fetch_values
from repro.engine.wal import WalWriter
from repro.core.config import UniKVConfig
from repro.core.context import StoreContext
from repro.core.gc import run_gc
from repro.core.manifest import Manifest, file_number, meta_from_json, meta_to_json
from repro.core.merge import merge_partition
from repro.core.partition import Partition
from repro.core.recovery import recover_store
from repro.core.split import split_partition
from repro.env.storage import ReadFault, SimulatedDisk
from repro.lsm.base import KVStore
from repro.obs import core_view
from repro.runtime.scheduler import Job

Record = tuple[bytes, int, bytes]

#: records per value fetch of :meth:`UniKV.items`
ITEMS_WINDOW = 64


class UniKV(KVStore):
    """Unified hash/LSM-indexed KV store (the paper's system)."""

    name = "UniKV"
    #: class-level default so recovered instances are "open" too
    _closed = False
    #: I/O tag of the readahead runs a scan fetches its values with (the
    #: paper's 32-thread fetch pool + readahead, as device reads)
    scan_value_tag = "scan_value"

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: UniKVConfig | None = None) -> None:
        self.config = config if config is not None else UniKVConfig()
        self.config.validate()
        disk = disk if disk is not None else SimulatedDisk()
        recovering = disk.exists("MANIFEST")
        self.ctx = StoreContext(disk, self.config, Manifest(disk), apply=self.apply)
        self.partitions: list[Partition] = []
        #: per-partition current index checkpoint: pid -> (file, covered ids)
        self._checkpoints: dict[int, tuple[str, list[int]]] = {}
        self._next_wal = 0
        self._next_ckpt = 0
        if recovering:
            recover_store(self)
            return
        self.ctx.commit({"type": "init", "partition": self.ctx.alloc_partition_id(),
                         "lower": ""})
        self._rotate_wal(self.partitions[0])

    # -- public API -------------------------------------------------------------------

    @property
    def disk(self) -> SimulatedDisk:
        return self.ctx.disk

    @property
    def stats(self) -> dict:
        """Structural event counts (flushes, merges, GC runs, ...), read
        off the metrics registry (:func:`repro.obs.core_view`)."""
        return core_view(self.metrics_snapshot())

    @property
    def scheduler(self):
        return self.ctx.scheduler

    @property
    def metrics(self):
        """The store's live observability registry (:mod:`repro.obs`)."""
        return self.ctx.metrics

    def metrics_snapshot(self) -> dict:
        """Deterministic snapshot of every counter/gauge/histogram."""
        return self.ctx.metrics.snapshot()

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        metrics = self.ctx.metrics
        timed = self.config.metrics_enabled
        start = metrics.clock() if timed else 0.0
        partition = self._partition_for(key)
        partition.wal.append(key, KIND_VALUE, value)
        partition.mem.put(key, value)
        self._maybe_flush(partition)
        if timed:
            self.ctx.op_seconds["put"].record(metrics.clock() - start)

    def delete(self, key: bytes) -> None:
        self._check_open()
        metrics = self.ctx.metrics
        timed = self.config.metrics_enabled
        start = metrics.clock() if timed else 0.0
        partition = self._partition_for(key)
        partition.wal.append(key, KIND_TOMBSTONE, b"")
        partition.mem.delete(key)
        self._maybe_flush(partition)
        if timed:
            self.ctx.op_seconds["delete"].record(metrics.clock() - start)

    def write_batch(self, ops: list[tuple]) -> None:
        """Apply a batch of ``("put", key, value)`` / ``("delete", key)``.

        Ops are grouped by partition; each group is made durable as ONE
        WAL record, so a batch whose keys fall in a single partition (the
        common case) is fully atomic across crashes.  A batch spanning
        partitions is atomic per partition: a crash can persist some
        partitions' groups and not others, never a partial group.
        """
        self._check_open()
        metrics = self.ctx.metrics
        timed = self.config.metrics_enabled
        start = metrics.clock() if timed else 0.0
        groups: dict[int, list[tuple[bytes, int, bytes]]] = {}
        for op in ops:
            if op[0] == "put":
                entry = (op[1], KIND_VALUE, op[2])
            elif op[0] == "delete":
                entry = (op[1], KIND_TOMBSTONE, b"")
            else:
                raise ValueError(f"unknown batch op {op[0]!r}")
            groups.setdefault(self._partition_index(entry[0]), []).append(entry)
        touched = []
        for pi, entries in sorted(groups.items()):
            partition = self.partitions[pi]
            partition.wal.append_batch(entries)
            for key, kind, value in entries:
                if kind == KIND_VALUE:
                    partition.mem.put(key, value)
                else:
                    partition.mem.delete(key)
            touched.append(partition)
        for partition in touched:
            if partition in self.partitions:
                self._maybe_flush(partition)
        if timed:
            self.ctx.op_seconds["batch"].record(metrics.clock() - start)

    def get(self, key: bytes) -> bytes | None:
        if not self.config.metrics_enabled:
            return self._partition_for(key).get(key)
        # Span timing on the scheduler's virtual clock, split by which
        # layer answered: the UnsortedStore hash-hit path vs the
        # KV-separated SortedStore path (the paper's differentiated
        # lookup is exactly this latency asymmetry).
        ctx = self.ctx
        clock = ctx.metrics.clock
        start = clock()
        value, path = self._partition_for(key).get_with_path(key)
        ctx.get_seconds[path].record(clock() - start)
        return value

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Range scan: seek to ``start``, return up to ``count`` live pairs.

        Within each partition this runs seek()/next() over the memtable,
        every UnsortedStore table (their ranges overlap) and the SortedStore
        run.  Partitions are disjoint and sorted, so they are consumed in
        order.  Once the merge has picked the ``count`` result records,
        their value pointers are fetched together with readahead
        (:func:`~repro.engine.vlog.fetch_values`): one device read per run
        of neighbouring value-log records.
        """
        if not self.config.metrics_enabled:
            return self._scan(start, count)
        metrics = self.ctx.metrics
        span_start = metrics.clock()
        out = self._scan(start, count)
        self.ctx.op_seconds["scan"].record(metrics.clock() - span_start)
        return out

    def _scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        # islice stops pulling after ``count`` records, so a scan fetches
        # exactly the values it returns (blocks: plus the merge's lookahead).
        if count <= 0:
            return []
        return self._with_values(list(islice(self._live_records(start, None), count)))

    def items(self, start: bytes = b"",
              end: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Stream live (key, value) pairs with start <= key < end, sorted.

        A lazy alternative to :meth:`scan` for unbounded iteration; values
        are fetched like a scan's, :data:`ITEMS_WINDOW` records at a time.
        The store must not be mutated while the iterator is live
        (single-writer discipline, as in LevelDB iterators without
        snapshots).
        """
        records = self._live_records(start, end)
        while window := list(islice(records, ITEMS_WINDOW)):
            yield from self._with_values(window)

    def flush(self) -> None:
        """Flush every partition's memtable and run triggered maintenance."""
        for partition in list(self.partitions):
            if partition in self.partitions:  # may have been split away
                self._submit("flush", lambda p=partition: bool(p.mem),
                             lambda p=partition: self._flush_partition(p))
        self._maybe_split()

    def close(self) -> None:
        """Shut the store down cleanly: flush memtables, sync and close the
        WALs, release table-cache and value-log handles.

        On the simulated device "fsync" is the writer close (appends are
        durable immediately); the method mirrors what a real engine's close
        must do.  Idempotent; further writes raise ``RuntimeError``, and a
        new instance over the same disk recovers the full durable state.
        """
        if self._closed:
            return
        if not self.disk.crashed:
            # On a crashed device there is nothing left to flush or sync —
            # acked state is already durable (WAL) and close must still
            # succeed so deployments can tear down dead shards.
            self.flush()
            for partition in self.partitions:
                partition.wal.close()
        self.ctx.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("store is closed")

    # -- routing -----------------------------------------------------------------------

    def _rebuild_boundaries(self) -> None:
        # Cached split points for _partition_index; rebuilt only when the
        # partition list changes (splits, recovery) — not per operation.
        self._boundaries = [p.lower for p in self.partitions[1:]]

    def _partition_index(self, key: bytes) -> int:
        # Every partition-list change in this codebase changes its length
        # (splits replace one partition with two), so a length mismatch is
        # a complete staleness check and keeps routing O(log P) per op.
        if len(self._boundaries) != len(self.partitions) - 1:
            self._rebuild_boundaries()
        return bisect_right(self._boundaries, key)

    def _partition_for(self, key: bytes) -> Partition:
        return self.partitions[self._partition_index(key)]

    # -- write path ---------------------------------------------------------------------

    def _maybe_flush(self, partition: Partition) -> None:
        job = self._submit(
            "flush",
            lambda: partition.mem.approximate_size >= self.config.memtable_size,
            lambda: self._flush_partition(partition))
        if job.ran:
            self._maybe_split()

    def _flush_partition(self, partition: Partition) -> None:
        """Flush one partition's memtable into its UnsortedStore."""
        if not partition.mem:
            return
        self.ctx.crash_point("flush:start")
        builder = self.ctx.new_table("flush")
        table_id = file_number(builder.name)
        add, keys = builder.add, []
        add_key = keys.append
        for key, kind, value in partition.mem.entries():
            add(key, kind, value)
            add_key(key)
        meta = builder.finish()
        self.ctx.load_tables([meta])
        self.ctx.crash_point("flush:before_commit")
        self.ctx.commit({
            "type": "flush",
            "partition": partition.id,
            "table_id": table_id,
            "meta": meta_to_json(meta),
        })
        partition.unsorted.index_table(table_id, keys)
        partition.unsorted.flushes_since_checkpoint += 1
        partition.mem = MemTable(seed=self.config.seed)
        self._rotate_wal(partition)
        self._maybe_checkpoint_index(partition)
        self._run_partition_maintenance(partition)

    def _new_wal(self) -> WalWriter:
        name = f"wal-{self._next_wal:06d}"
        self._next_wal += 1
        return WalWriter(self.ctx.disk, name, tag="wal")

    def _rotate_wal(self, partition: Partition) -> None:
        old = partition.wal
        partition.wal = self._new_wal()
        self.ctx.manifest.append({"type": "wal", "partition": partition.id,
                                  "name": partition.wal.name})
        if old is not None:
            old.close()
            if self.ctx.disk.exists(old.name):
                self.ctx.disk.delete(old.name)

    # -- maintenance -----------------------------------------------------------------------

    def _submit(self, kind: str, trigger, fn) -> Job:
        """Run one maintenance job.  A job that fails on damaged input
        leaves files no commit names: recovery's orphan sweep deletes them
        before the error propagates.  A crash is left to recovery."""
        try:
            return self.ctx.scheduler.submit(Job(kind=kind, trigger=trigger, fn=fn))
        except (CorruptionError, ReadFault):
            self.ctx.sweep_orphans(self._live_files())
            raise

    def _live_files(self) -> set[str]:
        """Every file the committed state names: the manifest, the index
        checkpoints, and each partition's tables, value logs and WAL."""
        live = {self.ctx.manifest.name, *(f for f, __ in self._checkpoints.values())}
        for partition in self.partitions:
            live.update(meta.name for meta in partition.unsorted.tables.values())
            live.update(meta.name for meta in partition.sorted.tables)
            live.update(map(self.ctx.log_name, partition.log_numbers))
            if partition.wal is not None:  # None while recovery runs
                live.add(partition.wal.name)
        return live

    def _run_partition_maintenance(self, partition: Partition) -> None:
        if self._submit("merge", partition.needs_merge,
                        lambda: merge_partition(self.ctx, partition)).ran:
            self._submit("gc", partition.needs_gc,
                         lambda: run_gc(self.ctx, partition))
        else:
            self._submit("scan_merge", partition.unsorted.needs_scan_merge,
                         lambda: self._scan_merge(partition))

    def _scan_merge(self, partition: Partition) -> None:
        """Size-based merge of the UnsortedStore into one sorted table."""
        self.ctx.crash_point("scan_merge:start")
        meta, keys = partition.unsorted.scan_merge()
        table_id = file_number(meta.name)
        self.ctx.crash_point("scan_merge:before_commit")
        self.ctx.commit({
            "type": "scan_merge",
            "partition": partition.id,
            "removed": [m.name for m in partition.unsorted.tables.values()],
            "table_id": table_id,
            "meta": meta_to_json(meta),
        })
        partition.unsorted.index.clear()
        partition.unsorted.index_table(table_id, keys)

    def _maybe_split(self) -> None:
        changed = True
        while changed:
            changed = False
            for partition in self.partitions:
                job = self._submit("split", partition.needs_split,
                                   lambda p=partition: split_partition(self.ctx, p))
                if not job.ran or job.result is None:
                    continue
                # Retire the old partition's WAL (its memtable was folded
                # into the split output) and start fresh WALs for the halves.
                partition.wal.close()
                if self.ctx.disk.exists(partition.wal.name):
                    self.ctx.disk.delete(partition.wal.name)
                for part in job.result:
                    self._rotate_wal(part)
                changed = True
                break

    # -- hash-index checkpointing -----------------------------------------------------------

    def _maybe_checkpoint_index(self, partition: Partition) -> None:
        interval = self.config.index_checkpoint_interval
        if interval <= 0:
            return
        if partition.unsorted.flushes_since_checkpoint < interval:
            return
        self._checkpoint_index(partition)

    def _checkpoint_index(self, partition: Partition) -> None:
        name = f"ckpt-{self._next_ckpt:06d}"
        self._next_ckpt += 1
        writer = self.ctx.disk.create(name)
        writer.append(partition.unsorted.index.encode(), tag="checkpoint")
        writer.close()
        self.ctx.crash_point("checkpoint:before_commit")
        self.ctx.commit({
            "type": "checkpoint",
            "partition": partition.id,
            "file": name,
            "covered": sorted(partition.unsorted.tables),
        })
        partition.unsorted.flushes_since_checkpoint = 0
        self.ctx.metrics.counter("index_checkpoints_total").inc()

    def _drop_checkpoint(self, partition_id: int) -> None:
        prior = self._checkpoints.pop(partition_id, None)
        if prior is not None and self.ctx.disk.exists(prior[0]):
            self.ctx.disk.delete(prior[0])

    # -- the applier ------------------------------------------------------------------------

    def apply(self, record: dict) -> list[Partition] | None:
        """Turn one committed manifest record into in-memory state.

        A job calls this right after appending its record
        (:meth:`StoreContext.commit`), and recovery runs every replayed
        record through it, so a commit and its replay cannot disagree.
        It installs the record's tables and deletes the ones they replace,
        adds and releases value-log references, replaces a split
        partition, and sets or drops index checkpoints (deleting the file
        a checkpoint replaces); the allocators move past every number the
        record names.  What only a live job can do, indexing the keys it
        wrote, stays in the job.  Returns a split's new partitions.
        """
        rtype = record["type"]
        if rtype == "init":
            self.partitions.append(self._new_partition(record["partition"], record["lower"]))
            self._rebuild_boundaries()
            return None
        if rtype == "split":
            return self._apply_split(record)
        if rtype == "checkpoint":
            self._drop_checkpoint(record["partition"])
            self._checkpoints[record["partition"]] = (record["file"], record["covered"])
            self._next_ckpt = max(self._next_ckpt, file_number(record["file"]) + 1)
            return None
        partition = self._partition_by_id(record["partition"])
        unsorted, sorted_store = partition.unsorted, partition.sorted
        if rtype == "flush":
            unsorted.tables[record["table_id"]] = self._metas([record["meta"]])[0]
            return None
        if rtype == "scan_merge":
            replaced = list(unsorted.tables.values())
            unsorted.tables = {record["table_id"]: self._metas([record["meta"]])[0]}
        else:  # merge, gc
            replaced = list(sorted_store.tables)
            if rtype == "merge":
                replaced.extend(unsorted.tables.values())
                unsorted.tables = {}
            sorted_store.replace_tables(self._metas(record["added_tables"]))
            sorted_store.live_value_bytes = record["live_value_bytes"]
            self._add_log(partition, record["new_log"])
            for log_number in record.get("released_logs", ()):
                partition.release_log(log_number)
        for meta in replaced:
            self.ctx.drop_table(meta.name)
        if rtype != "gc":
            # The hash index no longer holds the removed tables, so any
            # older checkpoint of it no longer applies.
            self._drop_checkpoint(partition.id)
        return None

    def _apply_split(self, record: dict) -> list[Partition]:
        old = self._partition_by_id(record["old_partition"])
        parts = []
        for info in record["parts"]:
            part = self._new_partition(info["id"], info["lower"])
            part.sorted.replace_tables(self._metas(info["tables"]))
            part.sorted.live_value_bytes = info["live_value_bytes"]
            self._add_log(part, info["new_log"])
            for log_number in record["shared_logs"]:
                part.add_log(log_number)
            parts.append(part)
        for log_number in list(old.log_numbers):
            old.release_log(log_number)
        for meta in [*old.unsorted.tables.values(), *old.sorted.tables]:
            self.ctx.drop_table(meta.name)
        self._drop_checkpoint(old.id)
        at = self.partitions.index(old)
        self.partitions[at:at + 1] = parts
        self._rebuild_boundaries()
        return parts

    def _partition_by_id(self, partition_id: int) -> Partition:
        for partition in self.partitions:
            if partition.id == partition_id:
                return partition
        raise CorruptionError(f"manifest record names unknown partition {partition_id}")

    def _new_partition(self, partition_id: int, lower_hex: str) -> Partition:
        ctx = self.ctx
        ctx.next_partition = max(ctx.next_partition, partition_id + 1)
        return Partition(ctx, partition_id, bytes.fromhex(lower_hex))

    def _metas(self, objs: list[dict]) -> list[TableMeta]:
        metas = [meta_from_json(obj) for obj in objs]
        ctx = self.ctx
        for meta in metas:
            ctx.next_table = max(ctx.next_table, file_number(meta.name) + 1)
        return metas

    def _add_log(self, partition: Partition, log_number: int | None) -> None:
        if log_number is not None:
            partition.add_log(log_number)
            self.ctx.next_log = max(self.ctx.next_log, log_number + 1)

    # -- scans ----------------------------------------------------------------------------

    def _live_records(self, start: bytes, end: bytes | None) -> Iterator[Record]:
        """The merged records with start <= key < end, tombstones dropped;
        a SortedStore value is still its pointer (``KIND_VPTR``)."""
        start_index = self._partition_index(start)
        for pi in range(start_index, len(self.partitions)):
            partition = self.partitions[pi]
            if end is not None and partition.lower >= end:
                return
            lo = max(start, partition.lower)
            hi = (self.partitions[pi + 1].lower
                  if pi + 1 < len(self.partitions) else None)
            for record in self._partition_scan(partition, lo, hi):
                if end is not None and record[0] >= end:
                    return
                if record[1] != KIND_TOMBSTONE:
                    yield record

    def _with_values(self, records: list[Record]) -> list[tuple[bytes, bytes]]:
        """``records`` as (key, value) pairs, their pointers fetched with
        readahead in one batch."""
        wanted = [(key, payload) for key, kind, payload in records if kind == KIND_VPTR]
        values = iter(fetch_values(self.ctx.log_reader, wanted, self.scan_value_tag))
        return [(key, next(values) if kind == KIND_VPTR else payload)
                for key, kind, payload in records]

    def _partition_scan(self, partition: Partition, lo: bytes,
                        hi: bytes | None) -> Iterator[Record]:
        # The partition's memtable only holds keys in its range, so no
        # clipping against ``hi`` is needed.
        sources: list[Iterator[Record]] = [partition.mem.entries_from(lo)]
        sources.extend(partition.unsorted.scan_sources(lo))
        sources.append(partition.sorted.entries_from(lo))
        return merge_sorted(sources)

    # -- introspection ------------------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Hash indexes + partition boundary keys (the paper's memory cost)."""
        total = sum(p.unsorted.index.memory_bytes() for p in self.partitions)
        total += sum(len(p.lower) + 8 for p in self.partitions)
        return total

    def num_partitions(self) -> int:
        return len(self.partitions)

    def table_metadata_bytes(self) -> int:
        """Memory held by resident table metadata (index blocks + bounds).

        UniKV pins table metadata in memory instead of Bloom filters; this
        reports that budget so the memory-overhead experiments can weigh it
        against the baselines' filter memory.
        """
        return self.ctx.table_metadata_bytes()

    def describe(self) -> dict:
        return {
            "partitions": [p.describe() for p in self.partitions],
            "stats": self.stats,
            "index_memory_bytes": self.index_memory_bytes(),
            "runtime": self.ctx.scheduler.describe(),
        }
