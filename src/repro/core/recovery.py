"""Crash recovery: rebuilding a UniKV store from its durable state.

Recovery replays three sources, exactly the paper's scheme:

1. **Manifest** — partition layout, table lists, value-log references and
   index checkpoints are reconstructed by replaying the metadata log.  Any
   data file on disk that the replayed state does not reference is an
   orphan from an uncommitted operation (a crash between data write and
   commit) and is deleted by :meth:`StoreContext.sweep_orphans`, the sweep
   a job that fails on damaged input runs too — the old state those
   operations were replacing is still fully intact, which is what makes
   every merge/GC/split redoable.
2. **Hash-index checkpoints** — each partition's index is loaded from its
   latest checkpoint when that checkpoint still matches the current table
   set, and the tables flushed since are re-read to fill in the gap; if the
   table set changed (a merge ran after the checkpoint), the index is
   rebuilt from the current tables.
3. **WAL** — buffered writes are replayed into a fresh memtable by
   :func:`~repro.engine.wal.recover_wal`; a torn final record (mid-append
   crash) is discarded and the intact records are re-logged into a fresh
   WAL.
"""

from __future__ import annotations

import struct

from repro.engine.errors import CorruptionError
from repro.engine.sstable import TableMeta
from repro.engine.wal import recover_wal
from repro.core.context import StoreContext
from repro.core.hash_index import HashIndex
from repro.core.manifest import Manifest, meta_from_json
from repro.core.partition import Partition
from repro.env.storage import ReadFault, SimulatedDisk


class _PartitionState:
    """Mutable replay accumulator for one partition."""

    def __init__(self, lower: bytes) -> None:
        self.lower = lower
        self.unsorted: dict[int, TableMeta] = {}
        self.sorted: list[TableMeta] = []
        self.logs: set[int] = set()
        self.live_value_bytes = 0


def recover_store(store, disk: SimulatedDisk) -> None:
    """Populate ``store`` (an in-construction UniKV) from ``disk``."""
    manifest = Manifest(disk, create=False)
    parts: dict[int, _PartitionState] = {}
    checkpoints: dict[int, tuple[str, list[int]]] = {}
    wal_names: dict[int, str] = {}  # partition id -> current WAL file
    max_table = max_log = max_pid = max_wal = max_ckpt = -1

    def see_tables(metas: list[TableMeta]) -> None:
        nonlocal max_table
        for meta in metas:
            max_table = max(max_table, int(meta.name.rsplit("-", 1)[1]))

    for record in manifest.replay():
        rtype = record["type"]
        if rtype == "init":
            pid = record["partition"]
            parts[pid] = _PartitionState(bytes.fromhex(record["lower"]))
            max_pid = max(max_pid, pid)
        elif rtype == "flush":
            state = parts[record["partition"]]
            meta = meta_from_json(record["meta"])
            state.unsorted[record["table_id"]] = meta
            see_tables([meta])
        elif rtype == "scan_merge":
            state = parts[record["partition"]]
            meta = meta_from_json(record["meta"])
            state.unsorted = {record["table_id"]: meta}
            see_tables([meta])
            checkpoints.pop(record["partition"], None)
        elif rtype == "merge":
            state = parts[record["partition"]]
            added = [meta_from_json(m) for m in record["added_tables"]]
            state.unsorted = {}
            state.sorted = added
            state.logs -= set(record.get("released_logs", []))
            if record["new_log"] is not None:
                state.logs.add(record["new_log"])
                max_log = max(max_log, record["new_log"])
            state.live_value_bytes = record["live_value_bytes"]
            see_tables(added)
            checkpoints.pop(record["partition"], None)
        elif rtype == "gc":
            state = parts[record["partition"]]
            added = [meta_from_json(m) for m in record["added_tables"]]
            state.sorted = added
            state.logs -= set(record["released_logs"])
            if record["new_log"] is not None:
                state.logs.add(record["new_log"])
                max_log = max(max_log, record["new_log"])
            state.live_value_bytes = record["live_value_bytes"]
            see_tables(added)
        elif rtype == "split":
            del parts[record["old_partition"]]
            for info in record["parts"]:
                new = _PartitionState(bytes.fromhex(info["lower"]))
                new.sorted = [meta_from_json(m) for m in info["tables"]]
                new.logs = set(record["shared_logs"])
                if info["new_log"] is not None:
                    new.logs.add(info["new_log"])
                    max_log = max(max_log, info["new_log"])
                new.live_value_bytes = info["live_value_bytes"]
                parts[info["id"]] = new
                max_pid = max(max_pid, info["id"])
                see_tables(new.sorted)
            checkpoints.pop(record["old_partition"], None)
            # The old partition's WAL is retired: its memtable entries were
            # folded into the split output tables.
            wal_names.pop(record["old_partition"], None)
        elif rtype == "checkpoint":
            checkpoints[record["partition"]] = (record["file"], record["covered"])
            max_ckpt = max(max_ckpt, int(record["file"].rsplit("-", 1)[1]))
        elif rtype == "wal":
            wal_names[record["partition"]] = record["name"]
            max_wal = max(max_wal, int(record["name"].rsplit("-", 1)[1]))

    # A torn manifest tail (power failure mid-commit) must be cut before
    # anything appends new records: appends after garbage bytes would be
    # unreachable, since replay stops at the tear.
    manifest.repair()

    # -- rebuild runtime objects (no I/O) -------------------------------------------
    ctx = StoreContext(disk, store.config, manifest)
    ctx.next_table = max_table + 1
    ctx.next_log = max_log + 1
    ctx.next_partition = max_pid + 1
    store.ctx = ctx

    partitions: list[Partition] = []
    for pid, state in sorted(parts.items(), key=lambda kv: kv[1].lower):
        partition = Partition(ctx, pid, state.lower)
        partition.unsorted.tables = dict(state.unsorted)
        partition.sorted.replace_tables(state.sorted)
        partition.sorted.live_value_bytes = state.live_value_bytes
        for log_number in state.logs:
            partition.add_log(log_number)
        partitions.append(partition)
    store.partitions = partitions
    store._rebuild_boundaries()
    store._checkpoints = checkpoints
    store._next_ckpt = max_ckpt + 1
    store._next_wal = max_wal + 1

    # -- orphan cleanup, before anything creates a file --------------------------------
    ctx.sweep_orphans(store._live_files() | set(wal_names.values()))

    # -- hash indexes ---------------------------------------------------------------------
    for partition in partitions:
        _rebuild_hash_index(ctx, partition, checkpoints.get(partition.id))

    # -- per-partition WAL replay ---------------------------------------------------------
    for partition in partitions:
        name = wal_names.get(partition.id)
        if name is not None and disk.exists(name):
            records, partition.wal = recover_wal(
                disk, name, store._new_wal,
                lambda new_name, pid=partition.id: manifest.append(
                    {"type": "wal", "partition": pid, "name": new_name}))
            for key, kind, value in records:
                partition.mem._insert(key, kind, value)
        else:
            store._rotate_wal(partition)


def _rebuild_hash_index(ctx: StoreContext, partition: Partition,
                        checkpoint: tuple[str, list[int]] | None) -> None:
    """Load the checkpointed index and replay tables flushed after it."""
    tables = partition.unsorted.tables
    rebuilt_from_ckpt = False
    if checkpoint is not None:
        file, covered = checkpoint
        usable = (ctx.disk.exists(file)
                  and all(tid in tables for tid in covered))
        if usable:
            # A checkpoint that reads back damaged (torn clone, media
            # fault) is never fatal: the index is an acceleration
            # structure and can always be rebuilt from the tables.
            try:
                buf = ctx.disk.read_full(file, tag="checkpoint_load")
                partition.unsorted.index = HashIndex.decode(buf)
                rebuilt_from_ckpt = True
                to_replay = [tid for tid in sorted(tables) if tid not in covered]
            except (CorruptionError, ReadFault, struct.error):
                to_replay = sorted(tables)
        else:
            to_replay = sorted(tables)
    else:
        to_replay = sorted(tables)
    if not rebuilt_from_ckpt:
        partition.unsorted.index = HashIndex(
            ctx.config.hash_buckets, ctx.config.hash_functions)
    for table_id in to_replay:
        reader = ctx.table_reader(tables[table_id].name)
        for key, __, ___ in reader.entries(tag="index_rebuild"):
            partition.unsorted.index.insert(key, table_id)
    partition.unsorted.flushes_since_checkpoint = len(to_replay)
