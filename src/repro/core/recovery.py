"""Crash recovery: rebuilding a UniKV store from its durable state.

Recovery replays three sources, exactly the paper's scheme:

1. **Manifest** — every replayed record goes through the store's applier,
   :meth:`~repro.core.store.UniKV.apply`, the same code a job runs right
   after its commit, so partitions, table lists, value-log references,
   index checkpoints and the file allocators come out as the live store
   had them.  A manifest whose replay names no partition (a damaged first
   record) is refused with :class:`CorruptionError` before anything on
   disk changes.  Any data file the replayed state does not reference is
   an orphan from an uncommitted operation (a crash between data write and
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
from repro.engine.wal import recover_wal
from repro.core.context import StoreContext
from repro.core.hash_index import HashIndex
from repro.core.manifest import file_number
from repro.core.partition import Partition
from repro.env.storage import ReadFault


def recover_store(store) -> None:
    """Populate ``store`` (an in-construction UniKV whose context is open)
    from its disk."""
    ctx = store.ctx
    manifest = ctx.manifest
    wal_names: dict[int, str] = {}  # partition id -> its latest WAL file
    for record in manifest.replay():
        if record["type"] == "wal":
            wal_names[record["partition"]] = record["name"]
            store._next_wal = max(store._next_wal, file_number(record["name"]) + 1)
        else:
            store.apply(record)
    if not store.partitions:
        # Nothing replayed: repairing the manifest and sweeping would
        # delete every file of the store.
        raise CorruptionError(f"{manifest.name} names no partition")

    # A torn manifest tail (power failure mid-commit) must be cut before
    # anything appends new records: appends after garbage bytes would be
    # unreachable, since replay stops at the tear.
    manifest.repair()

    # -- orphan cleanup, before anything creates a file --------------------------------
    # A split partition's WAL is retired: its memtable entries were folded
    # into the split output tables.
    wal_names = {p.id: wal_names[p.id] for p in store.partitions if p.id in wal_names}
    ctx.sweep_orphans(store._live_files() | set(wal_names.values()))

    # -- hash indexes ---------------------------------------------------------------------
    for partition in store.partitions:
        _rebuild_hash_index(ctx, partition, store._checkpoints.get(partition.id))

    # -- per-partition WAL replay ---------------------------------------------------------
    for partition in store.partitions:
        name = wal_names.get(partition.id)
        if name is not None and ctx.disk.exists(name):
            records, partition.wal = recover_wal(
                ctx.disk, name, store._new_wal,
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
