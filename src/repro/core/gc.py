"""Value-log garbage collection for one partition's SortedStore.

Follows the paper's four-step redo protocol:

1. identify the valid values — a sequential scan of the partition's
   SortedStore keys+pointers is sufficient, because the SortedStore holds
   exactly the live key set (no LSM queries, unlike WiscKey's GC);
2. read the valid values and write them back to a newly created log file;
3. write new pointers (with their keys) into fresh SortedStore SSTables;
4. commit — one manifest record acts as the ``GC_done`` mark, after which
   the old tables are deleted and the old logs' references dropped.

A crash before step 4 leaves the old state fully intact (the new files are
orphans removed at recovery); a crash after step 4 is already durable.

Because GC rewrites every *live* value into logs owned by this partition,
it doubles as the paper's **lazy value split**: the first GC after a range
split migrates the values out of the logs shared with the sibling partition
and releases them.
"""

from __future__ import annotations

from repro.engine.keys import KIND_VALUE, KIND_VPTR
from repro.engine.sstable import SSTableBuilder, TableMeta
from repro.engine.vlog import ValuePointer, VLogWriter
from repro.core.context import StoreContext
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition


def run_gc(ctx: StoreContext, partition: Partition) -> None:
    """Collect all garbage in ``partition``'s value logs."""
    ctx.crash_point("gc:start")

    # Step 1: the SortedStore's keys+pointers are exactly the live set.
    # Inline records (selective KV separation) have no log bytes to
    # reclaim but must be carried into the rewritten tables in key order.
    live: list[tuple[bytes, int, object]] = []  # key, kind, ptr|inline bytes
    wanted: dict[int, set[int]] = {}  # log number -> live offsets
    for key, kind, payload in partition.sorted.all_entries(tag="gc"):
        if kind == KIND_VALUE:
            live.append((key, KIND_VALUE, payload))
            continue
        ptr = ValuePointer.decode(payload)
        live.append((key, KIND_VPTR, ptr))
        wanted.setdefault(ptr.log_number, set()).add(ptr.offset)

    # Step 2a: read the valid values out of every referenced log
    # (one sequential pass per log file).
    values: dict[tuple[int, int], bytes] = {}
    for log_number in sorted(partition.log_numbers):
        offsets = wanted.get(log_number)
        if not offsets:
            continue
        for key, value, offset, __ in ctx.log_reader(log_number).scan(tag="gc"):
            if offset in offsets:
                values[(log_number, offset)] = value

    # Step 2b/3: write values to a new log and new pointers+keys to new tables.
    new_log: int | None = None
    log_writer: VLogWriter | None = None
    new_tables: list[TableMeta] = []
    builder: SSTableBuilder | None = None
    live_value_bytes = 0
    for key, kind, item in live:
        if kind == KIND_VALUE:
            record_kind, payload = KIND_VALUE, item
        else:
            old_ptr = item
            value = values[(old_ptr.log_number, old_ptr.offset)]
            if log_writer is None:
                new_log = ctx.alloc_log_number()
                log_writer = VLogWriter(ctx.disk, ctx.log_name(new_log),
                                        partition=partition.id,
                                        log_number=new_log, tag="gc")
            new_ptr = log_writer.append(key, value)
            live_value_bytes += new_ptr.length
            record_kind, payload = KIND_VPTR, new_ptr.encode()
        if builder is None:
            builder = SSTableBuilder(
                ctx.disk, ctx.alloc_table_name(), tag="gc",
                block_size=ctx.config.block_size,
                prefix_compression=ctx.config.block_prefix_compression)
        builder.add(key, record_kind, payload)
        if builder.estimated_size >= ctx.config.sstable_size:
            new_tables.append(builder.finish())
            builder = None
    if builder is not None and builder.num_entries:
        new_tables.append(builder.finish())
    if log_writer is not None:
        log_writer.close()

    ctx.crash_point("gc:before_commit")

    # Step 4: the GC_done commit.
    old_tables = [m.name for m in partition.sorted.tables]
    released = sorted(partition.log_numbers)
    ctx.manifest.append({
        "type": "gc",
        "partition": partition.id,
        "removed_tables": old_tables,
        "added_tables": [meta_to_json(m) for m in new_tables],
        "new_log": new_log,
        "released_logs": released,
        "live_value_bytes": live_value_bytes,
    })
    ctx.crash_point("gc:after_commit")

    partition.sorted.replace_tables(new_tables)
    partition.sorted.live_value_bytes = live_value_bytes
    for log_number in released:
        partition.release_log(log_number)
    if new_log is not None:
        partition.add_log(new_log)
    for name in old_tables:
        ctx.drop_table(name)
