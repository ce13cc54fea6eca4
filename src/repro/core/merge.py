"""UnsortedStore → SortedStore merge with partial KV separation.

When a partition's UnsortedStore reaches UnsortedLimit, its tables are
merge-sorted with the existing SortedStore run:

* values arriving from the UnsortedStore (stored inline there) are appended
  to a **freshly created value log** and replaced by pointers;
* values already separated (pointers from the old SortedStore) are carried
  through **without rewriting the value** — this is the "partial" in partial
  KV separation, and the reason merges stay cheap: only keys and pointers
  are re-sorted, never the bulk of the cold values;
* tombstones annihilate here (nothing is older than the SortedStore).

Superseded pointers leave dead bytes behind in the old logs; GC reclaims
them (see :mod:`repro.core.gc`).  The merge commits atomically via one
manifest record after all data files are durable.
"""

from __future__ import annotations

from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_VALUE, KIND_VPTR
from repro.engine.sstable import SSTableBuilder, TableMeta
from repro.engine.vlog import ValuePointer, VLogWriter
from repro.core.context import StoreContext
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition


def merge_partition(ctx: StoreContext, partition: Partition) -> None:
    """Drain the UnsortedStore into the SortedStore (one merge operation)."""
    ctx.crash_point("merge:start")
    sources = partition.unsorted.all_entry_sources(tag="merge")
    sources.append(partition.sorted.all_entries(tag="merge"))

    log_number: int | None = None
    log_writer: VLogWriter | None = None
    new_tables: list[TableMeta] = []
    builder: SSTableBuilder | None = None
    live_value_bytes = 0

    def roll_builder() -> SSTableBuilder:
        return SSTableBuilder(
            ctx.disk, ctx.alloc_table_name(), tag="merge",
            block_size=ctx.config.block_size,
            prefix_compression=ctx.config.block_prefix_compression)

    def ensure_log() -> VLogWriter:
        nonlocal log_number, log_writer
        if log_writer is None:
            log_number = ctx.alloc_log_number()
            log_writer = VLogWriter(ctx.disk, ctx.log_name(log_number),
                                    partition=partition.id,
                                    log_number=log_number, tag="merge")
        return log_writer

    partial = ctx.config.partial_kv_separation
    inline_below = ctx.config.inline_value_threshold
    old_values: dict[tuple[int, int], bytes] = {}
    if not partial:
        # Ablation (full re-separation): stream every referenced log once,
        # as a value-rewriting merge would, so old values can be copied
        # into the new log below.
        for old_log in sorted(partition.log_numbers):
            for key, value, offset, __ in ctx.log_reader(old_log).scan(tag="merge"):
                old_values[(old_log, offset)] = value

    for key, kind, payload in merge_sorted(sources, drop_tombstones=True):
        if kind == KIND_VALUE:
            if len(payload) < inline_below:
                # Selective KV separation (extension): small values are
                # cheaper to keep inline than to chase through a log.
                pass
            else:
                # Hot value migrating to the cold layer: separate it now.
                ptr = ensure_log().append(key, payload)
                live_value_bytes += ptr.length
                payload = ptr.encode()
                kind = KIND_VPTR
        elif kind == KIND_VPTR:
            if partial:
                # Already separated: carry the pointer, leave the value put.
                live_value_bytes += ValuePointer.decode(payload).length
            else:
                # Ablation: full re-separation — rewrite the old value into
                # the new log (what partial KV separation is designed to
                # avoid).
                old_ptr = ValuePointer.decode(payload)
                value = old_values[(old_ptr.log_number, old_ptr.offset)]
                ptr = ensure_log().append(key, value)
                live_value_bytes += ptr.length
                payload = ptr.encode()
        else:  # pragma: no cover - merge_sorted filtered tombstones
            continue
        if builder is None:
            builder = roll_builder()
        builder.add(key, kind, payload)
        if builder.estimated_size >= ctx.config.sstable_size:
            new_tables.append(builder.finish())
            builder = None
    if builder is not None and builder.num_entries:
        new_tables.append(builder.finish())
    if log_writer is not None:
        log_writer.close()

    ctx.crash_point("merge:after_data")

    old_unsorted = [m.name for m in partition.unsorted.tables.values()]
    old_sorted = [m.name for m in partition.sorted.tables]
    # Under full re-separation every old log is dead for this partition.
    released_logs = sorted(partition.log_numbers) if not partial else []
    ctx.manifest.append({
        "type": "merge",
        "partition": partition.id,
        "removed_unsorted": old_unsorted,
        "removed_sorted": old_sorted,
        "added_tables": [meta_to_json(m) for m in new_tables],
        "new_log": log_number,
        "released_logs": released_logs,
        "live_value_bytes": live_value_bytes,
    })
    ctx.crash_point("merge:after_commit")

    # Apply in memory and reclaim the replaced files.
    partition.unsorted.drain()
    partition.sorted.replace_tables(new_tables)
    partition.sorted.live_value_bytes = live_value_bytes
    if log_number is not None:
        partition.add_log(log_number)
    for log in released_logs:
        if log != log_number:
            partition.release_log(log)
    for name in old_unsorted + old_sorted:
        ctx.drop_table(name)
