"""Dynamic range partitioning: splitting an oversized partition in two.

The paper's split = one compaction plus one (partial) GC, executed with the
partition locked:

1. all of the partition's keys (UnsortedStore + SortedStore) are
   merge-sorted; the median key ``K`` becomes the split boundary;
2. keys < K form partition P1, keys >= K form P2 — **eager key split**;
3. the *inline* values still sitting in the UnsortedStore are appended to
   each new partition's freshly created log file — they must leave the
   UnsortedStore because the new partitions start with empty UnsortedStores;
4. values already in the old SortedStore's logs keep their old pointers —
   the **lazy value split**: both new partitions reference the old (now
   shared) log files, and each partition's next GC migrates its live values
   out and releases the shared logs.

One manifest record commits the whole transition atomically.  This module
only allocates the new partition ids and writes their runs; the store's
applier (:meth:`~repro.core.store.UniKV.apply`, which recovery's replay
runs too) builds the new partitions, moves the log references, deletes the
old partition's tables and checkpoint and replaces it in the store's
partition list.
"""

from __future__ import annotations

from repro.engine.iterators import merge_sorted
from repro.core.context import StoreContext
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition
from repro.core.sorted_store import write_run


def split_partition(ctx: StoreContext, partition: Partition) -> list[Partition] | None:
    """Split ``partition`` at its median key; returns [P1, P2] or None.

    Returns None when the partition holds fewer than two distinct keys
    (nothing to split).  The new partitions are built by the store's
    applier from the committed record, which also puts them in the store's
    partition list.
    """
    ctx.crash_point("split:start")

    # Step 1: flush-equivalent + merge-sort of every key in the partition.
    # The memtable participates directly (the paper first flushes all
    # in-memory KV pairs): its entries land in the split output, so they
    # stay durable even though the old partition's WAL is retired.
    sources = [partition.mem.entries()]
    sources.extend(partition.unsorted.all_entry_sources(tag="split"))
    sources.append(partition.sorted.all_entries(tag="split"))
    records = [r for r in merge_sorted(sources, drop_tombstones=True)]
    if len(records) < 2:
        return None
    boundary = records[len(records) // 2][0]
    halves = (
        (partition.lower, [r for r in records if r[0] < boundary]),
        (boundary, [r for r in records if r[0] >= boundary]),
    )

    parts: list[dict] = []
    for lower, part_records in halves:
        new_id = ctx.alloc_partition_id()
        # Eager split of the UnsortedStore's inline values into a fresh
        # log; lazy split of the old pointers, whose values stay put.
        tables, log_number, live_value_bytes = write_run(
            ctx, new_id, part_records, "split")
        parts.append({
            "id": new_id,
            "lower": lower.hex(),
            "tables": [meta_to_json(m) for m in tables],
            "new_log": log_number,
            "live_value_bytes": live_value_bytes,
        })

    ctx.crash_point("split:before_commit")
    return ctx.commit({
        "type": "split",
        "old_partition": partition.id,
        "shared_logs": sorted(partition.log_numbers),
        "parts": parts,
    }, after="split:after_commit")
