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
manifest record after all data files are durable; the store's applier
(:meth:`~repro.core.store.UniKV.apply`, which recovery's replay runs too)
then installs the new run, moves the log references, deletes the replaced
tables and drops the partition's index checkpoint, which covered tables
the merge removed.  Only emptying the hash index stays here.
"""

from __future__ import annotations

from repro.engine.iterators import merge_sorted
from repro.core.context import StoreContext
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition
from repro.core.sorted_store import read_log_records, write_run


def merge_partition(ctx: StoreContext, partition: Partition) -> None:
    """Drain the UnsortedStore into the SortedStore (one merge operation)."""
    ctx.crash_point("merge:start")
    sources = partition.unsorted.all_entry_sources(tag="merge")
    sources.append(partition.sorted.all_entries(tag="merge"))

    partial = ctx.config.partial_kv_separation
    old_values = None
    if not partial:
        # Ablation (full re-separation): stream every referenced log once,
        # as a value-rewriting merge would, so every old value is copied
        # into the new log (what partial KV separation is designed to
        # avoid).
        old_values = read_log_records(ctx, sorted(partition.log_numbers), tag="merge")
    new_tables, log_number, live_value_bytes = write_run(
        ctx, partition.id, merge_sorted(sources, drop_tombstones=True), "merge",
        old_values)

    ctx.crash_point("merge:after_data")

    # Under full re-separation every old log is dead for this partition.
    released_logs = sorted(partition.log_numbers) if not partial else []
    ctx.commit({
        "type": "merge",
        "partition": partition.id,
        "removed_unsorted": [m.name for m in partition.unsorted.tables.values()],
        "removed_sorted": [m.name for m in partition.sorted.tables],
        "added_tables": [meta_to_json(m) for m in new_tables],
        "new_log": log_number,
        "released_logs": released_logs,
        "live_value_bytes": live_value_bytes,
    }, after="merge:after_commit")
    partition.unsorted.index.clear()
