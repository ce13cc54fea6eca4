"""Value-log garbage collection for one partition's SortedStore.

Follows the paper's four-step redo protocol:

1. identify the valid values — a sequential scan of the partition's
   SortedStore keys+pointers is sufficient, because the SortedStore holds
   exactly the live key set (no LSM queries, unlike WiscKey's GC);
2. read the valid values and write them back to a newly created log file;
3. write new pointers (with their keys) into fresh SortedStore SSTables;
4. commit — one manifest record acts as the ``GC_done`` mark, after which
   the store's applier (:meth:`~repro.core.store.UniKV.apply`, which
   recovery's replay runs too) deletes the old tables and drops the old
   logs' references.

A crash before step 4 leaves the old state fully intact (the new files are
orphans removed at recovery); a crash after step 4 is already durable.

Because GC rewrites every *live* value into logs owned by this partition,
it doubles as the paper's **lazy value split**: the first GC after a range
split migrates the values out of the logs shared with the sibling partition
and releases them.
"""

from __future__ import annotations

from repro.engine.keys import KIND_VPTR
from repro.engine.vlog import unpack_pointer
from repro.core.context import StoreContext
from repro.core.manifest import meta_to_json
from repro.core.partition import Partition
from repro.core.sorted_store import read_log_records, write_run


def run_gc(ctx: StoreContext, partition: Partition) -> None:
    """Collect all garbage in ``partition``'s value logs."""
    ctx.crash_point("gc:start")

    # Step 1: the SortedStore's keys+pointers are exactly the live set.
    # Inline records (selective KV separation) have no log bytes to
    # reclaim but are carried into the rewritten tables in key order.
    live = list(partition.sorted.all_entries(tag="gc"))
    wanted = {unpack_pointer(payload)[1] for __, kind, payload in live
              if kind == KIND_VPTR}

    # Step 2a: read the referenced logs (one sequential pass per log file).
    values = read_log_records(ctx, sorted(partition.log_numbers & wanted), tag="gc")

    # Step 2b/3: write the live values to a new log and the new pointers
    # (with their keys) to new tables.
    new_tables, new_log, live_value_bytes = write_run(
        ctx, partition.id, live, "gc", old_values=values)

    ctx.crash_point("gc:before_commit")

    # Step 4: the GC_done commit; the applier swaps the tables in, moves
    # the log references and deletes the old tables.
    ctx.commit({
        "type": "gc",
        "partition": partition.id,
        "removed_tables": [m.name for m in partition.sorted.tables],
        "added_tables": [meta_to_json(m) for m in new_tables],
        "new_log": new_log,
        "released_logs": sorted(partition.log_numbers),
        "live_value_bytes": live_value_bytes,
    }, after="gc:after_commit")
