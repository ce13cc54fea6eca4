"""Unit tests for UniKV internals: SortedStore routing, UnsortedStore
bookkeeping, the shared-log registry, and partition trigger logic."""

import pytest

from repro.core.context import StoreContext
from repro.core.gc import run_gc
from repro.core.manifest import Manifest
from repro.core.merge import merge_partition
from repro.core.partition import Partition
from repro.core.sorted_store import SortedStore
from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_VPTR
from repro.engine.sstable import SSTableBuilder
from repro.engine.vlog import POINTER, VLogWriter, vlog_record_size
from repro.env import SimulatedDisk
from tests.conftest import tiny_unikv_config


def make_ctx(config=None):
    disk = SimulatedDisk()
    cfg = config if config is not None else tiny_unikv_config()
    return StoreContext(disk, cfg, Manifest(disk))


def build_table(ctx, items):
    builder = SSTableBuilder(ctx.disk, ctx.alloc_table_name(), tag="test",
                             block_size=ctx.config.block_size)
    for record in items:
        builder.add(*record)
    return builder.finish()


# -- SortedStore routing -------------------------------------------------------------

def test_sorted_store_table_for_key_edges():
    ctx = make_ctx()
    store = SortedStore(ctx, partition_id=0)
    t1 = build_table(ctx, [(b"b", KIND_VPTR, b"\x00" * 20), (b"d", KIND_VPTR, b"\x00" * 20)])
    t2 = build_table(ctx, [(b"h", KIND_VPTR, b"\x00" * 20), (b"k", KIND_VPTR, b"\x00" * 20)])
    store.replace_tables([t2, t1])  # replace_tables sorts
    assert store._table_for_key(b"a") is None          # below smallest
    assert store._table_for_key(b"b").name == t1.name  # exact smallest
    assert store._table_for_key(b"c").name == t1.name  # inside
    assert store._table_for_key(b"e") is None          # gap
    assert store._table_for_key(b"h").name == t2.name
    assert store._table_for_key(b"z") is None          # above largest
    assert SortedStore(ctx, 1)._table_for_key(b"x") is None  # empty store


def test_sorted_store_rejects_overlapping_run():
    ctx = make_ctx()
    store = SortedStore(ctx, partition_id=0)
    t1 = build_table(ctx, [(b"a", KIND_VPTR, b"\x00" * 20), (b"m", KIND_VPTR, b"\x00" * 20)])
    t2 = build_table(ctx, [(b"f", KIND_VPTR, b"\x00" * 20), (b"z", KIND_VPTR, b"\x00" * 20)])
    with pytest.raises(CorruptionError):
        store.replace_tables([t1, t2])


def test_sorted_store_pointer_key_mismatch_detected():
    ctx = make_ctx()
    store = SortedStore(ctx, partition_id=0)
    log = ctx.alloc_log_number()
    writer = VLogWriter(ctx.disk, ctx.log_name(log), partition=0,
                        log_number=log, tag="test")
    ptr = writer.append(b"other-key", b"value")
    table = build_table(ctx, [(b"wanted", KIND_VPTR, ptr)])
    store.replace_tables([table])
    with pytest.raises(CorruptionError):
        store.get(b"wanted")
    # The scan path resolves pointers through the same check.
    record = next(store.entries_from(b""))
    with pytest.raises(CorruptionError):
        store.resolve_pointer(record[0], record[2], tag="scan_value")


def test_sorted_store_bad_pointer_size_detected():
    ctx = make_ctx()
    store = SortedStore(ctx, partition_id=0)
    log = ctx.alloc_log_number()
    writer = VLogWriter(ctx.disk, ctx.log_name(log), partition=0,
                        log_number=log, tag="test")
    ptr = writer.append(b"k", b"value")
    store.replace_tables([build_table(ctx, [(b"k", KIND_VPTR, ptr[:-1])])])
    with pytest.raises(CorruptionError):
        store.get(b"k")
    for bad in (ptr[:-1], ptr + b"\x00", b""):
        with pytest.raises(CorruptionError):
            store.resolve_pointer(b"k", bad, tag="scan_value")
    assert store.resolve_pointer(b"k", ptr, tag="scan_value") == b"value"


# Each case turns the correct pointer of b"wanted" -- (log, offset, length)
# of its record, which follows b"other"'s record in the log -- into one the
# read path rejects.
BAD_POINTERS = {
    "names_another_keys_record": lambda log, offset, length: (log, 0, offset),
    "length_differs_from_record": lambda log, offset, length: (log, offset, length - 2),
    "offset_inside_a_record": lambda log, offset, length: (log, offset + 3, length),
}


@pytest.mark.parametrize("job", [run_gc, merge_partition])
@pytest.mark.parametrize("case", sorted(BAD_POINTERS))
def test_rewriting_jobs_reject_pointers_the_read_path_rejects(case, job):
    # GC and the merge's full re-separation copy pointed-to values into a
    # new log; a pointer that does not name its key's record must fail
    # there too, instead of committing another key's value (or a torn one)
    # under b"wanted".
    ctx = make_ctx(tiny_unikv_config(partial_kv_separation=False))
    part = Partition(ctx, ctx.alloc_partition_id(), b"")
    log = ctx.alloc_log_number()
    writer = VLogWriter(ctx.disk, ctx.log_name(log), partition=part.id,
                        log_number=log, tag="test")
    writer.append(b"other", b"other-value")
    offset = writer.size()
    writer.append(b"wanted", b"wanted-value")
    writer.close()
    length = vlog_record_size(b"wanted", b"wanted-value")
    ptr = POINTER.pack(part.id, *BAD_POINTERS[case](log, offset, length))
    part.sorted.replace_tables([build_table(ctx, [(b"wanted", KIND_VPTR, ptr)])])
    part.add_log(log)
    with pytest.raises(CorruptionError):
        part.get(b"wanted")
    committed = ctx.disk.size(ctx.manifest.name)
    tables = list(part.sorted.tables)
    with pytest.raises(CorruptionError):
        job(ctx, part)
    assert ctx.disk.size(ctx.manifest.name) == committed
    assert part.sorted.tables == tables and part.log_numbers == {log}


# -- shared-log reference registry ------------------------------------------------------

def test_log_refcounting_deletes_on_last_release():
    ctx = make_ctx()
    log = ctx.alloc_log_number()
    VLogWriter(ctx.disk, ctx.log_name(log), partition=0, log_number=log,
               tag="t").append(b"k", b"v")
    p1 = Partition(ctx, 1, b"")
    p2 = Partition(ctx, 2, b"m")
    p1.add_log(log)
    p2.add_log(log)
    p1.release_log(log)
    assert ctx.disk.exists(ctx.log_name(log))
    p2.release_log(log)
    assert not ctx.disk.exists(ctx.log_name(log))


def test_release_unknown_log_is_noop():
    ctx = make_ctx()
    p = Partition(ctx, 1, b"")
    p.release_log(999)  # must not raise
    ctx.drop_log_ref(999, 1)


# -- partition triggers ----------------------------------------------------------------------

def test_needs_gc_requires_both_size_and_garbage():
    cfg = tiny_unikv_config(vlog_gc_limit=1000, gc_min_garbage_ratio=0.5)
    ctx = make_ctx(cfg)
    p = Partition(ctx, 0, b"")
    log = ctx.alloc_log_number()
    w = VLogWriter(ctx.disk, ctx.log_name(log), partition=0, log_number=log, tag="t")
    w.append(b"k", b"v" * 2000)
    p.add_log(log)
    p.sorted.live_value_bytes = ctx.disk.size(ctx.log_name(log))
    assert not p.needs_gc()          # big but zero garbage
    p.sorted.live_value_bytes = 100  # now ~95% garbage
    assert p.needs_gc()
    small_cfg_ctx = make_ctx(tiny_unikv_config(vlog_gc_limit=1 << 30))
    q = Partition(small_cfg_ctx, 0, b"")
    assert not q.needs_gc()          # below the size floor


def test_needs_split_counts_all_components():
    cfg = tiny_unikv_config(partition_size_limit=100)
    ctx = make_ctx(cfg)
    p = Partition(ctx, 0, b"")
    assert not p.needs_split()
    p.mem.put(b"k", b"v" * 200)
    assert p.needs_split()


def test_partition_describe_fields():
    ctx = make_ctx()
    p = Partition(ctx, 3, b"m")
    info = p.describe()
    assert info["id"] == 3
    assert info["lower"] == b"m".hex()
    assert set(info) >= {"unsorted_tables", "sorted_tables", "logs",
                         "data_bytes", "index_entries"}


# -- context allocators -------------------------------------------------------------------------

def test_context_allocators_monotonic():
    ctx = make_ctx()
    names = [ctx.alloc_table_name() for __ in range(3)]
    assert names == ["sst-000000", "sst-000001", "sst-000002"]
    assert [ctx.alloc_log_number() for __ in range(2)] == [0, 1]
    assert [ctx.alloc_partition_id() for __ in range(2)] == [0, 1]
    assert StoreContext.log_name(7) == "vlog-000007"


def test_crash_point_without_hook_is_noop():
    ctx = make_ctx()
    ctx.crash_point("anything")  # must not raise
