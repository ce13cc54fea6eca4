"""Component-level tests: merge, GC, split, and partition invariants."""


from repro import UniKV
from repro.core.gc import run_gc
from repro.core.merge import merge_partition
from repro.core.split import split_partition
from repro.engine.keys import KIND_VPTR
from repro.engine.vlog import unpack_pointer
from tests.conftest import tiny_unikv_config


def loaded_store(n=400, value=b"v" * 30, rounds=1):
    db = UniKV(config=tiny_unikv_config(
        partition_size_limit=10 ** 9))  # keep a single partition
    for __ in range(rounds):
        for i in range(n):
            db.put(f"key-{i:05d}".encode(), value)
    db.flush()
    return db


# -- merge (partial KV separation) ----------------------------------------------------

def test_merge_empties_unsorted_and_sorts_fully():
    db = loaded_store()
    p = db.partitions[0]
    if p.unsorted.num_tables:
        merge_partition(db.ctx, p)
    assert p.unsorted.num_tables == 0
    assert p.unsorted.index.num_entries == 0
    tables = p.sorted.tables
    for a, b in zip(tables, tables[1:]):
        assert a.largest < b.smallest


def test_merge_separates_values_into_log():
    db = loaded_store()
    p = db.partitions[0]
    if p.unsorted.num_tables:
        merge_partition(db.ctx, p)
    assert p.log_numbers
    # Every SortedStore record is a pointer.
    for __, kind, payload in p.sorted.all_entries(tag="test"):
        assert kind == KIND_VPTR
        unpack_pointer(payload)


def test_merge_carries_old_pointers_without_rewriting_values():
    db = loaded_store(rounds=1)
    p = db.partitions[0]
    merge_partition(db.ctx, p)
    first_logs = set(p.log_numbers)
    # Write a disjoint key range; merge again: old values must not be
    # rewritten (their log files keep their byte size, no new copies).
    log_bytes_before = {n: db.disk.size(db.ctx.log_name(n)) for n in first_logs}
    for i in range(400, 600):
        db.put(f"key-{i:05d}".encode(), b"w" * 30)
    db.flush()
    merge_partition(db.ctx, p)
    for n in first_logs:
        assert n in p.log_numbers  # still referenced
        assert db.disk.size(db.ctx.log_name(n)) == log_bytes_before[n]


def test_merge_live_bytes_accounting_matches_pointers():
    db = loaded_store()
    p = db.partitions[0]
    merge_partition(db.ctx, p)
    total = 0
    for key, __, payload in p.sorted.all_entries(tag="test"):
        total += unpack_pointer(payload)[3]
    assert p.sorted.live_value_bytes == total


# -- GC ------------------------------------------------------------------------------

def test_gc_reclaims_dead_value_bytes():
    db = loaded_store(rounds=1)
    p = db.partitions[0]
    merge_partition(db.ctx, p)
    for i in range(400):  # overwrite everything -> old values all dead
        db.put(f"key-{i:05d}".encode(), b"NEW" * 10)
    db.flush()
    if p.unsorted.num_tables:
        merge_partition(db.ctx, p)
    before = p.referenced_log_bytes()
    run_gc(db.ctx, p)
    after = p.referenced_log_bytes()
    assert after < before
    assert after == p.sorted.live_value_bytes
    for i in range(400):
        assert db.get(f"key-{i:05d}".encode()) == b"NEW" * 10


def test_gc_consolidates_to_single_log():
    db = loaded_store(rounds=3)
    p = db.partitions[0]
    if p.unsorted.num_tables:
        merge_partition(db.ctx, p)
    run_gc(db.ctx, p)
    assert len(p.log_numbers) == 1


def test_gc_on_empty_partition_is_safe():
    db = UniKV(config=tiny_unikv_config())
    p = db.partitions[0]
    run_gc(db.ctx, p)
    assert p.sorted.num_tables == 0
    assert p.log_numbers == set()


def test_gc_does_not_query_memtable_or_unsorted():
    """UniKV GC validity comes from scanning the SortedStore only."""
    db = loaded_store()
    p = db.partitions[0]
    merge_partition(db.ctx, p)
    before = db.disk.stats.snapshot()
    run_gc(db.ctx, p)
    delta = db.disk.stats.delta_since(before)
    assert delta.ops_for(tag="gc_lookup") == 0  # unlike WiscKey
    assert delta.bytes_for(tag="gc") > 0


# -- split -------------------------------------------------------------------------------

def test_split_produces_disjoint_halves():
    db = loaded_store(n=800)
    p = db.partitions[0]
    parts = split_partition(db.ctx, p)
    assert parts is not None and len(parts) == 2
    p1, p2 = parts
    assert p1.lower == p.lower
    assert p2.lower > p1.lower
    for __, kind, payload in p1.sorted.all_entries(tag="test"):
        pass
    last_p1 = p1.sorted.tables[-1].largest
    first_p2 = p2.sorted.tables[0].smallest
    assert last_p1 < p2.lower <= first_p2


def test_split_halves_are_roughly_even():
    db = loaded_store(n=1000)
    p = db.partitions[0]
    p1, p2 = split_partition(db.ctx, p)
    n1 = p1.sorted.num_entries()
    n2 = p2.sorted.num_entries()
    assert abs(n1 - n2) <= 1
    assert n1 + n2 == 1000


def test_split_shares_old_logs_lazily():
    db = loaded_store(n=600)
    p = db.partitions[0]
    merge_partition(db.ctx, p)  # values now in logs
    old_logs = set(p.log_numbers)
    p1, p2 = split_partition(db.ctx, p)
    for n in old_logs:
        assert n in p1.log_numbers and n in p2.log_numbers
        assert db.disk.exists(db.ctx.log_name(n))  # not rewritten at split


def test_gc_after_split_releases_shared_logs():
    db = loaded_store(n=600)
    p = db.partitions[0]
    merge_partition(db.ctx, p)
    old_logs = set(p.log_numbers)
    p1, p2 = split_partition(db.ctx, p)
    run_gc(db.ctx, p1)
    # p1 released the shared logs; p2 still holds them so files remain.
    assert not (old_logs & p1.log_numbers)
    for n in old_logs:
        assert db.disk.exists(db.ctx.log_name(n))
    run_gc(db.ctx, p2)
    for n in old_logs:
        assert not db.disk.exists(db.ctx.log_name(n))


def test_split_refuses_single_key():
    db = UniKV(config=tiny_unikv_config(partition_size_limit=10 ** 9))
    db.put(b"only", b"v")
    db.flush()
    assert split_partition(db.ctx, db.partitions[0]) is None


def test_store_split_keeps_boundary_routing():
    db = UniKV(config=tiny_unikv_config())
    for i in range(3000):
        db.put(f"key-{i:06d}".encode(), b"v" * 25)
    db.flush()
    assert db.num_partitions() >= 2
    for pi, p in enumerate(db.partitions):
        hi = db.partitions[pi + 1].lower if pi + 1 < len(db.partitions) else None
        for __, meta in p.unsorted.tables.items():
            assert meta.smallest >= p.lower
            if hi is not None:
                assert meta.largest < hi
        for meta in p.sorted.tables:
            assert meta.smallest >= p.lower
            if hi is not None:
                assert meta.largest < hi
