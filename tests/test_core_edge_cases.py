"""Edge-case tests for UniKV: empty stores, tombstone-only merges, jumbo
values, boundary keys, and hash-index stale-entry behaviour."""

import pytest

from repro import UniKV
from repro.core.merge import merge_partition
from repro.engine.errors import CorruptionError


def test_empty_store_operations(tiny_config):
    db = UniKV(config=tiny_config)
    assert db.get(b"anything") is None
    assert db.scan(b"", 5) == []
    db.flush()  # flushing nothing is a no-op
    assert db.stats["flushes"] == 0


def test_empty_key_is_valid(tiny_config):
    db = UniKV(config=tiny_config)
    db.put(b"", b"empty-key-value")
    assert db.get(b"") == b"empty-key-value"
    assert db.scan(b"", 1) == [(b"", b"empty-key-value")]


def test_empty_value_roundtrip(tiny_config):
    db = UniKV(config=tiny_config)
    db.put(b"k", b"")
    db.flush()
    assert db.get(b"k") == b""


def test_tombstone_only_merge_empties_sorted_store(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(50):
        db.put(f"k{i:03d}".encode(), b"v" * 20)
    db.flush()
    for p in db.partitions:
        if p.unsorted.num_tables:
            merge_partition(db.ctx, p)
    for i in range(50):
        db.delete(f"k{i:03d}".encode())
    db.flush()
    for p in db.partitions:
        if p.unsorted.num_tables:
            merge_partition(db.ctx, p)
    assert db.scan(b"", 100) == []
    for p in db.partitions:
        assert p.sorted.num_entries() == 0


def test_value_larger_than_block_and_memtable(tiny_config):
    db = UniKV(config=tiny_config)
    jumbo = bytes(range(256)) * 20  # 5 KB > block (128) and memtable (512)
    db.put(b"jumbo", jumbo)
    db.put(b"tiny", b"t")
    db.flush()
    assert db.get(b"jumbo") == jumbo
    db2 = UniKV(disk=db.disk.clone(), config=tiny_config)
    assert db2.get(b"jumbo") == jumbo


def test_keys_with_binary_content(tiny_config):
    db = UniKV(config=tiny_config)
    keys = [bytes([b]) * 3 for b in (0, 1, 127, 128, 255)]
    for i, key in enumerate(keys):
        db.put(key, str(i).encode())
    db.flush()
    for i, key in enumerate(keys):
        assert db.get(key) == str(i).encode()
    assert [k for k, __ in db.scan(b"", 10)] == sorted(keys)


def test_lookup_at_partition_boundary(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(2500):
        db.put(f"key-{i:06d}".encode(), b"v" * 24)
    db.flush()
    assert db.num_partitions() >= 2
    boundary = db.partitions[1].lower
    db.put(boundary, b"exactly-at-boundary")
    assert db.get(boundary) == b"exactly-at-boundary"
    # One byte below the boundary routes to the earlier partition.
    below = boundary[:-1] + bytes([boundary[-1] - 1])
    db.put(below, b"below")
    assert db.get(below) == b"below"
    assert db._partition_index(below) == db._partition_index(boundary) - 1


def test_hash_index_stale_entries_are_harmless(tiny_config):
    db = UniKV(config=tiny_config)
    # Overwrite a key across several flushes: the index accumulates stale
    # entries for older tables, which lookups must skip.
    for round_no in range(6):
        db.put(b"churn", f"round-{round_no}".encode())
        for i in range(40):  # filler to force flushes
            db.put(f"fill-{round_no:02d}-{i:03d}".encode(), b"x" * 10)
    assert db.get(b"churn") == b"round-5"


def test_sequential_then_reverse_workload(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(800):
        db.put(f"a{i:05d}".encode(), b"v1")
    for i in reversed(range(800)):
        db.put(f"a{i:05d}".encode(), b"v2")
    db.flush()
    for i in range(0, 800, 37):
        assert db.get(f"a{i:05d}".encode()) == b"v2"


def test_scan_count_zero_and_past_end(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(50):
        db.put(f"k{i:02d}".encode(), b"v")
    assert db.scan(b"k00", 0) == []
    assert db.scan(b"zzz", 5) == []


def test_reopen_empty_store(tiny_config):
    db = UniKV(config=tiny_config)
    db2 = UniKV(disk=db.disk.clone(), config=tiny_config)
    assert db2.get(b"x") is None
    db2.put(b"x", b"y")
    assert db2.get(b"x") == b"y"


def test_config_validation():
    from repro.core import UniKVConfig
    with pytest.raises(ValueError):
        UniKVConfig(unsorted_limit_bytes=10, memtable_size=100).validate()
    with pytest.raises(ValueError):
        UniKVConfig(hash_functions=0).validate()
    with pytest.raises(ValueError):
        UniKVConfig(hash_buckets=1, hash_functions=4).validate()
    with pytest.raises(ValueError):
        UniKVConfig(partition_size_limit=0).validate()


def test_corrupted_value_log_detected_on_read(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(300):
        db.put(f"k{i:04d}".encode(), b"v" * 40)
    db.flush()
    from repro.core.merge import merge_partition as mp
    for p in db.partitions:
        if p.unsorted.num_tables:
            mp(db.ctx, p)
    # Corrupt the first value-log byte of some log file.
    log_names = db.disk.list("vlog-")
    assert log_names
    buf = bytearray(db.disk.read_full(log_names[0], tag="test"))
    buf[10] ^= 0xFF
    db.disk.create(log_names[0]).append(bytes(buf), tag="test")
    db.ctx._log_readers.clear()
    # Some lookup hits the corrupted record and must raise, not return junk.
    with pytest.raises(CorruptionError):
        for i in range(300):
            db.get(f"k{i:04d}".encode())
