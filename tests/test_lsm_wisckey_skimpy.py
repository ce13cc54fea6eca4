"""Tests for the WiscKey and SkimpyStash baselines."""

import random

import pytest

from repro.lsm import SkimpyStashStore, WiscKeyStore
from repro.lsm.wisckey import WiscKeyConfig


def wk_config(**overrides):
    defaults = dict(
        memtable_size=512,
        sstable_size=512,
        block_size=128,
        base_level_bytes=2048,
        level_size_multiplier=4,
        vlog_segment_size=2048,
        vlog_size_limit=16 * 1024,
    )
    defaults.update(overrides)
    return WiscKeyConfig(**defaults)


# -- WiscKey -----------------------------------------------------------------------

def test_wisckey_roundtrip():
    db = WiscKeyStore(config=wk_config())
    db.put(b"k", b"a-rather-long-value")
    assert db.get(b"k") == b"a-rather-long-value"
    assert db.get(b"missing") is None


def test_wisckey_delete():
    db = WiscKeyStore(config=wk_config())
    db.put(b"k", b"v")
    db.delete(b"k")
    assert db.get(b"k") is None


def test_wisckey_overwrite_and_scan():
    db = WiscKeyStore(config=wk_config())
    for i in range(100):
        db.put(f"k{i:03d}".encode(), f"old{i}".encode())
    for i in range(100):
        db.put(f"k{i:03d}".encode(), f"new{i}".encode())
    got = db.scan(b"k010", 3)
    assert got == [(b"k010", b"new10"), (b"k011", b"new11"), (b"k012", b"new12")]


def test_wisckey_lsm_stores_only_pointers():
    db = WiscKeyStore(config=wk_config())
    value = b"x" * 500
    for i in range(200):
        db.put(f"k{i:04d}".encode(), value)
    index_bytes = db.disk.total_bytes("idx-sst-")
    vlog_bytes = db.vlog_bytes()
    assert vlog_bytes > index_bytes  # big values live in the log


def test_wisckey_gc_reclaims_dead_values():
    db = WiscKeyStore(config=wk_config())
    value = b"v" * 100
    for round_no in range(20):
        for i in range(30):
            db.put(f"k{i:03d}".encode(), value + str(round_no).encode())
    assert db.scheduler.describe()["job_counts"]["gc"] > 0
    assert db.vlog_bytes() <= db.config.vlog_size_limit * 1.5
    for i in range(30):
        assert db.get(f"k{i:03d}".encode()) == value + b"19"


def test_wisckey_gc_queries_index_per_record():
    db = WiscKeyStore(config=wk_config())
    for round_no in range(20):
        for i in range(30):
            db.put(f"k{i:03d}".encode(), b"v" * 100)
    # The strict-order GC's validity checks show up as gc_lookup reads.
    assert db.scheduler.describe()["job_counts"]["gc"] > 0
    assert db.disk.stats.ops_for(op="read", tag="gc_lookup") > 0


def test_wisckey_no_lsm_wal():
    db = WiscKeyStore(config=wk_config())
    for i in range(100):
        db.put(f"k{i}".encode(), b"value")
    assert db.disk.stats.bytes_for(tag="wal") == 0
    assert db.disk.stats.bytes_for(tag="vlog_write") > 0


def test_wisckey_random_workload_against_model():
    rng = random.Random(11)
    db = WiscKeyStore(config=wk_config())
    model: dict[bytes, bytes] = {}
    for __ in range(2000):
        key = f"k{rng.randrange(150):04d}".encode()
        if rng.random() < 0.1 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = rng.randbytes(rng.randrange(20, 120))
            db.put(key, value)
            model[key] = value
    for key, value in model.items():
        assert db.get(key) == value
    start = b"k0050"
    assert db.scan(start, 15) == sorted(
        (k, v) for k, v in model.items() if k >= start)[:15]


# -- SkimpyStash --------------------------------------------------------------------

def test_skimpy_roundtrip_and_overwrite():
    db = SkimpyStashStore(num_buckets=16)
    db.put(b"a", b"1")
    db.put(b"a", b"2")
    db.put(b"b", b"3")
    assert db.get(b"a") == b"2"
    assert db.get(b"b") == b"3"
    assert db.get(b"c") is None


def test_skimpy_delete_via_tombstone():
    db = SkimpyStashStore(num_buckets=4)
    db.put(b"k", b"v")
    db.delete(b"k")
    assert db.get(b"k") is None
    db.put(b"k", b"v2")
    assert db.get(b"k") == b"v2"


def test_skimpy_scan_unsupported():
    db = SkimpyStashStore()
    with pytest.raises(NotImplementedError):
        db.scan(b"", 10)


def test_skimpy_chain_walk_cost_grows_with_dataset():
    def reads_per_lookup(n):
        db = SkimpyStashStore(num_buckets=64)
        for i in range(n):
            db.put(f"key-{i:06d}".encode(), b"v" * 16)
        before = db.disk.stats.snapshot()
        rng = random.Random(3)
        for __ in range(200):
            db.get(f"key-{rng.randrange(n):06d}".encode())
        return db.disk.stats.delta_since(before).ops_for(op="read") / 200

    small = reads_per_lookup(200)
    large = reads_per_lookup(5000)
    assert large > small * 3  # chains grow linearly with the dataset


def test_skimpy_memory_is_per_bucket_not_per_key():
    db = SkimpyStashStore(num_buckets=128)
    for i in range(1000):
        db.put(f"k{i}".encode(), b"v")
    assert db.index_memory_bytes() == 8 * 128


def test_skimpy_model_conformance():
    rng = random.Random(5)
    db = SkimpyStashStore(num_buckets=32)
    model: dict[bytes, bytes] = {}
    for __ in range(1500):
        key = f"k{rng.randrange(120)}".encode()
        if rng.random() < 0.1 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = rng.randbytes(rng.randrange(1, 64))
            db.put(key, value)
            model[key] = value
    for key_id in range(120):
        key = f"k{key_id}".encode()
        assert db.get(key) == model.get(key)


def test_skimpy_average_chain_length():
    db = SkimpyStashStore(num_buckets=8)
    assert db.average_chain_length() == 0.0
    for i in range(80):
        db.put(f"k{i}".encode(), b"v")
    db.flush()
    assert db.average_chain_length() >= 80 / 8


def test_skimpy_write_buffer_serves_recent_keys_without_io():
    db = SkimpyStashStore(num_buckets=8, write_buffer_bytes=1 << 20)
    db.put(b"hot", b"value")
    before = db.disk.stats.snapshot()
    assert db.get(b"hot") == b"value"
    assert db.disk.stats.delta_since(before).read_ops == 0


def test_skimpy_page_cache_avoids_repeat_reads():
    db = SkimpyStashStore(num_buckets=64, write_buffer_bytes=64,
                          page_cache_bytes=1 << 20)
    for i in range(500):
        db.put(f"key-{i:04d}".encode(), b"v" * 100)
    db.flush()
    db.get(b"key-0010")
    before = db.disk.stats.snapshot()
    db.get(b"key-0010")  # same chain pages, now cached (tail page excepted)
    assert db.disk.stats.delta_since(before).read_ops <= 1
