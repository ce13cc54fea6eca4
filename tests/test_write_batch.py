"""Tests for atomic write batches (multi-entry WAL records)."""

import pytest

from repro import LevelDBStore, PebblesDBStore, UniKV
from repro.lsm import SkimpyStashStore
from repro.engine import WalReader, WalWriter
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.env import SimulatedDisk
from tests.test_lsm_leveldb import small_config


# -- WAL multi-entry records --------------------------------------------------------

def test_wal_batch_roundtrip():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    w.append_batch([(b"a", KIND_VALUE, b"1"),
                    (b"b", KIND_TOMBSTONE, b""),
                    (b"c", KIND_VALUE, b"3")])
    assert list(WalReader(disk, "wal").replay()) == [
        (b"a", KIND_VALUE, b"1"),
        (b"b", KIND_TOMBSTONE, b""),
        (b"c", KIND_VALUE, b"3"),
    ]


def test_wal_empty_batch_writes_nothing():
    disk = SimulatedDisk()
    WalWriter(disk, "wal").append_batch([])
    assert disk.size("wal") == 0


def test_wal_batch_is_one_record():
    """A torn tail drops the whole batch, never a prefix of it."""
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    w.append(b"before", KIND_VALUE, b"x")
    w.append_batch([(b"a", KIND_VALUE, b"1"), (b"b", KIND_VALUE, b"2")])
    # Corrupt the final byte: the batch record's CRC breaks.
    buf = bytearray(disk.read_full("wal", tag="t"))
    buf[-1] ^= 0xFF
    disk.create("wal").append(bytes(buf), tag="t")
    reader = WalReader(disk, "wal")
    assert [k for k, __, ___ in reader.replay()] == [b"before"]
    assert reader.tail_corrupt


def test_wal_mixed_single_and_batch_records():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    w.append(b"one", KIND_VALUE, b"1")
    w.append_batch([(b"two", KIND_VALUE, b"2"), (b"three", KIND_VALUE, b"3")])
    w.append(b"four", KIND_VALUE, b"4")
    keys = [k for k, __, ___ in WalReader(disk, "wal").replay()]
    assert keys == [b"one", b"two", b"three", b"four"]


# -- engine-level batches -------------------------------------------------------------

def test_leveldb_write_batch_applies_all():
    db = LevelDBStore(config=small_config())
    db.put(b"seed", b"s")
    db.write_batch([("put", b"a", b"1"), ("put", b"b", b"2"),
                    ("delete", b"seed")])
    assert db.get(b"a") == b"1"
    assert db.get(b"b") == b"2"
    assert db.get(b"seed") is None


def test_write_batch_rejects_unknown_op():
    db = LevelDBStore(config=small_config())
    with pytest.raises(ValueError):
        db.write_batch([("increment", b"a", b"1")])


def test_default_write_batch_via_base_class():
    db = SkimpyStashStore(num_buckets=16)
    db.write_batch([("put", b"x", b"1"), ("delete", b"x"),
                    ("put", b"y", b"2")])
    assert db.get(b"x") is None
    assert db.get(b"y") == b"2"
    with pytest.raises(ValueError):
        db.write_batch([("increment", b"a", b"1")])


def test_pebblesdb_write_batch_is_one_wal_record():
    db = PebblesDBStore(config=small_config(memtable_size=1 << 20))
    db.write_batch([("put", b"k%03d" % i, b"v") for i in range(50)]
                   + [("delete", b"k007")])
    assert db.disk.stats.records[("write", "seq", "wal")].ops == 1
    [wal] = db.disk.list("wal-")
    assert len(list(WalReader(db.disk, wal).replay())) == 51
    assert db.get(b"k007") is None and db.get(b"k008") == b"v"


def test_unikv_write_batch_applies_all(tiny_config):
    db = UniKV(config=tiny_config)
    db.write_batch([("put", f"k{i:03d}".encode(), str(i).encode())
                    for i in range(50)])
    for i in range(50):
        assert db.get(f"k{i:03d}".encode()) == str(i).encode()


def test_unikv_single_partition_batch_is_crash_atomic(tiny_config):
    db = UniKV(config=tiny_config)
    db.put(b"anchor", b"v")
    db.write_batch([("put", b"batch-a", b"1"), ("put", b"batch-b", b"2")])
    # Tear the partition WAL's final record: the whole batch must vanish.
    wal_name = db.partitions[0].wal.name
    buf = bytearray(db.disk.read_full(wal_name, tag="t"))
    buf[-1] ^= 0xFF
    crashed = db.disk.clone()
    crashed.create(wal_name).append(bytes(buf), tag="t")
    db2 = UniKV(disk=crashed, config=tiny_config)
    assert db2.get(b"anchor") == b"v"
    assert db2.get(b"batch-a") is None
    assert db2.get(b"batch-b") is None


def test_unikv_batch_spanning_partitions(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(2500):
        db.put(f"key-{i:06d}".encode(), b"v" * 24)
    db.flush()
    assert db.num_partitions() >= 2
    boundary = db.partitions[1].lower
    db.write_batch([("put", b"key-000000", b"first-part"),
                    ("put", boundary + b"x", b"second-part"),
                    ("delete", b"key-000001")])
    assert db.get(b"key-000000") == b"first-part"
    assert db.get(boundary + b"x") == b"second-part"
    assert db.get(b"key-000001") is None


def test_batch_triggering_flush_stays_consistent(tiny_config):
    db = UniKV(config=tiny_config)
    big = [("put", f"k{i:04d}".encode(), b"v" * 40) for i in range(100)]
    db.write_batch(big)  # far larger than the 512B memtable
    assert db.stats["flushes"] >= 1
    for i in range(100):
        assert db.get(f"k{i:04d}".encode()) == b"v" * 40
