"""Tests for the RocksDB/HyperLevelDB variants and the PebblesDB FLSM."""

import random

import pytest

from repro.lsm import (
    HyperLevelDBStore,
    LevelDBStore,
    PebblesDBStore,
    RocksDBStore,
)
from tests.test_lsm_leveldb import small_config


@pytest.fixture(params=[RocksDBStore, HyperLevelDBStore, PebblesDBStore])
def store_cls(request):
    return request.param


def test_basic_roundtrip(store_cls):
    db = store_cls(config=small_config())
    db.put(b"a", b"1")
    db.put(b"b", b"2")
    db.delete(b"a")
    assert db.get(b"a") is None
    assert db.get(b"b") == b"2"


def test_random_workload_against_model(store_cls):
    rng = random.Random(7)
    db = store_cls(config=small_config())
    model: dict[bytes, bytes] = {}
    for __ in range(2500):
        key = f"k{rng.randrange(400):04d}".encode()
        if rng.random() < 0.1 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = rng.randbytes(rng.randrange(1, 48))
            db.put(key, value)
            model[key] = value
    for key, value in model.items():
        assert db.get(key) == value
    start = b"k0100"
    assert db.scan(start, 25) == sorted(
        (k, v) for k, v in model.items() if k >= start)[:25]


def test_rocksdb_has_larger_write_buffer():
    base = small_config()
    db = RocksDBStore(config=base)
    assert db.config.memtable_size == base.memtable_size * 2
    assert db.compaction_parallelism > 1


def test_hyperleveldb_uses_min_overlap_and_lazier_l0():
    base = small_config()
    db = HyperLevelDBStore(config=base)
    assert db.compaction_pick == "min_overlap"
    assert db.config.l0_compaction_trigger == base.l0_compaction_trigger * 2


def test_write_friendly_baselines_have_lower_write_amp_than_leveldb():
    def write_amp(cls):
        db = cls(config=small_config(seed=1))
        user = 0
        for i in range(4000):
            key, value = f"key-{i % 1200:06d}".encode(), b"v" * 30
            db.put(key, value)
            user += len(key) + len(value)
        stats = db.disk.stats
        written = (stats.bytes_for(op="write", tag="flush")
                   + stats.bytes_for(op="write", tag="compaction"))
        return written / user

    leveldb_amp = write_amp(LevelDBStore)
    pebbles_amp = write_amp(PebblesDBStore)
    assert pebbles_amp < leveldb_amp


def test_pebblesdb_guard_invariants():
    db = PebblesDBStore(config=small_config())
    for i in range(3000):
        db.put(f"key-{i % 900:05d}".encode(), b"v" * 28)
    db.flush()
    for guards in db._levels:
        assert guards[0].key == b""
        keys = [g.key for g in guards]
        assert keys == sorted(keys)
        # every file in a guard stays inside the guard's key range
        for gi, guard in enumerate(guards):
            hi = guards[gi + 1].key if gi + 1 < len(guards) else None
            for f in guard.files:
                assert f.smallest >= guard.key
                if hi is not None:
                    assert f.largest < hi


def test_pebblesdb_guard_splitting_grows_bottom_level():
    db = PebblesDBStore(config=small_config())
    for i in range(5000):
        db.put(f"key-{i:06d}".encode(), b"v" * 30)
    assert max(len(guards) for guards in db._levels) > 1


def test_pebblesdb_guard_file_bound_respected_after_quiesce():
    db = PebblesDBStore(config=small_config())
    for i in range(4000):
        db.put(f"key-{i % 1000:05d}".encode(), b"v" * 25)
    db.flush()
    for guards in db._levels:
        for guard in guards:
            assert len(guard.files) <= db.max_files_per_guard


def test_pebblesdb_deletes_and_scans():
    db = PebblesDBStore(config=small_config())
    for i in range(600):
        db.put(f"k{i:04d}".encode(), str(i).encode())
    for i in range(0, 600, 3):
        db.delete(f"k{i:04d}".encode())
    db.flush()
    for i in range(600):
        expected = None if i % 3 == 0 else str(i).encode()
        assert db.get(f"k{i:04d}".encode()) == expected
    got = db.scan(b"k0000", 4)
    assert [k for k, __ in got] == [b"k0001", b"k0002", b"k0004", b"k0005"]
