"""Unit + property tests for the LevelDB-like leveled LSM."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import LevelDBStore, LSMConfig


def small_config(**overrides):
    defaults = dict(
        memtable_size=512,
        sstable_size=512,
        block_size=128,
        base_level_bytes=2048,
        level_size_multiplier=4,
        block_cache_bytes=4096,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


def test_put_get_roundtrip():
    db = LevelDBStore(config=small_config())
    db.put(b"key", b"value")
    assert db.get(b"key") == b"value"
    assert db.get(b"missing") is None


def test_overwrite_returns_latest():
    db = LevelDBStore(config=small_config())
    db.put(b"k", b"v1")
    db.put(b"k", b"v2")
    assert db.get(b"k") == b"v2"


def test_delete_hides_key():
    db = LevelDBStore(config=small_config())
    db.put(b"k", b"v")
    db.delete(b"k")
    assert db.get(b"k") is None


def test_delete_then_reinsert():
    db = LevelDBStore(config=small_config())
    db.put(b"k", b"v1")
    db.delete(b"k")
    db.put(b"k", b"v2")
    assert db.get(b"k") == b"v2"


def test_values_survive_flush_and_compaction():
    db = LevelDBStore(config=small_config())
    n = 500
    for i in range(n):
        db.put(f"key-{i:05d}".encode(), f"value-{i}".encode() * 4)
    jobs = db.scheduler.describe()["job_counts"]
    assert jobs["flush"] > 0
    assert jobs["compaction"] > 0
    for i in range(n):
        assert db.get(f"key-{i:05d}".encode()) == f"value-{i}".encode() * 4


def test_overwrites_resolve_to_newest_after_compaction():
    db = LevelDBStore(config=small_config())
    for round_no in range(6):
        for i in range(120):
            db.put(f"k{i:04d}".encode(), f"r{round_no}".encode())
    db.flush()
    for i in range(120):
        assert db.get(f"k{i:04d}".encode()) == b"r5"


def test_deletes_survive_compaction():
    db = LevelDBStore(config=small_config())
    for i in range(300):
        db.put(f"k{i:04d}".encode(), b"x" * 20)
    for i in range(0, 300, 2):
        db.delete(f"k{i:04d}".encode())
    db.flush()
    for i in range(300):
        expected = None if i % 2 == 0 else b"x" * 20
        assert db.get(f"k{i:04d}".encode()) == expected


def test_scan_ordered_and_excludes_deleted():
    db = LevelDBStore(config=small_config())
    for i in range(200):
        db.put(f"k{i:04d}".encode(), str(i).encode())
    db.delete(b"k0005")
    got = db.scan(b"k0003", 5)
    assert [k for k, __ in got] == [b"k0003", b"k0004", b"k0006", b"k0007", b"k0008"]


def test_scan_across_memtable_and_disk():
    db = LevelDBStore(config=small_config())
    for i in range(0, 100, 2):
        db.put(f"k{i:04d}".encode(), b"disk")
    db.flush()
    for i in range(1, 100, 2):
        db.put(f"k{i:04d}".encode(), b"mem")
    got = db.scan(b"k0000", 10)
    assert [k for k, __ in got] == [f"k{i:04d}".encode() for i in range(10)]
    assert got[0][1] == b"disk" and got[1][1] == b"mem"


def test_scan_count_limits_results():
    db = LevelDBStore(config=small_config())
    for i in range(50):
        db.put(f"{i:03d}".encode(), b"v")
    assert len(db.scan(b"", 7)) == 7
    assert len(db.scan(b"049", 10)) == 1
    assert db.scan(b"zzz", 10) == []


def test_levels_respect_leveled_invariants():
    db = LevelDBStore(config=small_config())
    for i in range(2000):
        db.put(f"key-{i % 700:05d}".encode(), b"v" * 24)
    state = db._state
    for level in range(1, state.max_levels):
        files = state.levels[level]
        for a, b in zip(files, files[1:]):
            assert a.largest < b.smallest, f"overlap on level {level}"
    assert len(state.levels[0]) < db.config.l0_compaction_trigger


def test_write_amplification_exceeds_one_under_compaction():
    db = LevelDBStore(config=small_config())
    user_bytes = 0
    for i in range(1500):
        key, value = f"key-{i:06d}".encode(), b"v" * 32
        db.put(key, value)
        user_bytes += len(key) + len(value)
    flush_plus_compact = (db.disk.stats.bytes_for(op="write", tag="flush")
                          + db.disk.stats.bytes_for(op="write", tag="compaction"))
    assert flush_plus_compact > user_bytes  # leveled compaction rewrites data


def test_wal_can_be_disabled():
    db = LevelDBStore(config=small_config(wal_enabled=False))
    for i in range(100):
        db.put(f"k{i}".encode(), b"v")
    assert db.disk.stats.bytes_for(tag="wal") == 0
    assert db.get(b"k5") == b"v"


def test_deterministic_given_same_seed():
    def run():
        db = LevelDBStore(config=small_config(seed=7))
        for i in range(400):
            db.put(f"k{i % 97:04d}".encode(), str(i).encode())
        return db.disk.stats.write_bytes
    assert run() == run()


@settings(max_examples=15, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.integers(min_value=0, max_value=40),
              st.binary(max_size=16)),
    max_size=300))
def test_matches_dict_model(ops):
    db = LevelDBStore(config=small_config())
    model: dict[bytes, bytes] = {}
    for op, key_id, value in ops:
        key = f"key-{key_id:03d}".encode()
        if op == "put":
            db.put(key, value)
            model[key] = value
        else:
            db.delete(key)
            model.pop(key, None)
    for key_id in range(41):
        key = f"key-{key_id:03d}".encode()
        assert db.get(key) == model.get(key)
    expected = sorted(model.items())[:10]
    assert db.scan(b"", 10) == expected


def test_random_workload_against_model():
    rng = random.Random(42)
    db = LevelDBStore(config=small_config())
    model: dict[bytes, bytes] = {}
    for __ in range(3000):
        key = f"k{rng.randrange(500):04d}".encode()
        if rng.random() < 0.15 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = rng.randbytes(rng.randrange(1, 40))
            db.put(key, value)
            model[key] = value
    for key, value in model.items():
        assert db.get(key) == value
    start = b"k0250"
    assert db.scan(start, 20) == sorted(
        (k, v) for k, v in model.items() if k >= start)[:20]
