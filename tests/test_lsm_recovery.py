"""Recovery tests for the LevelDB-family baselines (manifest + WAL replay),
and the refusal of the baselines without recovery to reopen their files."""

import random

import pytest

from repro.core.manifest import Manifest
from repro.engine.errors import CorruptionError, InvalidArgument
from repro.env.storage import DiskCrashed, SimulatedDisk
from repro.lsm import (HyperLevelDBStore, LevelDBStore, PebblesDBStore, RocksDBStore,
                       SkimpyStashStore, WiscKeyStore)
from repro.lsm.wisckey import WiscKeyConfig
from tests.conftest import disk_digest
from tests.test_lsm_leveldb import small_config


@pytest.fixture(params=[LevelDBStore, RocksDBStore, HyperLevelDBStore])
def store_cls(request):
    return request.param


def test_reopen_recovers_all_data(store_cls):
    db = store_cls(config=small_config())
    rng = random.Random(8)
    model = {}
    for __ in range(2500):
        key = f"k{rng.randrange(400):04d}".encode()
        if rng.random() < 0.1 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = rng.randbytes(rng.randrange(1, 50))
            db.put(key, value)
            model[key] = value
    db2 = store_cls(disk=db.disk.clone(), config=small_config())
    for key, value in model.items():
        assert db2.get(key) == value
    assert db2.scan(b"", 20) == sorted(model.items())[:20]


def test_reopen_recovers_unflushed_memtable(store_cls):
    db = store_cls(config=small_config(memtable_size=1 << 20))
    for i in range(50):  # everything stays in the memtable + WAL
        db.put(f"k{i:03d}".encode(), str(i).encode())
    db2 = store_cls(disk=db.disk.clone(), config=small_config(memtable_size=1 << 20))
    for i in range(50):
        assert db2.get(f"k{i:03d}".encode()) == str(i).encode()


def test_torn_wal_tail_drops_only_last_record():
    db = LevelDBStore(config=small_config(memtable_size=1 << 20))
    for i in range(20):
        db.put(f"k{i:03d}".encode(), b"v")
    clone = db.disk.clone()
    buf = bytearray(clone.read_full(db._wal.name, tag="t"))
    buf[-1] ^= 0xFF
    clone.create(db._wal.name).append(bytes(buf), tag="t")
    db2 = LevelDBStore(disk=clone, config=small_config(memtable_size=1 << 20))
    for i in range(19):
        assert db2.get(f"k{i:03d}".encode()) == b"v"
    assert db2.get(b"k019") is None  # the torn record


@pytest.mark.parametrize("arm_at", [5, 9, 14])
def test_writes_after_a_torn_wal_tail_survive_the_next_reopen(store_cls, arm_at):
    """Power fails ``arm_at`` bytes into one put's WAL append.  Records
    appended after the torn bytes would be unreachable (replay stops at
    the tear), so recovery must re-log the intact records first."""
    config = small_config(memtable_size=1 << 20)  # everything stays in the WAL
    disk = SimulatedDisk(sync_tracking=True)
    db = store_cls(disk=disk, config=config)
    for i in range(20):
        db.put(b"k%03d" % i, b"v0")
    disk.arm_crash(arm_at)
    with pytest.raises(DiskCrashed, match="wal-"):
        db.put(b"k999", b"never acked")
    clone = disk.clone()  # keeps the partial append: a torn final record
    db = store_cls(disk=clone, config=config)
    for i in range(20):
        db.put(b"k%03d" % i, b"v1")
    db = store_cls(disk=clone.clone(), config=config)
    for i in range(20):
        assert db.get(b"k%03d" % i) == b"v1"
    assert db.get(b"k999") is None


def _crash_in_first_manifest_commit(store_cls):
    """Arm crashes every 37 bytes across the first flush until one tears
    ``LSM-MANIFEST``; return the torn disk and the acked model."""
    for arm_at in range(1, 4000, 37):
        disk = SimulatedDisk(sync_tracking=True)
        db = store_cls(disk=disk, config=small_config())
        acked = {}
        disk.arm_crash(arm_at)
        try:
            for i in range(100):
                key = b"k%04d" % i
                db.put(key, b"v%d" % i * 5)
                acked[key] = b"v%d" % i * 5
        except DiskCrashed as exc:
            if "LSM-MANIFEST" not in str(exc):
                continue
        clone = disk.clone()  # keeps the partial append: a torn record
        probe = Manifest(clone.clone(), "LSM-MANIFEST", create=False)
        list(probe.replay())
        if probe.valid_end < clone.size("LSM-MANIFEST"):
            return clone, acked
    raise AssertionError("no armed crash tore the manifest")


def test_writes_after_a_torn_manifest_tail_survive_the_next_reopen(store_cls):
    """Manifest records appended after a torn tail would be unreachable,
    and the next reopen would delete their tables as orphans: recovery
    must cut the tail before it appends."""
    disk, acked = _crash_in_first_manifest_commit(store_cls)
    db = store_cls(disk=disk, config=small_config())
    for i in range(300):
        key = b"n%04d" % i
        db.put(key, b"w%d" % i * 5)
        acked[key] = b"w%d" % i * 5
    db = store_cls(disk=disk.clone(), config=small_config())
    for key, value in acked.items():
        assert db.get(key) == value, f"lost acked {key!r}"


def test_a_manifest_with_no_intact_record_is_refused_untouched(store_cls):
    """A damaged first record makes replay yield nothing; recovery must
    refuse the store before it repairs the manifest or sweeps files,
    which would delete every table and the WAL."""
    db = store_cls(config=small_config())
    for i in range(500):
        db.put(f"k{i:04d}".encode(), b"v%d" % i)
    clone = db.disk.clone()
    buf = bytearray(clone.read_full("LSM-MANIFEST", tag="test"))
    buf[10] ^= 1
    clone.create("LSM-MANIFEST").append(bytes(buf), tag="test")
    files = clone.list()
    assert any(name.startswith("sst-") for name in files)
    before = disk_digest(clone)
    with pytest.raises(CorruptionError, match="no intact record"):
        store_cls(disk=clone, config=small_config())
    assert clone.list() == files
    assert disk_digest(clone) == before


def test_orphan_tables_cleaned_on_reopen():
    db = LevelDBStore(config=small_config())
    for i in range(800):
        db.put(f"k{i:04d}".encode(), b"v" * 30)
    clone = db.disk.clone()
    # Simulate a crash mid-compaction: an output table exists on disk but
    # was never committed to the manifest.
    clone.create("orphan-sst").close()
    clone.create(f"sst-{db._next_file:06d}").append(b"partial", tag="t")
    db2 = LevelDBStore(disk=clone, config=small_config())
    assert not clone.exists(f"sst-{db._next_file:06d}")
    for i in range(0, 800, 41):
        assert db2.get(f"k{i:04d}".encode()) == b"v" * 30


def test_recovered_store_keeps_operating(store_cls):
    db = store_cls(config=small_config())
    for i in range(1000):
        db.put(f"old-{i:04d}".encode(), b"v" * 20)
    db2 = store_cls(disk=db.disk.clone(), config=small_config())
    for i in range(1000):
        db2.put(f"new-{i:04d}".encode(), b"w" * 20)
    assert db2.get(b"old-0500") == b"v" * 20
    assert db2.get(b"new-0500") == b"w" * 20
    # Level invariants survive the recover-then-compact sequence.
    for level in range(1, db2._state.max_levels):
        files = db2._state.levels[level]
        for a, b in zip(files, files[1:]):
            assert a.largest < b.smallest


def test_double_reopen_stable():
    db = LevelDBStore(config=small_config())
    for i in range(600):
        db.put(f"k{i:04d}".encode(), str(i).encode())
    db2 = LevelDBStore(disk=db.disk.clone(), config=small_config())
    db3 = LevelDBStore(disk=db2.disk.clone(), config=small_config())
    for i in range(0, 600, 29):
        assert db3.get(f"k{i:04d}".encode()) == str(i).encode()


def _put_500(db):
    for i in range(500):
        db.put(b"k%04d" % i, b"value-%04d" % i)


def test_pebblesdb_refuses_to_reopen_its_files():
    db = PebblesDBStore(config=small_config())
    _put_500(db)
    clone = db.disk.clone()
    before = {name: clone.size(name) for name in clone.list()}
    with pytest.raises(InvalidArgument):
        PebblesDBStore(disk=clone, config=small_config())
    assert {name: clone.size(name) for name in clone.list()} == before


def test_wisckey_refuses_to_reopen_its_files():
    config = WiscKeyConfig(**vars(small_config()), vlog_segment_size=4096)
    db = WiscKeyStore(config=config)
    _put_500(db)
    clone = db.disk.clone()
    before = {name: clone.size(name) for name in clone.list()}
    with pytest.raises(InvalidArgument):
        WiscKeyStore(disk=clone, config=config)
    assert {name: clone.size(name) for name in clone.list()} == before


def test_skimpystash_refuses_to_reopen_its_log():
    db = SkimpyStashStore(write_buffer_bytes=1024)
    _put_500(db)
    clone = db.disk.clone()
    size = clone.size("stash-log")
    assert size > 0
    with pytest.raises(InvalidArgument):
        SkimpyStashStore(disk=clone)
    assert clone.size("stash-log") == size


def test_baselines_without_recovery_open_beside_other_prefixes():
    disk = SimulatedDisk()
    _put_500(PebblesDBStore(disk=disk, config=small_config(), prefix="a/"))
    PebblesDBStore(disk=disk, config=small_config(), prefix="b/")
    SkimpyStashStore(disk=disk, prefix="b/")
    WiscKeyStore(disk=disk, prefix="b/")
