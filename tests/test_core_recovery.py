"""Crash-injection and recovery tests.

Each test runs a workload with a hook that raises
:class:`~repro.engine.errors.CrashPoint` at a chosen internal point, clones
the simulated disk (everything written so far is durable, nothing after
survives), reopens a store on the clone and verifies that every
*acknowledged* write (the put/delete returned before the crash) is intact.
"""

import random

import pytest

from repro import UniKV
from repro.engine.errors import CrashPoint
from tests.conftest import tiny_unikv_config

CRASH_POINTS = [
    "flush:start",
    "flush:before_commit",
    "merge:start",
    "merge:after_data",
    "merge:after_commit",
    "gc:start",
    "gc:before_commit",
    "gc:after_commit",
    "split:start",
    "split:before_commit",
    "split:after_commit",
    "scan_merge:start",
    "scan_merge:before_commit",
    "checkpoint:before_commit",
]


def run_until_crash(point: str, occurrence: int = 1, n_ops: int = 6000,
                    seed: int = 3):
    """Run a mixed workload; crash at the given point's Nth occurrence.

    Returns (disk_clone_at_crash, acknowledged_model, crashed: bool).
    """
    db = UniKV(config=tiny_unikv_config())
    seen = 0

    def hook(p):
        nonlocal seen
        if p == point:
            seen += 1
            if seen == occurrence:
                raise CrashPoint(p)

    db.ctx.crash_hook = hook
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    crashed = False
    for op_no in range(n_ops):
        key = f"key-{rng.randrange(500):05d}".encode()
        # The model is updated *before* the store call: every crash point
        # is reached only after the op's WAL append, so even the op that
        # trips the crash is durable and must survive recovery.
        try:
            if rng.random() < 0.1 and key in model:
                del model[key]
                db.delete(key)
            else:
                value = rng.randbytes(rng.randrange(10, 60))
                model[key] = value
                db.put(key, value)
        except CrashPoint:
            crashed = True
            break
    return db.disk.clone(), model, crashed, db


def verify_recovery(disk, model):
    db2 = UniKV(disk=disk, config=tiny_unikv_config())
    for key, value in model.items():
        assert db2.get(key) == value, f"lost {key!r} after recovery"
    # deleted keys stay deleted
    for key_id in range(500):
        key = f"key-{key_id:05d}".encode()
        if key not in model:
            assert db2.get(key) is None
    expected = sorted(model.items())[:30]
    assert db2.scan(b"", 30) == expected
    return db2


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_and_recover_at_every_point(point):
    disk, model, crashed, __ = run_until_crash(point)
    assert crashed, f"workload never reached crash point {point}"
    verify_recovery(disk, model)


@pytest.mark.parametrize("point", ["merge:after_data", "gc:before_commit",
                                   "split:before_commit"])
def test_uncommitted_files_are_cleaned_up(point):
    disk, model, crashed, db = run_until_crash(point)
    assert crashed
    files_before = set(disk.list())
    db2 = UniKV(disk=disk, config=tiny_unikv_config())
    # Orphans (data written by the crashed operation) must be gone...
    referenced = {"MANIFEST"}
    for p in db2.partitions:
        referenced.update(m.name for m in p.unsorted.tables.values())
        referenced.update(m.name for m in p.sorted.tables)
        referenced.update(db2.ctx.log_name(n) for n in p.log_numbers)
    for name in disk.list("sst-"):
        assert name in referenced, f"orphan table {name} survived recovery"
    for name in disk.list("vlog-"):
        assert name in referenced, f"orphan log {name} survived recovery"
    assert files_before  # sanity


def test_crash_late_in_workload_with_everything_triggered():
    # Crash on a late GC so merges/splits/checkpoints all happened first.
    disk, model, crashed, db = run_until_crash("gc:start", occurrence=3,
                                               n_ops=20000)
    if not crashed:
        pytest.skip("workload did not reach 3 GC runs")
    assert db.stats["splits"] >= 1
    verify_recovery(disk, model)


def test_recovery_without_crash_is_lossless():
    db = UniKV(config=tiny_unikv_config())
    rng = random.Random(17)
    model = {}
    for __ in range(4000):
        key = f"key-{rng.randrange(300):05d}".encode()
        value = rng.randbytes(20)
        db.put(key, value)
        model[key] = value
    # No flush: part of the data only exists in WAL + memtable.
    db2 = UniKV(disk=db.disk.clone(), config=tiny_unikv_config())
    for key, value in model.items():
        assert db2.get(key) == value


def test_recovered_store_continues_operating():
    disk, model, crashed, __ = run_until_crash("merge:after_data")
    assert crashed
    db2 = verify_recovery(disk, model)
    for i in range(2000):
        key = f"new-{i:05d}".encode()
        db2.put(key, b"post-recovery" * 2)
    db2.flush()
    assert db2.get(b"new-00042") == b"post-recovery" * 2
    for key, value in model.items():
        assert db2.get(key) == value


def test_hash_index_checkpoint_used_on_recovery():
    db = UniKV(config=tiny_unikv_config(index_checkpoint_interval=2,
                                        unsorted_limit_bytes=10 ** 9,
                                        scan_merge_limit=0,
                                        partition_size_limit=10 ** 9))
    for i in range(1500):
        db.put(f"key-{i:05d}".encode(), b"v" * 20)
    db.flush()
    assert db.stats["index_checkpoints"] > 0
    clone = db.disk.clone()
    db2 = UniKV(disk=clone, config=db.config)
    # Recovery loaded the checkpoint file rather than re-reading all tables.
    assert clone.stats.bytes_for(tag="checkpoint_load") > 0
    covered = db2._checkpoints[db2.partitions[0].id][1]
    replayed = clone.stats.bytes_for(tag="index_rebuild")
    all_tables = sum(m.file_size for m in db2.partitions[0].unsorted.tables.values())
    assert replayed < all_tables  # only the uncovered suffix was re-read
    for i in range(1500):
        assert db2.get(f"key-{i:05d}".encode()) == b"v" * 20


def test_stale_checkpoint_discarded_after_merge():
    db = UniKV(config=tiny_unikv_config(index_checkpoint_interval=2))
    for i in range(2500):
        db.put(f"key-{i:05d}".encode(), b"v" * 20)
    db.flush()
    assert db.stats["merges"] > 0
    db2 = UniKV(disk=db.disk.clone(), config=db.config)
    for i in range(0, 2500, 13):
        assert db2.get(f"key-{i:05d}".encode()) == b"v" * 20


def test_double_recovery_is_stable():
    disk, model, crashed, __ = run_until_crash("split:before_commit")
    assert crashed
    db2 = verify_recovery(disk, model)
    db3 = UniKV(disk=db2.disk.clone(), config=tiny_unikv_config())
    for key, value in model.items():
        assert db3.get(key) == value


# -- torn-write recovery (sync-tracking disks) ------------------------------------------

def _torn_store(seed=0, writes=120):
    """A sync-tracking store with traffic, crash-cloned mid-append.

    Returns the disk, the acknowledged model, whether the armed crash
    fired, and the in-flight (unacked) op that tripped it.  The in-flight
    put may legally survive: its WAL append can land and sync before the
    crash fires in a later append of the same call (e.g. a flush).
    """
    from repro.env.storage import DiskCrashed, SimulatedDisk

    disk = SimulatedDisk(sync_tracking=True)
    db = UniKV(disk=disk, config=tiny_unikv_config())
    rng = random.Random(seed)
    acked = {}
    crashed = False
    inflight = None
    for i in range(writes):
        key = b"key-%03d" % rng.randrange(40)
        value = b"val-%d-%d" % (seed, i)
        if i == writes - 40:
            # Lose power inside one of the remaining appends (the last 40
            # puts append far more than the largest threshold).
            disk.arm_crash(rng.randint(1, 400))
        try:
            db.put(key, value)
            acked[key] = value
        except DiskCrashed:
            crashed = True
            inflight = (key, value)
            break
    return disk, acked, crashed, inflight


@pytest.mark.parametrize("seed", range(8))
def test_mid_append_power_failure_preserves_acked_writes(seed):
    from repro.env.storage import SimulatedDisk  # noqa: F401 - parity import

    disk, acked, crashed, inflight = _torn_store(seed)
    assert crashed, "the armed crash must fire within the workload"
    clone = disk.crash_clone(seed)
    recovered = UniKV(disk=clone, config=tiny_unikv_config())
    for key, value in acked.items():
        got = recovered.get(key)
        if inflight and key == inflight[0]:
            # The crashing put was never acked, but its WAL record may
            # have landed durably before the crash: either value is legal.
            assert got in (value, inflight[1]), f"lost acked {key!r}"
        else:
            assert got == value, f"lost acked {key!r}"
    # The recovered store must be fully writable again.
    recovered.put(b"post", b"crash")
    assert recovered.get(b"post") == b"crash"


@pytest.mark.parametrize("seed", range(4))
def test_recovery_after_torn_crash_is_itself_recoverable(seed):
    """Recover, write more, reopen: the repair paths (manifest truncation,
    WAL re-log) must leave a log a second recovery can replay."""
    disk, acked, crashed, inflight = _torn_store(seed)
    assert crashed
    clone = disk.crash_clone(seed + 1000)
    db1 = UniKV(disk=clone, config=tiny_unikv_config())
    for i in range(30):
        db1.put(b"extra-%02d" % i, b"x%d" % i)
    db1.close()
    db2 = UniKV(disk=clone, config=tiny_unikv_config())
    for key, value in acked.items():
        if inflight and key == inflight[0]:
            assert db2.get(key) in (value, inflight[1])
        else:
            assert db2.get(key) == value
    for i in range(30):
        assert db2.get(b"extra-%02d" % i) == b"x%d" % i


def test_torn_wal_tail_is_relogged_not_appended_past():
    """New records appended after a torn WAL tail would be unreachable;
    recovery must re-log the intact prefix into a fresh file."""
    from repro.env.storage import SimulatedDisk

    disk = SimulatedDisk(sync_tracking=True)
    db = UniKV(disk=disk, config=tiny_unikv_config())
    for i in range(5):
        db.put(b"k%d" % i, b"v%d" % i)
    # Tear the live WAL's tail: unsynced garbage after the synced prefix.
    (wal_name,) = disk.list("wal-")
    disk._files[wal_name].extend(b"\x99" * 7)  # torn bytes, never synced
    clone = disk.crash_clone(3)
    recovered = UniKV(disk=clone, config=tiny_unikv_config())
    for i in range(5):
        assert recovered.get(b"k%d" % i) == b"v%d" % i
    # Writes after recovery land in a WAL a further recovery can replay.
    recovered.put(b"after", b"tear")
    third = UniKV(disk=clone, config=tiny_unikv_config())
    assert third.get(b"after") == b"tear"
    assert third.get(b"k0") == b"v0"


def test_manifest_repair_truncates_torn_tail():
    from repro.core.manifest import Manifest
    from repro.env.storage import SimulatedDisk

    disk = SimulatedDisk(sync_tracking=True)
    manifest = Manifest(disk)
    manifest.append({"type": "init", "partition": 0, "lower": ""})
    manifest.append({"type": "wal", "partition": 0, "name": "wal-000000"})
    good_size = disk.size("MANIFEST")
    # A torn commit: header + partial payload, never synced.
    disk._files["MANIFEST"].extend(b"\x01\x02\x03")
    replayed = Manifest(disk, create=False)
    records = list(replayed.replay())
    assert len(records) == 2
    assert replayed.valid_end == good_size
    assert replayed.repair() is True
    assert disk.size("MANIFEST") == good_size
    # Appends now extend the valid log.
    replayed.append({"type": "wal", "partition": 0, "name": "wal-000001"})
    final = Manifest(disk, create=False)
    assert len(list(final.replay())) == 3
    assert final.repair() is False  # nothing left to cut


def test_a_manifest_that_names_no_partition_is_refused_untouched():
    """A damaged first record makes replay yield nothing; recovery must
    refuse the store before it repairs the manifest or sweeps files,
    which would delete every table, log, checkpoint and WAL."""
    from repro.engine.errors import CorruptionError
    from tests.conftest import disk_digest

    db = UniKV(config=tiny_unikv_config())
    for i in range(50):
        db.put(f"key-{i:05d}".encode(), b"v" * 20)
    clone = db.disk.clone()
    buf = bytearray(clone.read_full("MANIFEST", tag="test"))
    buf[10] ^= 1
    clone.create("MANIFEST").append(bytes(buf), tag="test")
    files = clone.list()
    assert any(name.startswith("sst-") for name in files)
    before = disk_digest(clone)
    with pytest.raises(CorruptionError, match="names no partition"):
        UniKV(disk=clone, config=db.config)
    assert clone.list() == files
    assert disk_digest(clone) == before
