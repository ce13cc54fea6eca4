"""Unit tests for the simulated disk and its file handles."""

import random

import pytest

from repro.env import DiskCrashed, FileNotFound, ReadFault, SimulatedDisk
from repro.env.iostats import RAND, READ, SEQ, WRITE


def test_create_write_read_roundtrip():
    disk = SimulatedDisk()
    w = disk.create("a.log")
    off0 = w.append(b"hello", tag="wal")
    off1 = w.append(b"world", tag="wal")
    assert (off0, off1) == (0, 5)
    f = disk.open("a.log")
    assert f.read(0, 5, tag="lookup") == b"hello"
    assert f.read(5, 5, tag="lookup") == b"world"
    assert f.size() == 10


def test_create_truncates_existing_file():
    disk = SimulatedDisk()
    disk.create("f").append(b"old", tag="t")
    disk.create("f")
    assert disk.size("f") == 0


def test_append_writer_opens_existing():
    disk = SimulatedDisk()
    disk.create("f").append(b"ab", tag="t")
    w = disk.append_writer("f")
    assert w.append(b"cd", tag="t") == 2
    assert disk.read_full("f", tag="t") == b"abcd"


def test_append_writer_creates_missing():
    disk = SimulatedDisk()
    disk.append_writer("new").append(b"x", tag="t")
    assert disk.exists("new")


def test_open_missing_raises():
    disk = SimulatedDisk()
    with pytest.raises(FileNotFound):
        disk.open("nope")


def test_delete_and_exists():
    disk = SimulatedDisk()
    disk.create("f")
    assert disk.exists("f")
    disk.delete("f")
    assert not disk.exists("f")
    with pytest.raises(FileNotFound):
        disk.delete("f")


def test_list_with_prefix_sorted():
    disk = SimulatedDisk()
    for name in ("p1/b", "p1/a", "p2/c"):
        disk.create(name)
    assert disk.list("p1/") == ["p1/a", "p1/b"]
    assert disk.list() == ["p1/a", "p1/b", "p2/c"]


def test_total_bytes():
    disk = SimulatedDisk()
    disk.create("a/x").append(b"12345", tag="t")
    disk.create("b/y").append(b"123", tag="t")
    assert disk.total_bytes() == 8
    assert disk.total_bytes("a/") == 5


def test_read_beyond_end_is_truncated():
    disk = SimulatedDisk()
    disk.create("f").append(b"abc", tag="t")
    assert disk.open("f").read(1, 100, tag="t") == b"bc"


def test_closed_writer_rejects_appends():
    disk = SimulatedDisk()
    w = disk.create("f")
    w.close()
    with pytest.raises(ValueError):
        w.append(b"x", tag="t")


def test_stats_account_patterns_and_tags():
    disk = SimulatedDisk()
    disk.create("f").append(b"x" * 100, tag="flush")
    disk.open("f").read(0, 10, tag="lookup")
    disk.read_full("f", tag="compaction")
    s = disk.stats
    assert s.bytes_for(op=WRITE, pattern=SEQ, tag="flush") == 100
    assert s.bytes_for(op=READ, pattern=RAND, tag="lookup") == 10
    assert s.bytes_for(op=READ, pattern=SEQ, tag="compaction") == 100
    assert s.read_bytes == 110
    assert s.write_bytes == 100
    assert s.tags() == {"flush", "lookup", "compaction"}


def test_clone_is_independent_and_resets_stats():
    disk = SimulatedDisk()
    disk.create("f").append(b"abc", tag="t")
    copy = disk.clone()
    disk.append_writer("f").append(b"more", tag="t")
    assert copy.read_full("f", tag="t") == b"abc"
    assert copy.stats.write_bytes == 0
    # mutating the clone does not touch the original
    copy.create("g")
    assert not disk.exists("g")


# -- sync tracking / crash realism ---------------------------------------------------


def test_sync_is_noop_without_tracking():
    disk = SimulatedDisk()
    w = disk.create("f")
    w.append(b"abc", tag="t")
    assert disk.synced_size("f") == 3  # everything counts as durable
    w.sync()
    assert disk.synced_size("f") == 3


def test_synced_size_advances_only_on_sync():
    disk = SimulatedDisk(sync_tracking=True)
    w = disk.create("f")
    w.append(b"abc", tag="t")
    assert disk.synced_size("f") == 0
    w.sync()
    assert disk.synced_size("f") == 3
    w.append(b"de", tag="t")
    assert disk.synced_size("f") == 3
    w.close()  # close implies a final sync
    assert disk.synced_size("f") == 5


def test_crash_clone_without_tracking_keeps_everything():
    disk = SimulatedDisk()
    disk.create("f").append(b"abcdef", tag="t")
    copy = disk.crash_clone(random.Random(0))
    assert copy.read_full("f", tag="t") == b"abcdef"


def test_crash_clone_keeps_synced_prefix_and_tears_tail():
    disk = SimulatedDisk(sync_tracking=True)
    w = disk.create("f")
    w.append(b"durable!", tag="t")
    w.sync()
    w.append(b"inflight", tag="t")
    for seed in range(32):
        copy = disk.crash_clone(seed)
        data = copy.read_full("f", tag="t")
        # Synced bytes always survive; the unsynced tail is a prefix.
        assert data.startswith(b"durable!")
        assert len(data) <= 16
        assert b"durable!inflight".startswith(data)
        # The clone is healthy and fully synced.
        assert not copy.crashed
        assert copy.synced_size("f") == len(data)


def test_crash_clone_is_seed_deterministic():
    disk = SimulatedDisk(sync_tracking=True)
    w = disk.create("f")
    w.append(b"x" * 100, tag="t")
    w.sync()
    w.append(b"y" * 100, tag="t")
    disk.create("never-synced").append(b"z" * 50, tag="t")
    a = disk.crash_clone(7)
    b = disk.crash_clone(7)
    assert a.list() == b.list()
    for name in a.list():
        assert a.read_full(name, tag="t") == b.read_full(name, tag="t")


def test_crash_clone_may_lose_never_synced_file():
    disk = SimulatedDisk(sync_tracking=True)
    disk.create("f").append(b"unsynced", tag="t")
    lost = kept = False
    for seed in range(64):
        copy = disk.crash_clone(seed)
        if copy.exists("f"):
            kept = True
        else:
            lost = True
    assert lost and kept  # both outcomes reachable across seeds


def test_crash_kills_io_but_not_introspection():
    disk = SimulatedDisk(sync_tracking=True)
    disk.create("f").append(b"abc", tag="t")
    disk.crash()
    assert disk.crashed
    with pytest.raises(DiskCrashed):
        disk.read_full("f", tag="t")
    with pytest.raises(DiskCrashed):
        disk.create("g")
    with pytest.raises(DiskCrashed):
        disk.append_writer("f")
    with pytest.raises(DiskCrashed):
        disk.sync("f")
    # Pure introspection still works (the harness inspects dead disks).
    assert disk.exists("f")
    assert disk.size("f") == 3


def test_arm_crash_tears_the_crossing_append():
    disk = SimulatedDisk(sync_tracking=True)
    w = disk.create("f")
    w.append(b"aaaa", tag="t")
    disk.arm_crash(6)
    w.append(b"bbbb", tag="t")  # 4 < 6: survives whole
    with pytest.raises(DiskCrashed):
        w.append(b"cccc", tag="t")  # crosses at byte 2
    assert disk.crashed
    # The partial prefix landed; crash_clone sees it.
    copy = disk.crash_clone(0)
    data = copy.read_full("f", tag="t") if copy.exists("f") else b""
    assert b"aaaabbbbcc".startswith(data)


def test_disarm_crash_cancels_the_fault():
    disk = SimulatedDisk(sync_tracking=True)
    w = disk.create("f")
    disk.arm_crash(2)
    disk.disarm_crash()
    w.append(b"abcdef", tag="t")
    assert not disk.crashed


def test_read_fault_flip_corrupts_without_touching_storage():
    disk = SimulatedDisk()
    disk.create("f").append(b"abcdef", tag="t")
    disk.inject_read_fault("f", offset=2, length=2, mode="flip")
    data = disk.read_full("f", tag="t")
    assert data[:2] == b"ab" and data[4:] == b"ef"
    assert data[2:4] == bytes(c ^ 0xFF for c in b"cd")
    assert disk.read_faults_hit == 1
    # Reads outside the region are untouched.
    assert disk.open("f").read(4, 2, tag="t") == b"ef"
    disk.clear_read_faults("f")
    assert disk.read_full("f", tag="t") == b"abcdef"


def test_read_fault_error_raises():
    disk = SimulatedDisk()
    disk.create("f").append(b"abcdef", tag="t")
    disk.inject_read_fault("f", offset=0, length=1, mode="error")
    with pytest.raises(ReadFault):
        disk.read_full("f", tag="t")
    with pytest.raises(ValueError):
        disk.inject_read_fault("f", 0, 1, mode="bogus")


def test_closed_writer_error_names_file_and_operation():
    disk = SimulatedDisk()
    w = disk.create("some-file.log")
    w.close()
    with pytest.raises(ValueError, match=r"append of 3 bytes to 'some-file\.log'"):
        w.append(b"abc", tag="t")
    with pytest.raises(ValueError, match=r"sync of 'some-file\.log'"):
        w.sync()


def test_writer_close_is_idempotent():
    disk = SimulatedDisk(sync_tracking=True)
    w = disk.create("f")
    w.append(b"x", tag="t")
    w.close()
    count = disk.sync_count
    w.close()  # second close: no error, no extra sync
    assert disk.sync_count == count
