"""Unit tests for value logs and pointers."""

import pytest

from repro.engine import ValuePointer, VLogReader, VLogWriter
from repro.engine.errors import CorruptionError
from repro.engine.vlog import vlog_record_size
from repro.env import SimulatedDisk


def test_pointer_roundtrip():
    ptr = ValuePointer(partition=3, log_number=7, offset=1234, length=56)
    decoded = ValuePointer.decode(ptr.encode())
    assert decoded == ptr
    assert hash(decoded) == hash(ptr)


def test_pointer_decode_rejects_bad_size():
    with pytest.raises(CorruptionError):
        ValuePointer.decode(b"short")


def test_append_and_random_read():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "vlog-0", partition=0, log_number=0, tag="merge_vlog")
    p1 = w.append(b"alpha", b"value-one")
    p2 = w.append(b"beta", b"value-two")
    r = VLogReader(disk, "vlog-0")
    assert r.read_value(p1.offset, p1.length, tag="lookup") == (b"alpha", b"value-one")
    assert r.read_value(p2.offset, p2.length, tag="lookup") == (b"beta", b"value-two")
    assert p1.partition == 0 and p1.log_number == 0
    assert p2.offset == p1.offset + p1.length


def test_record_size_matches_pointer_length():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v", partition=0, log_number=0, tag="t")
    ptr = w.append(b"k", b"vvv")
    assert ptr.length == vlog_record_size(b"k", b"vvv")


def test_scan_yields_all_records_in_order():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v", partition=1, log_number=2, tag="t")
    pointers = [w.append(f"k{i}".encode(), f"val{i}".encode()) for i in range(10)]
    scanned = list(VLogReader(disk, "v").scan(tag="gc"))
    assert [(k, v) for k, v, __, ___ in scanned] == \
        [(f"k{i}".encode(), f"val{i}".encode()) for i in range(10)]
    assert [off for __, ___, off, ____ in scanned] == [p.offset for p in pointers]


def test_scan_detects_torn_record():
    disk = SimulatedDisk()
    VLogWriter(disk, "v", partition=0, log_number=0, tag="t").append(b"k", b"v")
    disk.append_writer("v").append(b"\x05\x00", tag="t")
    with pytest.raises(CorruptionError):
        list(VLogReader(disk, "v").scan(tag="gc"))


def test_read_value_detects_length_mismatch():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v", partition=0, log_number=0, tag="t")
    ptr = w.append(b"k", b"value")
    bad = ValuePointer(ptr.partition, ptr.log_number, ptr.offset, ptr.length - 2)
    with pytest.raises(CorruptionError):
        VLogReader(disk, "v").read_value(bad.offset, bad.length, tag="lookup")


def test_empty_log_scan():
    disk = SimulatedDisk()
    VLogWriter(disk, "v", partition=0, log_number=0, tag="t")
    assert list(VLogReader(disk, "v").scan(tag="gc")) == []
