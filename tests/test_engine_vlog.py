"""Unit tests for value logs and pointers."""

import struct
import zlib

import pytest

from repro.engine import ValuePointer, VLogReader, VLogWriter
from repro.engine.errors import CorruptionError
from repro.engine.vlog import READAHEAD_GAP, fetch_values, vlog_record_size
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


@pytest.mark.parametrize("gap, reads", [(READAHEAD_GAP, 1), (READAHEAD_GAP + 1, 2)])
def test_fetch_values_reads_each_run_of_neighbours_once(gap, reads):
    # a, then a filler record of exactly ``gap`` bytes, then b; c and d
    # sit in a second log.
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v0", partition=0, log_number=0, tag="t")
    a = w.append(b"a", b"1" * 10)
    w.append(b"f", b"x" * (gap - vlog_record_size(b"f", b"")))
    b = w.append(b"b", b"2" * 10)
    w2 = VLogWriter(disk, "v1", partition=0, log_number=1, tag="t")
    c = w2.append(b"c", b"3")
    d = w2.append(b"d", b"4")
    readers = {0: VLogReader(disk, "v0"), 1: VLogReader(disk, "v1")}
    wanted = [(b"d", d.encode()), (b"b", b.encode()), (b"a", a.encode()),
              (b"c", c.encode())]
    before = disk.stats.snapshot()
    values = fetch_values(readers.get, wanted, tag="scan_value")
    assert values == [b"4", b"2" * 10, b"1" * 10, b"3"]
    rec = disk.stats.delta_since(before).records[("read", "rand", "scan_value")]
    # one read for c+d, and a..b as one run (gap bytes charged) or two
    span = b.offset + b.length - a.offset
    expected_bytes = c.length + d.length + (span if reads == 1 else a.length + b.length)
    assert (rec.ops, rec.bytes) == (1 + reads, expected_bytes)


def test_fetch_values_detects_header_length_disagreeing_with_pointer():
    # The checksum covers the bytes the pointer spans, but the header
    # declares a shorter value: only the length check catches it.
    disk = SimulatedDisk()
    record = struct.pack("<III", 1, 3, zlib.crc32(b"k" + b"value")) + b"k" + b"value"
    disk.create("v").append(record, tag="t")
    ptr = ValuePointer(0, 0, 0, len(record))
    with pytest.raises(CorruptionError):
        fetch_values(lambda n: VLogReader(disk, "v"), [(b"k", ptr.encode())], tag="scan")
