"""Unit tests for value logs and pointers."""

import struct
import zlib

import pytest

from repro.engine import VLogReader, VLogWriter, unpack_pointer
from repro.engine.errors import CorruptionError
from repro.engine.vlog import POINTER, READAHEAD_GAP, fetch_values, vlog_record_size
from repro.env import SimulatedDisk


def test_pointer_roundtrip():
    assert unpack_pointer(POINTER.pack(3, 7, 1234, 56)) == (3, 7, 1234, 56)


def test_pointer_decode_rejects_bad_size():
    for buf in (b"short", b"", POINTER.pack(0, 0, 0, 1) + b"\x00"):
        with pytest.raises(CorruptionError):
            unpack_pointer(buf)


def test_append_and_random_read():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "vlog-0", partition=0, log_number=0, tag="merge_vlog")
    part1, log1, off1, len1 = unpack_pointer(w.append(b"alpha", b"value-one"))
    __, __, off2, len2 = unpack_pointer(w.append(b"beta", b"value-two"))
    r = VLogReader(disk, "vlog-0")
    assert r.read_value(off1, len1, tag="lookup") == (b"alpha", b"value-one")
    assert r.read_value(off2, len2, tag="lookup") == (b"beta", b"value-two")
    assert part1 == 0 and log1 == 0
    assert off2 == off1 + len1


def test_record_size_matches_pointer_length():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v", partition=0, log_number=0, tag="t")
    ptr = w.append(b"k", b"vvv")
    assert unpack_pointer(ptr)[3] == vlog_record_size(b"k", b"vvv")


def test_scan_yields_all_records_in_order():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v", partition=1, log_number=2, tag="t")
    pointers = [unpack_pointer(w.append(f"k{i}".encode(), f"val{i}".encode()))
                for i in range(10)]
    scanned = list(VLogReader(disk, "v").scan(tag="gc"))
    assert [(k, v) for k, v, __, ___ in scanned] == \
        [(f"k{i}".encode(), f"val{i}".encode()) for i in range(10)]
    assert [off for __, ___, off, ____ in scanned] == [p[2] for p in pointers]
    assert all(p[:2] == (1, 2) for p in pointers)


def test_scan_detects_torn_record():
    disk = SimulatedDisk()
    VLogWriter(disk, "v", partition=0, log_number=0, tag="t").append(b"k", b"v")
    disk.append_writer("v").append(b"\x05\x00", tag="t")
    with pytest.raises(CorruptionError):
        list(VLogReader(disk, "v").scan(tag="gc"))


def test_read_value_detects_length_mismatch():
    disk = SimulatedDisk()
    w = VLogWriter(disk, "v", partition=0, log_number=0, tag="t")
    __, __, offset, length = unpack_pointer(w.append(b"k", b"value"))
    with pytest.raises(CorruptionError):
        VLogReader(disk, "v").read_value(offset, length - 2, tag="lookup")


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
    wanted = [(b"d", d), (b"b", b), (b"a", a), (b"c", c)]
    before = disk.stats.snapshot()
    values = fetch_values(readers.get, wanted, tag="scan_value")
    assert values == [b"4", b"2" * 10, b"1" * 10, b"3"]
    rec = disk.stats.delta_since(before).records[("read", "rand", "scan_value")]
    # one read for c+d, and a..b as one run (gap bytes charged) or two
    __, __, a_off, a_len = unpack_pointer(a)
    __, __, b_off, b_len = unpack_pointer(b)
    span = b_off + b_len - a_off
    c_len, d_len = unpack_pointer(c)[3], unpack_pointer(d)[3]
    expected_bytes = c_len + d_len + (span if reads == 1 else a_len + b_len)
    assert (rec.ops, rec.bytes) == (1 + reads, expected_bytes)


def test_fetch_values_detects_header_length_disagreeing_with_pointer():
    # The checksum covers the bytes the pointer spans, but the header
    # declares a shorter value: only the length check catches it.
    disk = SimulatedDisk()
    record = struct.pack("<III", 1, 3, zlib.crc32(b"k" + b"value")) + b"k" + b"value"
    disk.create("v").append(record, tag="t")
    ptr = POINTER.pack(0, 0, 0, len(record))
    with pytest.raises(CorruptionError):
        fetch_values(lambda n: VLogReader(disk, "v"), [(b"k", ptr)], tag="scan")
