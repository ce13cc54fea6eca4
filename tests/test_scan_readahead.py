"""Scan readahead: several value-log records fetched by one device read.

A scan sorts its value pointers by (log, offset) and reads each run of
neighbouring records with one random read.  These tests build a store whose
first three scan results are adjacent records of one value log, so one read
covers all three, and damage the middle of that run in every way a device
or a bad pointer can.  Each must fail the scan; none may return a wrong
value.
"""

import struct
import zlib

import pytest

from repro import UniKV
from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_VPTR
from repro.engine.vlog import POINTER, fetch_values
from repro.env.storage import ReadFault
from tests.conftest import tiny_unikv_config

RUN = 3


def _value(i: int) -> bytes:
    return f"value-{i:04d}".encode() * 3


def _store_with_one_run() -> tuple[UniKV, str, list[tuple[int, int]]]:
    """The store, the log of its first ``RUN`` values and their (offset,
    length), checked to be adjacent and fetched by one read."""
    db = UniKV(config=tiny_unikv_config())
    for i in range(400):
        db.put(f"key-{i:04d}".encode(), _value(i))
    db.flush()
    first = db.partitions[0]
    records = list(first.sorted.entries_from(b""))[:RUN]
    assert all(kind == KIND_VPTR for __, kind, __ in records)
    pointers = [POINTER.unpack(ptr) for __, __, ptr in records]
    assert len({log for __, log, __, __ in pointers}) == 1
    spans = [(offset, length) for __, __, offset, length in pointers]
    assert all(a[0] + a[1] == b[0] for a, b in zip(spans, spans[1:]))
    log_name = db.ctx.log_name(pointers[0][1])
    reads = db.disk.stats.snapshot()
    assert db.scan(b"", RUN) == [(f"key-{i:04d}".encode(), _value(i)) for i in range(RUN)]
    delta = db.disk.stats.delta_since(reads).records[("read", "rand", "scan_value")]
    assert (delta.ops, delta.bytes) == (1, sum(length for __, length in spans))
    return db, log_name, spans


def _rewrite(db: UniKV, name: str, edit) -> None:
    buf = bytearray(db.disk.read_full(name, tag="test"))
    edit(buf)
    db.disk.create(name).append(bytes(buf), tag="test")


def _assert_scan_fails(db: UniKV, error: type) -> None:
    with pytest.raises(error):
        db.scan(b"", RUN)
    with pytest.raises(error):
        list(db.items())


def test_flipped_byte_in_the_middle_record_fails_the_scan():
    db, log_name, spans = _store_with_one_run()
    offset, length = spans[1]

    def flip(buf):
        buf[offset + length - 1] ^= 0x01
    _rewrite(db, log_name, flip)
    _assert_scan_fails(db, CorruptionError)


def test_read_error_on_the_run_fails_the_scan():
    db, log_name, spans = _store_with_one_run()
    db.disk.inject_read_fault(log_name, spans[1][0], spans[1][1], mode="error")
    _assert_scan_fails(db, ReadFault)


def test_flipped_read_of_the_run_fails_the_scan():
    db, log_name, spans = _store_with_one_run()
    db.disk.inject_read_fault(log_name, spans[1][0], spans[1][1], mode="flip")
    _assert_scan_fails(db, CorruptionError)
    db.disk.clear_read_faults()
    assert len(db.scan(b"", RUN)) == RUN


@pytest.mark.parametrize("kept", [4, 30], ids=["in-header", "in-value"])
def test_run_past_the_end_of_the_log_fails_the_scan(kept):
    db, log_name, spans = _store_with_one_run()
    offset = spans[-1][0]

    def truncate(buf):
        del buf[offset + kept:]
    _rewrite(db, log_name, truncate)
    _assert_scan_fails(db, CorruptionError)


def test_bad_pointer_size_fails_the_fetch():
    db, __, __ = _store_with_one_run()
    key, __, ptr = next(db.partitions[0].sorted.entries_from(b""))
    with pytest.raises(CorruptionError):
        fetch_values(db.ctx.log_reader, [(key, ptr[:-1])], db.scan_value_tag)


def test_record_of_another_key_inside_the_run_fails_the_scan():
    # A well-formed record with a valid checksum, stored under the wrong
    # key: only the stored-key check can catch it.
    db, log_name, spans = _store_with_one_run()
    offset, length = spans[1]
    key, value = b"key-9999", _value(1)
    record = (struct.pack("<III", len(key), len(value), zlib.crc32(key + value))
              + key + value)
    assert len(record) == length

    def replace(buf):
        buf[offset:offset + length] = record
    _rewrite(db, log_name, replace)
    _assert_scan_fails(db, CorruptionError)
