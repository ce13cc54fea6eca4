"""Value logs for KV separation.

UniKV's SortedStore (and the WiscKey baseline) store values in append-only
log files; the sorted key structures store :class:`ValuePointer` records
instead.  Each log record carries the key alongside the value so garbage
collection can identify which key a value belongs to (as in WiscKey/UniKV).

Record layout::

    [key length (4B)] [value length (4B)] [crc32 of key+value (4B)] [key] [value]

Pointer layout (matches the paper's <partition, logNumber, offset, length>)::

    [partition (4B)] [log number (4B)] [offset (8B)] [length (4B)]
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.engine.errors import CorruptionError
from repro.env.storage import SimulatedDisk
from repro.obs import MetricsRegistry

_REC_HDR = struct.Struct("<III")
#: encoded :class:`ValuePointer`: partition, log number, offset, length
POINTER = struct.Struct("<IIQI")


class ValuePointer:
    """Location of one value inside a partition's value log."""

    __slots__ = ("partition", "log_number", "offset", "length")

    ENCODED_SIZE = POINTER.size

    def __init__(self, partition: int, log_number: int, offset: int, length: int) -> None:
        self.partition = partition
        self.log_number = log_number
        self.offset = offset
        self.length = length

    def encode(self) -> bytes:
        return POINTER.pack(self.partition, self.log_number, self.offset, self.length)

    @classmethod
    def decode(cls, buf: bytes) -> "ValuePointer":
        if len(buf) != POINTER.size:
            raise CorruptionError("bad value-pointer size")
        return cls(*POINTER.unpack(buf))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ValuePointer)
                and (self.partition, self.log_number, self.offset, self.length)
                == (other.partition, other.log_number, other.offset, other.length))

    def __hash__(self) -> int:
        return hash((self.partition, self.log_number, self.offset, self.length))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ValuePointer(p={self.partition}, log={self.log_number}, "
                f"off={self.offset}, len={self.length})")


class VLogWriter:
    """Appends (key, value) records to a value-log file."""

    def __init__(self, disk: SimulatedDisk, name: str, partition: int,
                 log_number: int, tag: str) -> None:
        self._writer = disk.create(name)
        self._tag = tag
        self.name = name
        self.partition = partition
        self.log_number = log_number

    def append(self, key: bytes, value: bytes) -> ValuePointer:
        crc = zlib.crc32(key + value)
        record = _REC_HDR.pack(len(key), len(value), crc) + key + value
        offset = self._writer.append(record, tag=self._tag)
        return ValuePointer(self.partition, self.log_number, offset, len(record))

    def size(self) -> int:
        return self._writer.tell()

    def sync(self) -> None:
        self._writer.sync()

    def close(self) -> None:
        # close() implies a final sync, so a value log is always durable
        # before the manifest record referencing it commits.
        self._writer.close()


class VLogReader:
    """Random and sequential access to one value-log file."""

    def __init__(self, disk: SimulatedDisk, name: str,
                 metrics: MetricsRegistry | None = None) -> None:
        self._disk = disk
        self._file = disk.open(name)
        self.name = name
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._read_counter = metrics.counter("vlog_reads_total")
        self._read_bytes = metrics.counter("vlog_read_bytes_total")
        self._scan_counter = metrics.counter("vlog_scans_total")

    def read_value(self, offset: int, length: int, tag: str) -> tuple[bytes, bytes]:
        """(key, value) of the ``length``-byte record at ``offset`` (one
        random read), checked against its length and CRC."""
        record = self._file.read(offset, length, tag=tag)
        self._read_counter.inc()
        self._read_bytes.inc(length)
        if len(record) < _REC_HDR.size:
            raise CorruptionError(f"{self.name}@{offset}: short value-log record")
        klen, vlen, crc = _REC_HDR.unpack_from(record, 0)
        key_end = _REC_HDR.size + klen
        if key_end + vlen != len(record):
            raise CorruptionError(f"{self.name}@{offset}: value-log record length mismatch")
        key = record[_REC_HDR.size:key_end]
        value = record[key_end:]
        if zlib.crc32(value, zlib.crc32(key)) != crc:
            raise CorruptionError(f"{self.name}@{offset}: value-log checksum mismatch")
        return key, value

    def scan(self, tag: str) -> Iterator[tuple[bytes, bytes, int, int]]:
        """All (key, value, offset, record_length), sequential read."""
        self._scan_counter.inc()
        buf = self._disk.read_full(self.name, tag=tag)
        pos = 0
        end = len(buf)
        while pos < end:
            if pos + _REC_HDR.size > end:
                raise CorruptionError(f"{self.name}: torn value-log record")
            klen, vlen, crc = _REC_HDR.unpack_from(buf, pos)
            total = _REC_HDR.size + klen + vlen
            if pos + total > end:
                raise CorruptionError(f"{self.name}: torn value-log record")
            key = buf[pos + _REC_HDR.size:pos + _REC_HDR.size + klen]
            value = buf[pos + _REC_HDR.size + klen:pos + total]
            if zlib.crc32(value, zlib.crc32(key)) != crc:
                raise CorruptionError(f"{self.name}@{pos}: value-log checksum mismatch")
            yield key, value, pos, total
            pos += total


def vlog_record_size(key: bytes, value: bytes) -> int:
    """On-disk size of one value-log record."""
    return _REC_HDR.size + len(key) + len(value)
