"""The record log under the write-ahead logs and both manifests.

This module is the only one that knows the log frame::

    [crc32 of payload (4B)] [payload length (4B)] [payload]

:class:`WalWriter` frames, appends and syncs one payload per record, and
:func:`read_records` splits a log back into its intact payloads.  A WAL
payload holds **one or more** encoded (key, kind, value) entries (see
:mod:`repro.engine.keys`); multi-entry payloads are how atomic write
batches are made durable — a record is either fully intact (all entries
replay) or damaged (none of them do).  A manifest payload is one JSON
object (:mod:`repro.core.manifest`).

Reading stops at the first record that is cut short or fails its CRC, and
treats everything from there on as a torn tail: every fully-synced record
is recovered, a partially written final record is discarded.  A damaged
record *before* intact ones is treated the same way, so the records after
it are dropped too.  :func:`recover_wal` re-logs the intact records of a
torn WAL into a fresh log, so appends never land after the tear.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Iterator

from repro.engine.keys import decode_entry, encode_entry
from repro.env.storage import SequentialWriter, SimulatedDisk

_HDR = struct.Struct("<II")  # crc32, payload length

Record = tuple[bytes, int, bytes]


def read_records(buf: bytes) -> tuple[list[bytes], int]:
    """The intact payloads of a log, and the offset just past the last."""
    payloads = []
    pos = 0
    end = len(buf)
    while pos + _HDR.size <= end:
        crc, length = _HDR.unpack_from(buf, pos)
        start = pos + _HDR.size
        if start + length > end:
            break  # torn record at end of log
        payload = buf[start:start + length]
        if zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        pos = start + length
    return payloads, pos


class WalWriter:
    """Appends records to a log file, each durable before it returns."""

    def __init__(self, disk: SimulatedDisk, name: str, tag: str = "wal",
                 append: bool = False) -> None:
        if append:
            self._writer: SequentialWriter = disk.append_writer(name)
        else:
            self._writer = disk.create(name)
        self._tag = tag
        self.name = name

    def append(self, key: bytes, kind: int, value: bytes) -> None:
        self.append_record(encode_entry(key, kind, value))

    def append_batch(self, entries: list[Record]) -> None:
        """Durably append several entries as ONE record (atomic unit)."""
        if not entries:
            return
        self.append_record(b"".join(encode_entry(k, kind, v)
                                    for k, kind, v in entries))

    def append_record(self, payload: bytes) -> None:
        """Frame, append and sync one payload."""
        crc = zlib.crc32(payload)
        self._writer.append(_HDR.pack(crc, len(payload)) + payload, tag=self._tag)
        # A record is only acknowledged once it is durable (no-op on disks
        # without sync tracking).
        self._writer.sync()

    def size(self) -> int:
        return self._writer.tell()

    def close(self) -> None:
        self._writer.close()


class WalReader:
    """Replays a WAL, yielding its entries up to EOF or a torn tail."""

    def __init__(self, disk: SimulatedDisk, name: str,
                 tag: str = "wal_replay") -> None:
        buf = disk.read_full(name, tag=tag)
        self._payloads, valid_end = read_records(buf)
        self.name = name
        #: True when the log ends in a damaged record or trailing garbage.
        self.tail_corrupt = valid_end != len(buf)

    def replay(self) -> Iterator[Record]:
        """Yield (key, kind, value) entries in append order."""
        for payload in self._payloads:
            offset = 0
            while offset < len(payload):
                key, kind, value, offset = decode_entry(payload, offset)
                yield key, kind, value


def recover_wal(disk: SimulatedDisk, name: str, new_wal: Callable[[], WalWriter],
                commit: Callable[[str], None]) -> tuple[list[Record], WalWriter]:
    """Replay WAL ``name``; return its entries and the writer to append to.

    An intact log is reopened for appending.  A torn one cannot be: records
    appended past the tear would be unreachable.  Its entries are re-logged
    into ``new_wal()``, ``commit(new_name)`` makes the new log the live one,
    and only then is the old file deleted.  A crash before the commit
    leaves the old WAL authoritative (the new file is an orphan); a crash
    after it leaves the new one authoritative.
    """
    reader = WalReader(disk, name)
    records = list(reader.replay())
    if not reader.tail_corrupt:
        return records, WalWriter(disk, name, tag="wal", append=True)
    wal = new_wal()
    for key, kind, value in records:
        wal.append(key, kind, value)
    commit(wal.name)
    disk.delete(name)
    return records, wal
