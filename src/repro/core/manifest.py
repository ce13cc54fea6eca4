"""Partition/metadata manifest.

An append-only log of JSON records describing every atomic metadata
transition: partition creation, flushes, merges, scan-merges, GC commits,
splits, index checkpoints and WAL rotations.  Exactly the paper's scheme —
"metadata about partitions is persisted in an on-disk manifest, protected
like a WAL": each record is one payload in the WAL's CRC-checked frame,
written by :class:`~repro.engine.wal.WalWriter` and read back by
:func:`~repro.engine.wal.read_records`.  UniKV's ``MANIFEST`` and the
LevelDB family's ``LSM-MANIFEST`` are both this class.

A state change becomes durable when its single commit record is appended;
recovery replays the manifest to rebuild the store and deletes any data
files that were written but never committed (a crash between data write and
commit leaves only harmless orphans).
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.engine.errors import CorruptionError
from repro.engine.sstable import TableMeta
from repro.engine.wal import WalWriter, read_records
from repro.env.storage import SimulatedDisk

MANIFEST_NAME = "MANIFEST"


def file_number(name: str) -> int:
    """The number a table, log, checkpoint or WAL name ends in."""
    return int(name.rsplit("-", 1)[1])


def meta_to_json(meta: TableMeta) -> dict:
    return {
        "name": meta.name,
        "smallest": meta.smallest.hex(),
        "largest": meta.largest.hex(),
        "num_entries": meta.num_entries,
        "file_size": meta.file_size,
    }


def meta_from_json(obj: dict) -> TableMeta:
    return TableMeta(
        name=obj["name"],
        smallest=bytes.fromhex(obj["smallest"]),
        largest=bytes.fromhex(obj["largest"]),
        num_entries=obj["num_entries"],
        file_size=obj["file_size"],
    )


class Manifest:
    """Append-only record log holding the store's durable metadata."""

    def __init__(self, disk: SimulatedDisk, name: str = MANIFEST_NAME,
                 create: bool = True) -> None:
        self._disk = disk
        self.name = name
        if create and not disk.exists(name):
            disk.create(name).close()
        self._writer = WalWriter(disk, name, tag="manifest", append=True)
        #: byte offset just past the last valid record seen by replay()
        self.valid_end = 0

    def append(self, record: dict) -> None:
        """Durably append one metadata record (this is the commit point)."""
        self._writer.append_record(json.dumps(record, separators=(",", ":")).encode())

    def replay(self) -> Iterator[dict]:
        """All committed records, oldest first; stops at a torn tail.

        Tracks :attr:`valid_end` — the offset just past the last intact
        record — so :meth:`repair` can truncate a torn tail before new
        records are appended (appends after garbage would be unreachable:
        replay stops at the tear).
        """
        buf = self._disk.read_full(self.name, tag="manifest_replay")
        payloads, self.valid_end = read_records(buf)
        for payload in payloads:
            try:
                yield json.loads(payload.decode())
            except ValueError as exc:  # pragma: no cover - crc makes this unlikely
                raise CorruptionError(f"manifest record undecodable: {exc}") from exc

    def repair(self) -> bool:
        """Drop a torn tail so appends extend the *valid* log; True if cut.

        Must run after :meth:`replay` has been fully consumed.  The rewrite
        is in-place and therefore not itself crash-atomic; the simulation
        harness never injects a crash during recovery (a CURRENT-pointer
        scheme would be needed to close that window).
        """
        size = self._disk.size(self.name)
        if self.valid_end >= size:
            return False
        buf = self._disk.read_full(self.name, tag="manifest_repair")
        writer = self._disk.create(self.name)
        if self.valid_end:
            writer.append(buf[:self.valid_end], tag="manifest")
        writer.close()
        self._writer = WalWriter(self._disk, self.name, tag="manifest", append=True)
        return True
