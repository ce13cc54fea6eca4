"""In-memory write buffer backed by a skiplist.

Mirrors LevelDB's MemTable: writes (and deletions, as tombstones) are
inserted into a skiplist; once :attr:`approximate_size` passes the engine's
threshold the table is frozen and flushed to an on-disk table.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.keys import ENTRY_HEADER_SIZE, KIND_TOMBSTONE, KIND_VALUE
from repro.engine.skiplist import SkipList


class MemTable:
    """Sorted buffer of (key -> kind, value) with approximate sizing.

    The skiplist maps each key to its whole ``(key, kind, value)`` record,
    so a flush or scan reads records straight off the nodes.
    """

    def __init__(self, seed: int = 0) -> None:
        self._table = SkipList(seed=seed)
        self._size = 0

    def put(self, key: bytes, value: bytes) -> None:
        self._insert(key, KIND_VALUE, value)

    def delete(self, key: bytes) -> None:
        self._insert(key, KIND_TOMBSTONE, b"")

    def _insert(self, key: bytes, kind: int, value: bytes) -> None:
        prior = self._table.insert(key, (key, kind, value))
        if prior is None:
            self._size += ENTRY_HEADER_SIZE + len(key) + len(value)
        else:
            self._size += len(value) - len(prior[2])

    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """(kind, value) for ``key``, or None if the key is absent.

        A tombstone is a positive answer (``kind == KIND_TOMBSTONE``): the
        caller must stop searching older data.
        """
        record = self._table.get(key)
        return None if record is None else (record[1], record[2])

    def entries(self) -> Iterator[tuple[bytes, int, bytes]]:
        """(key, kind, value) in ascending key order."""
        return self._table.values()

    def entries_from(self, start: bytes) -> Iterator[tuple[bytes, int, bytes]]:
        return self._table.values_from(start)

    @property
    def approximate_size(self) -> int:
        """Encoded size of the buffered entries, in bytes."""
        return self._size

    def __len__(self) -> int:
        return len(self._table)

    def __bool__(self) -> bool:
        return len(self._table) > 0
