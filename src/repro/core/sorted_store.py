"""SortedStore: the cold, fully-sorted, KV-separated second layer.

One partition's SortedStore is a single sorted run of SSTables holding only
keys and :class:`~repro.engine.vlog.ValuePointer` records; values live in
append-only value-log files.  Because the run is fully sorted and its
boundary keys are in memory, a point lookup touches exactly one SSTable
(even for absent keys — the paper's replacement for Bloom filters), plus one
value-log read on a hit.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterator

from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_VALUE, KIND_VPTR
from repro.engine.sstable import TableMeta
from repro.engine.vlog import POINTER
from repro.core.context import StoreContext

Record = tuple[bytes, int, bytes]


class SortedStore:
    """Sorted, non-overlapping run of key+pointer tables for one partition."""

    def __init__(self, ctx: StoreContext, partition_id: int) -> None:
        self._ctx = ctx
        self.partition_id = partition_id
        self.tables: list[TableMeta] = []  # sorted by smallest, disjoint
        #: ``smallest`` of each table, for the in-memory binary searches
        self._smallest: list[bytes] = []
        #: bytes of live value-log records owned by this partition's keys
        self.live_value_bytes = 0

    # -- structure ------------------------------------------------------------------

    def replace_tables(self, tables: list[TableMeta]) -> None:
        self.tables = sorted(tables, key=lambda m: m.smallest)
        self._smallest = [m.smallest for m in self.tables]
        self._check_invariants()

    def _check_invariants(self) -> None:
        for a, b in zip(self.tables, self.tables[1:]):
            if a.largest >= b.smallest:
                raise CorruptionError(
                    f"SortedStore run overlap: {a.name} .. {b.name}")

    # -- reads -----------------------------------------------------------------------

    def _table_for_key(self, key: bytes) -> TableMeta | None:
        if not self.tables:
            return None
        i = bisect_left(self._smallest, key)
        if i < len(self.tables) and self.tables[i].smallest == key:
            return self.tables[i]
        if i == 0:
            return None
        meta = self.tables[i - 1]
        return meta if meta.largest >= key else None

    def get(self, key: bytes) -> bytes | None:
        """Resolve ``key`` to its value via pointer, or None.

        Costs at most one SSTable block read (the binary search over
        boundary keys is in memory) plus one value-log read.
        """
        meta = self._table_for_key(key)
        if meta is None:
            return None
        found = self._ctx.table_reader(meta.name).get(key, tag="lookup")
        if found is None:
            return None
        kind, payload = found
        if kind == KIND_VALUE:
            # Selective KV separation keeps small values inline.
            return payload
        if kind != KIND_VPTR:
            raise CorruptionError(f"SortedStore record of kind {kind} for {key!r}")
        return self.resolve_pointer(key, payload, tag="lookup_value")

    def resolve_pointer(self, key: bytes, ptr_bytes: bytes, tag: str) -> bytes:
        """The value a pointer record of ``key`` points at (one value-log
        read); the value log must hold it under ``key``."""
        if len(ptr_bytes) != POINTER.size:
            raise CorruptionError("bad value-pointer size")
        __, log_number, offset, length = POINTER.unpack(ptr_bytes)
        stored_key, value = self._ctx.log_reader(log_number).read_value(
            offset, length, tag=tag)
        if stored_key != key:
            raise CorruptionError(
                f"value-log key mismatch: wanted {key!r}, found {stored_key!r}")
        return value

    # -- iteration ---------------------------------------------------------------------

    def entries_from(self, start: bytes, tag: str = "scan") -> Iterator[Record]:
        """Records with key >= start, sorted: ``(key, KIND_VPTR, pointer
        bytes)``, and with ``inline_value_threshold > 0`` also
        ``(key, KIND_VALUE, value)`` for values kept inline."""
        return chain.from_iterable(self._tables_from(start, tag))

    def _tables_from(self, start: bytes, tag: str) -> Iterator[Iterator[Record]]:
        # One table at a time: a table is opened only once the scan
        # reaches it.
        if not self.tables:
            return
        i = max(0, bisect_left(self._smallest, start) - 1) if start else 0
        for meta in self.tables[i:]:
            if meta.largest < start:
                continue
            reader = self._ctx.table_reader(meta.name)
            if start > meta.smallest:
                yield reader.entries_from(start, tag=tag)
            else:
                yield reader.entries(tag=tag)

    def all_entries(self, tag: str) -> Iterator[Record]:
        """Full sequential pass over the run (merge/GC/split input)."""
        for meta in self.tables:
            reader = self._ctx.table_reader(meta.name, streaming=True)
            yield from reader.entries(tag=tag)

    # -- introspection ------------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def total_key_bytes(self) -> int:
        return sum(m.file_size for m in self.tables)

    def num_entries(self) -> int:
        return sum(m.num_entries for m in self.tables)
