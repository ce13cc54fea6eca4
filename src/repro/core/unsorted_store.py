"""UnsortedStore: the hot, append-only first layer of a partition.

Tables land here directly from memtable flushes, in arrival order, with
overlapping key ranges; the in-memory :class:`~repro.core.hash_index.HashIndex`
is the only index over them (no Bloom filters, no sorted structure), so a
lookup costs at most one data-block read per candidate table and writes cost
nothing beyond the flush itself.

Values are *not* separated here (partial KV separation): recently written
data is hot and kept inline for fast access.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.sstable import TableMeta
from repro.core.context import StoreContext
from repro.core.hash_index import HashIndex

Record = tuple[bytes, int, bytes]


class UnsortedStore:
    """Append-only table list + hash index for one partition."""

    def __init__(self, ctx: StoreContext, partition_id: int) -> None:
        self._ctx = ctx
        self.partition_id = partition_id
        # table id -> meta; ids grow monotonically so insertion order == age.
        self.tables: dict[int, TableMeta] = {}
        self.index = HashIndex(ctx.config.hash_buckets, ctx.config.hash_functions)
        #: flushes since the last index checkpoint (crash consistency)
        self.flushes_since_checkpoint = 0
        self._false_positives = ctx.metrics.counter("hash_false_positive_probes_total")

    # -- writes -----------------------------------------------------------------

    def index_table(self, table_id: int, keys: list[bytes]) -> None:
        """Point the hash index at ``table_id`` for each of ``keys``, the
        keys of a table a flush or scan-merge just committed."""
        insert = self.index.insert
        for key in keys:
            insert(key, table_id)

    # -- reads -------------------------------------------------------------------

    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """(kind, value) from the newest table holding ``key``, else None.

        Tombstones are returned (positive answer) — the caller must not
        fall through to the SortedStore.
        """
        for table_id in self.index.lookup(key):
            meta = self.tables.get(table_id)
            if meta is None:
                continue  # stale entry left behind by an old version
            found = self._ctx.table_reader(meta.name).get(key, tag="lookup")
            if found is not None:
                return found
            self._false_positives.inc()
        return None

    def scan_sources(self, start: bytes) -> list[Iterator[Record]]:
        """One iterator per table (tables overlap), newest first."""
        sources: list[Iterator[Record]] = []
        for table_id in sorted(self.tables, reverse=True):
            meta = self.tables[table_id]
            if meta.largest >= start:
                reader = self._ctx.table_reader(meta.name)
                sources.append(reader.entries_from(start, tag="scan"))
        return sources

    def all_entry_sources(self, tag: str) -> list[Iterator[Record]]:
        """One full-table iterator per table, newest first (merge input)."""
        return [
            self._ctx.table_reader(self.tables[tid].name,
                                   streaming=True).entries(tag=tag)
            for tid in sorted(self.tables, reverse=True)
        ]

    # -- scan optimization: size-based merge ------------------------------------------

    def needs_scan_merge(self) -> bool:
        limit = self._ctx.config.scan_merge_limit
        return limit > 0 and len(self.tables) >= limit

    def scan_merge(self) -> tuple[TableMeta, list[bytes]]:
        """Merge every table into one globally sorted table.

        Returns the new table's meta and its keys; the caller commits the
        swap to the manifest and re-indexes the keys.  Tombstones are
        preserved — they still shadow SortedStore data.
        """
        from repro.engine.iterators import merge_sorted

        builder = self._ctx.new_table("scan_merge")
        add, keys = builder.add, []
        add_key = keys.append
        for key, kind, value in merge_sorted(self.all_entry_sources(tag="scan_merge")):
            add(key, kind, value)
            add_key(key)
        meta = builder.finish()
        self._ctx.load_tables([meta])
        return meta, keys

    # -- introspection --------------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def total_bytes(self) -> int:
        return sum(m.file_size for m in self.tables.values())
