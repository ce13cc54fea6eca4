"""Bounded table cache (LevelDB's TableCache, scaled).

Real engines keep a limited number of table files "open" (footer, index
block, Bloom filter parsed and resident); probing a table that fell out of
the cache pays the metadata reads again.  The LSM baselines use it that
way, on demand, with LevelDB's ``max_open_files`` scaled to 16 tables.
This is a large part of real multi-level read amplification — each level
probed on a lookup may need a table-cache fill — and therefore part of
what UniKV's single-table lookups save.

UniKV sizes its cache to hold every live table, and each job that writes
a table (flush, scan-merge, merge, GC, split) opens it here before its
commit, as LevelDB's verify-on-build does; only tables found on disk at
recovery are opened on first use.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.engine.block_cache import BlockCache
from repro.engine.sstable import SSTableReader
from repro.env.storage import SimulatedDisk
from repro.obs import MetricsRegistry


class TableCache:
    """LRU of open :class:`SSTableReader` handles, bounded by table count."""

    def __init__(self, disk: SimulatedDisk, capacity: int = 16,
                 block_cache: BlockCache | None = None,
                 open_tag: str = "table_open",
                 metrics: MetricsRegistry | None = None) -> None:
        self._disk = disk
        self.capacity = max(1, capacity)
        self._block_cache = block_cache
        self._open_tag = open_tag
        self._lru: OrderedDict[str, SSTableReader] = OrderedDict()
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._hit_counter = metrics.counter("table_cache_hits_total")
        self._miss_counter = metrics.counter("table_cache_misses_total")

    def get(self, name: str, open_pattern: str = "rand") -> SSTableReader:
        """Fetch (opening if needed) one table's reader.

        ``open_pattern="seq"`` marks the metadata reads as part of a
        streaming pass (compaction/merge/GC inputs), which real systems
        absorb into the sequential scan rather than paying a seek.
        """
        reader = self._lru.get(name)
        if reader is not None:
            self._lru.move_to_end(name)
            self._hit_counter.inc()
            return reader
        self._miss_counter.inc()
        reader = SSTableReader(self._disk, name, cache=self._block_cache,
                               open_tag=self._open_tag,
                               open_pattern=open_pattern)
        self._lru[name] = reader
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return reader

    def open_readers(self):
        return list(self._lru.values())

    def metadata_bytes(self) -> int:
        """Total resident metadata bytes across the open readers."""
        return sum(reader.metadata_bytes() for reader in self._lru.values())

    def evict(self, name: str) -> None:
        self._lru.pop(name, None)

    def clear(self) -> None:
        """Release every open reader (store shutdown)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)
