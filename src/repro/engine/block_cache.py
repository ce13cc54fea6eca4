"""LRU cache for decoded data blocks.

Shared by all table readers of one store.  A hit avoids the device read
entirely, so caching behaviour shows up in the modelled throughput exactly as
it does in the paper's page-cache / block-cache discussion.

What goes in is the reader's choice (``SSTableReader._read_block``): only
blocks read at random (point lookups, a scan's seek block) are inserted.
Streamed blocks are looked up but never inserted, so a merge or a long scan
cannot evict the blocks that cost a random read to fetch again.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.engine.block import Block
from repro.obs import MetricsRegistry


class BlockCache:
    """Bounded (by decoded bytes) LRU map from (file, offset) to Block."""

    def __init__(self, capacity_bytes: int = 8 * 1024 * 1024,
                 metrics: MetricsRegistry | None = None) -> None:
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[str, int], tuple[Block, int]] = OrderedDict()
        self._used = 0
        # Hit/miss counters live in the owner's registry (repro.obs), bound
        # once so the hot path pays one attribute access.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._hit_counter = metrics.counter("block_cache_hits_total")
        self._miss_counter = metrics.counter("block_cache_misses_total")

    def get(self, file_name: str, offset: int) -> Block | None:
        entry = self._entries.get((file_name, offset))
        if entry is None:
            self._miss_counter.inc()
            return None
        self._entries.move_to_end((file_name, offset))
        self._hit_counter.inc()
        return entry[0]

    def put(self, file_name: str, offset: int, block: Block) -> None:
        key = (file_name, offset)
        size = block.nbytes
        if size > self.capacity_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old[1]
        self._entries[key] = (block, size)
        self._used += size
        while self._used > self.capacity_bytes and self._entries:
            __, (___, evicted_size) = self._entries.popitem(last=False)
            self._used -= evicted_size

    def evict_file(self, file_name: str) -> None:
        """Drop all cached blocks of a deleted file."""
        stale = [k for k in self._entries if k[0] == file_name]
        for key in stale:
            __, size = self._entries.pop(key)
            self._used -= size

    def __len__(self) -> int:
        return len(self._entries)
