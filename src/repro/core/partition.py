"""Partition: one key range with its own UnsortedStore, SortedStore and logs.

Dynamic range partitioning maps disjoint key ranges to independently managed
partitions; each holds the two-layer structure plus the set of value-log
files its SortedStore pointers reference.  Operations between partitions are
independent — the property the paper's flexible GC and scale-out design rely
on.
"""

from __future__ import annotations

from repro.engine.keys import KIND_TOMBSTONE
from repro.engine.memtable import MemTable
from repro.engine.wal import WalWriter
from repro.core.context import StoreContext
from repro.core.sorted_store import SortedStore
from repro.core.unsorted_store import UnsortedStore


class Partition:
    """State of one key range: [lower, next partition's lower).

    Each partition owns its whole write path — memtable, WAL, UnsortedStore,
    SortedStore and value-log references — so partitions operate fully
    independently (the paper's scale-out property) and flushed tables are
    always memtable-sized regardless of how many partitions exist.
    """

    def __init__(self, ctx: StoreContext, partition_id: int, lower: bytes) -> None:
        self._ctx = ctx
        self.id = partition_id
        self.lower = lower
        self.mem = MemTable(seed=ctx.config.seed)
        self.wal: WalWriter | None = None
        self.unsorted = UnsortedStore(ctx, partition_id)
        self.sorted = SortedStore(ctx, partition_id)
        #: value-log numbers this partition's pointers may reference
        self.log_numbers: set[int] = set()

    # -- reads ---------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Differentiated lookup: memtable, then the hash-indexed
        UnsortedStore, then the fully-sorted SortedStore."""
        return self.get_with_path(key)[0]

    def get_with_path(self, key: bytes) -> tuple[bytes | None, str]:
        """(value, path) — which layer answered the lookup.

        ``path`` is ``"memtable"``, ``"unsorted"`` (hash-index hit, the
        hot inline-value path), ``"sorted"`` (KV-separated cold path) or
        ``"miss"``; the store splits its latency histograms by it.
        """
        hit = self.mem.get(key)
        if hit is not None:
            kind, value = hit
            return (None if kind == KIND_TOMBSTONE else value), "memtable"
        hit = self.unsorted.get(key)
        if hit is not None:
            kind, value = hit
            return (None if kind == KIND_TOMBSTONE else value), "unsorted"
        value = self.sorted.get(key)
        return value, ("sorted" if value is not None else "miss")

    # -- log references ----------------------------------------------------------------

    def add_log(self, log_number: int) -> None:
        self.log_numbers.add(log_number)
        self._ctx.add_log_ref(log_number, self.id)

    def release_log(self, log_number: int) -> None:
        self.log_numbers.discard(log_number)
        self._ctx.drop_log_ref(log_number, self.id)

    # -- sizing / triggers ---------------------------------------------------------------

    def referenced_log_bytes(self) -> int:
        disk = self._ctx.disk
        total = 0
        for n in self.log_numbers:
            name = self._ctx.log_name(n)
            if disk.exists(name):
                total += disk.size(name)
        return total

    def data_bytes(self) -> int:
        """Partition size used for the split trigger."""
        return (self.mem.approximate_size
                + self.unsorted.total_bytes()
                + self.sorted.total_key_bytes()
                + self.sorted.live_value_bytes)

    def needs_merge(self) -> bool:
        return self.unsorted.total_bytes() >= self._ctx.config.unsorted_limit_bytes

    def needs_gc(self) -> bool:
        """GC when the logs are big and enough of them is garbage.

        "Garbage" includes values that now belong to a sibling partition
        after a range split — rewriting drops the shared-log references,
        which is exactly the paper's lazy value split.
        """
        cfg = self._ctx.config
        total = self.referenced_log_bytes()
        if total < cfg.vlog_gc_limit:
            return False
        garbage = total - self.sorted.live_value_bytes
        return garbage / total >= cfg.gc_min_garbage_ratio if total else False

    def needs_split(self) -> bool:
        return self.data_bytes() >= self._ctx.config.partition_size_limit

    # -- introspection ---------------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "id": self.id,
            "lower": self.lower.hex(),
            "unsorted_tables": self.unsorted.num_tables,
            "sorted_tables": self.sorted.num_tables,
            "logs": sorted(self.log_numbers),
            "data_bytes": self.data_bytes(),
            "index_entries": self.unsorted.index.num_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition(id={self.id}, lower={self.lower!r})"
