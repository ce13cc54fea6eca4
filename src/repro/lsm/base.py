"""Common store interface and leveled-LSM configuration."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from repro.env.storage import SimulatedDisk

_KB = 1024
_MB = 1024 * 1024

__all__ = ["KVStore", "LSMConfig"]


class KVStore(abc.ABC):
    """Interface every engine in this repository implements.

    Scale note: all engines run against a :class:`SimulatedDisk`; structural
    parameters (memtable size, table size, ...) default to laptop-scale
    values chosen so that scaled-down datasets traverse the same structural
    regimes (multiple levels / merges / GCs / splits) as the paper's 100 GB
    runs.
    """

    #: short engine name used in reports ("LevelDB", "UniKV", ...)
    name: str = "KVStore"

    @abc.abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one KV pair."""

    @abc.abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """The latest value for ``key``, or None if absent/deleted."""

    @abc.abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove ``key`` (tombstone semantics)."""

    @abc.abstractmethod
    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Up to ``count`` live pairs with key >= start, in key order."""

    def write_batch(self, ops: list[tuple]) -> None:
        """Apply several ops: ``("put", key, value)`` / ``("delete", key)``.

        The base implementation applies them sequentially with no extra
        guarantee; engines with a WAL override this to make the batch a
        single durable record (all-or-nothing across crashes).
        """
        for op in ops:
            if op[0] == "put":
                self.put(op[1], op[2])
            elif op[0] == "delete":
                self.delete(op[1])
            else:
                raise ValueError(f"unknown batch op {op[0]!r}")

    def flush(self) -> None:
        """Force buffered writes to the on-disk structure (default no-op)."""

    def close(self) -> None:
        """Release resources (default no-op)."""

    # -- introspection shared by the bench harness ------------------------------

    @property
    @abc.abstractmethod
    def disk(self) -> SimulatedDisk:
        """The simulated device this store writes to."""

    def index_memory_bytes(self) -> int:
        """Approximate bytes of in-memory index structures (0 by default)."""
        return 0


@dataclass
class LSMConfig:
    """Structural parameters for the leveled-LSM baselines.

    Defaults are the paper's LevelDB v1.20 parameters scaled down by ~256x
    (4 MB memtable -> 16 KB, 2 MB SSTable -> 8 KB, 10 MB L1 -> 40 KB) so the
    same level counts appear at megabyte-scale datasets.
    """

    memtable_size: int = 16 * _KB
    sstable_size: int = 8 * _KB
    block_size: int = 1 * _KB
    bloom_bits_per_key: int = 10
    l0_compaction_trigger: int = 4
    base_level_bytes: int = 20 * _KB
    level_size_multiplier: int = 10
    max_levels: int = 7
    block_cache_bytes: int = 32 * _KB
    #: open-table (metadata) cache entries (LevelDB max_open_files, scaled)
    table_cache_size: int = 16
    #: seed for the memtable skiplist (determinism)
    seed: int = 0
    #: WiscKey-style engines disable the LSM WAL (their value log is the WAL)
    wal_enabled: bool = True
    #: LevelDB-style shared-prefix key encoding inside data blocks
    block_prefix_compression: bool = False

    # -- maintenance scheduler (repro.runtime) ---------------------------------
    #: background lanes for maintenance device time; 0 = synchronous
    #: foreground maintenance (the pre-scheduler behaviour, bit-identical)
    background_threads: int = 0
    #: in-flight background jobs at which foreground writes slow down
    slowdown_trigger: int = 4
    #: in-flight background jobs at which the foreground stalls until drain
    stop_trigger: int = 8
    #: per-excess-job foreground penalty while slowed down
    slowdown_penalty_us: float = 200.0

    def level_target_bytes(self, level: int) -> int:
        """Size target of level ``level`` (level >= 1)."""
        return self.base_level_bytes * self.level_size_multiplier ** (level - 1)
