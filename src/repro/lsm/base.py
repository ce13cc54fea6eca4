"""Common store interface, the LSM baselines' configuration and their
shared memtable + WAL front end."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.engine.block_cache import BlockCache
from repro.engine.errors import CorruptionError, InvalidArgument
from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.engine.memtable import MemTable
from repro.engine.sstable import SSTableBuilder, SSTableReader, TableMeta
from repro.engine.table_cache import TableCache
from repro.engine.wal import WalWriter
from repro.env.storage import ReadFault, SimulatedDisk
from repro.runtime.scheduler import Job, MaintenanceScheduler

_KB = 1024
_MB = 1024 * 1024

Record = tuple[bytes, int, bytes]

__all__ = ["KVStore", "LSMConfig", "LSMStore", "refuse_reopen"]


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


def refuse_reopen(disk: SimulatedDisk, engine: str, prefixes: Iterable[str]) -> None:
    """Raise :class:`InvalidArgument` if ``disk`` holds a file whose name
    starts with one of ``prefixes``: an engine without recovery must not
    open over its own files, where it would read them as empty or
    truncate them."""
    for prefix in prefixes:
        found = disk.list(prefix)
        if found:
            raise InvalidArgument(
                f"{engine} cannot recover, and the disk already holds {found[0]}")


class LSMStore(KVStore):
    """Memtable + WAL front end shared by the LSM baselines.

    Writes go to the WAL and the memtable; a full memtable is flushed to
    one table, and reads merge the memtable with the tables.  A subclass
    decides only where tables live and how they are compacted, through
    five hooks:

    * :meth:`_install_flushed` places a freshly flushed table;
    * :meth:`_live_tables` lists every table the store's structure names;
    * :meth:`_tables_for_key` yields the tables a point lookup probes,
      newest first;
    * :meth:`_table_sources` returns the sorted table iterators a scan
      merges, newest first;
    * :meth:`_maybe_compact` submits the compactions a flush triggers,
      each through :meth:`_compact`.

    :meth:`_log_wal` is told each new WAL's name (the LevelDB family logs
    it in its manifest; engines without recovery ignore it).
    """

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: LSMConfig | None = None, prefix: str = "") -> None:
        self._disk = disk if disk is not None else SimulatedDisk()
        self.config = config if config is not None else LSMConfig()
        self._prefix = prefix
        self.scheduler = MaintenanceScheduler(
            self._disk,
            background_threads=self.config.background_threads,
            slowdown_trigger=self.config.slowdown_trigger,
            stop_trigger=self.config.stop_trigger,
            slowdown_penalty_us=self.config.slowdown_penalty_us)
        #: job, stall and cache counts (repro.obs), shared with the scheduler
        self.metrics = self.scheduler.metrics
        self._cache = BlockCache(self.config.block_cache_bytes, metrics=self.metrics)
        self._tables = TableCache(self._disk, self.config.table_cache_size,
                                  block_cache=self._cache, metrics=self.metrics)
        self._mem = MemTable(seed=self.config.seed)
        self._wal: WalWriter | None = None
        self._next_file = 0
        self._next_wal = 0

    # -- hooks --------------------------------------------------------------------------

    @abc.abstractmethod
    def _install_flushed(self, meta: TableMeta) -> None:
        """Place the table a memtable flush just wrote."""

    @abc.abstractmethod
    def _live_tables(self) -> list[TableMeta]:
        """Every table the store's structure names."""

    @abc.abstractmethod
    def _tables_for_key(self, key: bytes) -> Iterator[TableMeta]:
        """The tables that may hold ``key``, in the order a lookup probes them."""

    @abc.abstractmethod
    def _table_sources(self, start: bytes) -> list[Iterator[Record]]:
        """Sorted iterators from ``start`` over every table, newest first."""

    @abc.abstractmethod
    def _maybe_compact(self) -> None:
        """Submit the compactions the table layout now calls for."""

    def _log_wal(self, name: str) -> None:
        """Record that WAL ``name`` is now the live one (default: nothing)."""

    # -- public API -----------------------------------------------------------------------

    @property
    def disk(self) -> SimulatedDisk:
        return self._disk

    def put(self, key: bytes, value: bytes) -> None:
        if self._wal is not None:
            self._wal.append(key, KIND_VALUE, value)
        self._mem.put(key, value)
        self._maybe_flush()

    def delete(self, key: bytes) -> None:
        if self._wal is not None:
            self._wal.append(key, KIND_TOMBSTONE, b"")
        self._mem.delete(key)
        self._maybe_flush()

    def write_batch(self, ops: list[tuple]) -> None:
        """Atomic batch: one WAL record covers every op (as in LevelDB's
        WriteBatch) — after a crash either all of the batch's entries replay
        or none do."""
        entries = []
        for op in ops:
            if op[0] == "put":
                entries.append((op[1], KIND_VALUE, op[2]))
            elif op[0] == "delete":
                entries.append((op[1], KIND_TOMBSTONE, b""))
            else:
                raise ValueError(f"unknown batch op {op[0]!r}")
        if self._wal is not None:
            self._wal.append_batch(entries)
        for key, kind, value in entries:
            if kind == KIND_VALUE:
                self._mem.put(key, value)
            else:
                self._mem.delete(key)
        self._maybe_flush()

    def get(self, key: bytes, tag: str = "lookup") -> bytes | None:
        hit = self._mem.get(key)
        if hit is None:
            for meta in self._tables_for_key(key):
                hit = self._reader(meta.name).get(key, tag=tag)
                if hit is not None:
                    break
            else:
                return None
        kind, value = hit
        return None if kind == KIND_TOMBSTONE else value

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        out: list[tuple[bytes, bytes]] = []
        if count <= 0:
            return out
        sources = [self._mem.entries_from(start), *self._table_sources(start)]
        for key, kind, value in merge_sorted(sources):
            if kind == KIND_TOMBSTONE:
                continue
            out.append((key, value))
            if len(out) >= count:
                break
        return out

    def flush(self) -> None:
        self.scheduler.submit(Job(
            kind="flush", trigger=lambda: bool(self._mem),
            fn=self._flush_memtable))

    # -- write path -----------------------------------------------------------------------

    def _maybe_flush(self) -> None:
        self.scheduler.submit(Job(
            kind="flush",
            trigger=lambda: self._mem.approximate_size >= self.config.memtable_size,
            fn=self._flush_memtable))

    def _flush_memtable(self) -> None:
        if not self._mem:
            return
        builder = self._new_builder(tag="flush")
        for key, kind, value in self._mem.entries():
            builder.add(key, kind, value)
        self._install_flushed(builder.finish())
        if self._wal is not None:
            old_wal = self._wal
            self._start_wal()
            old_wal.close()
            self._disk.delete(old_wal.name)
        self._mem = MemTable(seed=self.config.seed)
        self._maybe_compact()

    def _start_wal(self) -> None:
        """Open the next WAL (if logging is on) and log its name."""
        self._wal = self._new_wal()
        if self._wal is not None:
            self._log_wal(self._wal.name)

    def _new_wal(self) -> WalWriter | None:
        if not self.config.wal_enabled:
            return None
        name = f"{self._prefix}wal-{self._next_wal:06d}"
        self._next_wal += 1
        return WalWriter(self._disk, name, tag="wal")

    def _new_builder(self, tag: str) -> SSTableBuilder:
        name = f"{self._prefix}sst-{self._next_file:06d}"
        self._next_file += 1
        return SSTableBuilder(
            self._disk, name, tag=tag,
            block_size=self.config.block_size,
            bloom_bits_per_key=self.config.bloom_bits_per_key,
        )

    # -- compaction jobs ------------------------------------------------------------------

    def _compact(self, fn, trigger=None) -> None:
        """Run one compaction job.  One that fails on damaged input leaves
        tables no live structure names: the sweep recovery runs deletes
        them before the error propagates (LevelDB's
        ``DeleteObsoleteFiles``)."""
        try:
            self.scheduler.submit(Job(kind="compaction", trigger=trigger, fn=fn))
        except (CorruptionError, ReadFault):
            self._delete_unreferenced(None if self._wal is None else self._wal.name)
            raise

    def _delete_unreferenced(self, wal_name: str | None) -> None:
        """Delete every table and WAL of this store that neither
        :meth:`_live_tables` nor ``wal_name`` (the live WAL) names."""
        live = {wal_name, *(m.name for m in self._live_tables())}
        for name in self._disk.list(self._prefix):
            if name not in live and name.startswith(
                    (f"{self._prefix}sst-", f"{self._prefix}wal-")):
                self._drop_file(name)

    # -- table helpers --------------------------------------------------------------------

    def _reader(self, name: str) -> SSTableReader:
        return self._tables.get(name)

    def _compaction_reader(self, name: str) -> SSTableReader:
        return self._tables.get(name, open_pattern="seq")

    def _drop_file(self, name: str) -> None:
        self._tables.evict(name)
        self._cache.evict_file(name)
        self._disk.delete(name)

    # -- introspection --------------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Bloom filters of the open tables are the resident index state."""
        return sum(r.bloom.size_bytes for r in self._tables.open_readers()
                   if r.bloom is not None)
