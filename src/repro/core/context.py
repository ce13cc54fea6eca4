"""Shared runtime context for one UniKV store instance.

Holds the pieces every component needs — disk, config, manifest, file-number
allocators, the shared-value-log reference registry (for lazy split), the
block cache, the metrics registry, and the crash-injection hook.
"""

from __future__ import annotations

from repro.engine.block_cache import BlockCache
from repro.engine.errors import CorruptionError
from repro.engine.sstable import SSTableBuilder, SSTableReader, TableMeta
from repro.engine.table_cache import TableCache
from repro.engine.vlog import VLogReader
from repro.core.config import UniKVConfig
from repro.core.manifest import Manifest
from repro.env.storage import SimulatedDisk
from repro.obs import MetricsRegistry
from repro.runtime.scheduler import MaintenanceScheduler


class StoreContext:
    """Per-store shared services and allocators."""

    def __init__(self, disk: SimulatedDisk, config: UniKVConfig,
                 manifest: Manifest) -> None:
        self.disk = disk
        self.config = config
        self.manifest = manifest
        #: every count the store keeps (repro.obs); never performs I/O
        self.metrics = MetricsRegistry()
        #: ``unikv_op_seconds`` by op, and a GET's by the path that answered
        #: it (handles bound once; series appear on first use)
        self.op_seconds = self.metrics.histogram_family("unikv_op_seconds", "op")
        self.get_seconds = self.metrics.histogram_family(
            "unikv_op_seconds", "path", op="get")
        self.cache = BlockCache(config.block_cache_bytes, metrics=self.metrics)
        self.next_table = 0
        self.next_log = 0
        self.next_partition = 0
        # value-log number -> set of partition ids still referencing it;
        # a log file is deleted once its last reference is dropped (this is
        # what makes the paper's lazy value split after partitioning safe).
        self.log_refs: dict[int, set[int]] = {}
        self._tables = TableCache(disk, config.table_cache_size,
                                  block_cache=self.cache, metrics=self.metrics)
        self._log_readers: dict[int, VLogReader] = {}
        #: test hook: called with a point name at each crash-injection site
        self.crash_hook = None
        #: maintenance jobs (flush/merge/GC/scan-merge/split) run through here
        self.scheduler = MaintenanceScheduler(
            disk,
            background_threads=config.background_threads,
            slowdown_trigger=config.slowdown_trigger,
            stop_trigger=config.stop_trigger,
            slowdown_penalty_us=config.slowdown_penalty_us,
            metrics=self.metrics,
        )
        # Span timers measure on the scheduler's deterministic virtual
        # clock (modelled device seconds + stall seconds), so metric
        # snapshots are reproducible across runs and asserted exactly.
        self.metrics.clock = self.scheduler.foreground_clock

    # -- crash injection -------------------------------------------------------------

    def crash_point(self, point: str) -> None:
        """Invoke the crash hook, if any (tests raise CrashPoint here)."""
        if self.crash_hook is not None:
            self.crash_hook(point)

    # -- file naming / allocation ---------------------------------------------------------

    def alloc_table_name(self) -> str:
        name = f"sst-{self.next_table:06d}"
        self.next_table += 1
        return name

    def new_table(self, tag: str) -> SSTableBuilder:
        """A builder for a new table under the next table name, with the
        store's block layout; its writes are tagged ``tag``."""
        return SSTableBuilder(
            self.disk, self.alloc_table_name(), tag=tag,
            block_size=self.config.block_size)

    def alloc_log_number(self) -> int:
        number = self.next_log
        self.next_log += 1
        return number

    def alloc_partition_id(self) -> int:
        pid = self.next_partition
        self.next_partition += 1
        return pid

    @staticmethod
    def log_name(log_number: int) -> str:
        return f"vlog-{log_number:06d}"

    # -- readers -----------------------------------------------------------------------

    def table_reader(self, name: str, streaming: bool = False) -> SSTableReader:
        """Reader for one table.

        Every table this store writes is already resident (see
        :meth:`load_tables`), so a miss here is a table recovery found on
        disk (or one a small ``table_cache_size`` evicted): it is opened
        on first use, with ``streaming=True`` for merge/GC/split inputs
        whose metadata reads ride the sequential pass.
        """
        return self._tables.get(name, open_pattern="seq" if streaming else "rand")

    def load_tables(self, tables: list[TableMeta], log_number: int | None = None) -> None:
        """Make the tables the running job just wrote resident, before the
        job's manifest commit (LevelDB's verify-on-build).

        The metadata reads ride the job's sequential write (``seq``), and
        each open checks the table's metadata CRC, so a table that reads
        back damaged fails its job instead of being committed: the job's
        ``tables`` and its new value log are deleted (see
        :meth:`discard_outputs`) and the :class:`CorruptionError` propagates.
        """
        try:
            for meta in tables:
                self._tables.get(meta.name, open_pattern="seq")
        except CorruptionError:
            self.discard_outputs([meta.name for meta in tables], log_number)
            raise

    def discard_outputs(self, table_names: list[str], log_number: int | None) -> None:
        """Delete the tables and new value log of a job that fails before
        its manifest commit.  No manifest record names them, so otherwise
        they would stay on disk until the next reopen's orphan sweep."""
        for name in table_names:
            self.drop_table(name)
        if log_number is not None:
            name = self.log_name(log_number)
            if self.disk.exists(name):
                self.disk.delete(name)

    def log_reader(self, log_number: int) -> VLogReader:
        reader = self._log_readers.get(log_number)
        if reader is None:
            reader = VLogReader(self.disk, self.log_name(log_number),
                                metrics=self.metrics)
            self._log_readers[log_number] = reader
        return reader

    def table_metadata_bytes(self) -> int:
        """Resident metadata bytes of every open table (see TableCache)."""
        return self._tables.metadata_bytes()

    def close(self) -> None:
        """Release open handles (table-cache readers, value-log readers).

        The durable state — manifest, tables, logs, WALs — stays on disk;
        a new store over the same disk recovers from it.
        """
        self._tables.clear()
        self._log_readers.clear()

    def drop_table(self, name: str) -> None:
        self._tables.evict(name)
        self.cache.evict_file(name)
        if self.disk.exists(name):
            self.disk.delete(name)

    # -- shared-log reference counting ------------------------------------------------------

    def add_log_ref(self, log_number: int, partition_id: int) -> None:
        self.log_refs.setdefault(log_number, set()).add(partition_id)

    def drop_log_ref(self, log_number: int, partition_id: int) -> None:
        """Release one partition's reference; delete the log when orphaned."""
        refs = self.log_refs.get(log_number)
        if refs is None:
            return
        refs.discard(partition_id)
        if not refs:
            del self.log_refs[log_number]
            self._log_readers.pop(log_number, None)
            name = self.log_name(log_number)
            if self.disk.exists(name):
                self.disk.delete(name)
