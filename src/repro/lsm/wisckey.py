"""A WiscKey-like KV-separated store.

Keys and value pointers live in a leveled LSM (kept tiny), values live in a
circular value log implemented as a chain of append-only segments: new
values go to the head segment; garbage collection consumes whole segments
from the tail, querying the LSM for each record's validity — the expensive
strict-order GC that UniKV's partitioned, greedy GC is designed to beat.

The LSM WAL is disabled: as in WiscKey, the value log itself provides write
durability (each log record carries the key).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.vlog import ValuePointer, VLogReader, VLogWriter, fetch_values
from repro.env.storage import SimulatedDisk
from repro.lsm.base import KVStore, LSMConfig
from repro.lsm.leveldb import LevelDBStore
from repro.runtime.scheduler import Job, MaintenanceScheduler

_KB = 1024


@dataclass
class WiscKeyConfig(LSMConfig):
    """LSM parameters plus value-log sizing (scaled like LSMConfig)."""

    vlog_segment_size: int = 32 * _KB
    #: GC starts when the value log exceeds this many bytes
    vlog_size_limit: int = 512 * _KB
    #: ...and frees tail segments until it is below limit * this fraction
    vlog_gc_low_watermark: float = 0.75


class WiscKeyStore(KVStore):
    """KV separation with a circular value log and tail-order GC."""

    name = "WiscKey"
    #: I/O tag of the readahead runs a scan fetches its values with
    scan_value_tag = "scan_value"

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: WiscKeyConfig | None = None, prefix: str = "") -> None:
        self._disk = disk if disk is not None else SimulatedDisk()
        self.config = config if config is not None else WiscKeyConfig()
        self._prefix = prefix
        # One scheduler (and thus one backpressure state) for the value-log
        # GC and the embedded index LSM's flush/compaction jobs.
        self.scheduler = MaintenanceScheduler(
            self._disk,
            background_threads=self.config.background_threads,
            slowdown_trigger=self.config.slowdown_trigger,
            stop_trigger=self.config.stop_trigger,
            slowdown_penalty_us=self.config.slowdown_penalty_us)
        #: job, stall, cache and value-log counts (repro.obs)
        self.metrics = self.scheduler.metrics
        index_config = replace(self.config, wal_enabled=False)
        self._index = LevelDBStore(self._disk, config=index_config,
                                   prefix=f"{prefix}idx-",
                                   scheduler=self.scheduler)
        self._segments: list[int] = []  # log numbers, oldest first
        self._next_log = 0
        self._head: VLogWriter | None = None
        self._readers: dict[int, VLogReader] = {}
        self.gc_relocated_values = 0
        self._roll_head()

    # -- public API ------------------------------------------------------------

    @property
    def disk(self) -> SimulatedDisk:
        return self._disk

    def put(self, key: bytes, value: bytes) -> None:
        ptr = self._head.append(key, value)
        self._index.put(key, ptr.encode())
        if self._head.size() >= self.config.vlog_segment_size:
            self._roll_head()
        self._maybe_gc()

    def delete(self, key: bytes) -> None:
        self._index.delete(key)

    def get(self, key: bytes) -> bytes | None:
        ptr_bytes = self._index.get(key)
        if ptr_bytes is None:
            return None
        ptr = ValuePointer.decode(ptr_bytes)
        __, value = self._vlog_reader(ptr.log_number).read_value(
            ptr.offset, ptr.length, tag="lookup_value")
        return value

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        # WiscKey's range query prefetches every value at once: readahead.
        pairs = self._index.scan(start, count)
        values = fetch_values(self._vlog_reader, pairs, self.scan_value_tag)
        return [(key, value) for (key, __), value in zip(pairs, values)]

    def flush(self) -> None:
        self._index.flush()

    # -- value log management ------------------------------------------------------

    def _roll_head(self) -> None:
        if self._head is not None:
            self._head.close()
        log_number = self._next_log
        self._next_log += 1
        self._segments.append(log_number)
        self._head = VLogWriter(self._disk, self._segment_name(log_number),
                                partition=0, log_number=log_number, tag="vlog_write")

    def _segment_name(self, log_number: int) -> str:
        return f"{self._prefix}vlog-{log_number:06d}"

    def _vlog_reader(self, log_number: int) -> VLogReader:
        reader = self._readers.get(log_number)
        if reader is None:
            reader = VLogReader(self._disk, self._segment_name(log_number),
                                metrics=self.metrics)
            self._readers[log_number] = reader
        return reader

    def vlog_bytes(self) -> int:
        return sum(self._disk.size(self._segment_name(n)) for n in self._segments)

    # -- garbage collection ----------------------------------------------------------

    def _maybe_gc(self) -> None:
        if self.vlog_bytes() < self.config.vlog_size_limit:
            return
        low = self.config.vlog_size_limit * self.config.vlog_gc_low_watermark
        # Bound one GC round to a single lap of the log: if the data is
        # almost all live, relocations keep the log near its limit and an
        # unbounded loop would spin.
        budget = len(self._segments)
        while budget > 0:
            job = self.scheduler.submit(Job(
                kind="gc", tag="gc", priority=2,
                trigger=lambda: (self.vlog_bytes() > low
                                 and len(self._segments) > 1),
                fn=self._gc_tail_segment))
            if not job.ran:
                break
            budget -= 1

    def _gc_tail_segment(self) -> None:
        """WiscKey GC: free the oldest segment, relocating its live values.

        Validity is established by querying the LSM for each record — the
        per-record index lookups the paper identifies as the dominant GC
        cost of strict-order KV separation.
        """
        tail = self._segments.pop(0)
        reader = self._vlog_reader(tail)
        for key, value, offset, length in reader.scan(tag="gc"):
            current = self._index.get(key, tag="gc_lookup")
            if current is None:
                continue
            ptr = ValuePointer.decode(current)
            if ptr.log_number != tail or ptr.offset != offset:
                continue  # superseded by a newer write
            new_ptr = self._head.append(key, value)
            self._index.put(key, new_ptr.encode())
            self.gc_relocated_values += 1
            if self._head.size() >= self.config.vlog_segment_size:
                self._roll_head()
        self._readers.pop(tail, None)
        self._disk.delete(self._segment_name(tail))

    # -- introspection ------------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        return self._index.index_memory_bytes()

    def level_file_counts(self) -> list[int]:
        return self._index.level_file_counts()
