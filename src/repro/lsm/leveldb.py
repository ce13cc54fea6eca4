"""A LevelDB-like leveled-compaction LSM tree.

Implements the structure the paper's Section II describes and measures:

* memtable + WAL; flush to overlapping level-0 files,
* leveled compaction with exponentially growing level targets,
* per-table Bloom filters (with real false positives),
* point lookups that probe every L0 file then binary-search one file per
  deeper level — the multi-level read amplification UniKV removes.

The same class, parameterized, backs the RocksDB- and HyperLevelDB-like
variants (see :mod:`repro.lsm.variants`).
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.block_cache import BlockCache
from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.engine.memtable import MemTable
from repro.engine.sstable import SSTableBuilder, SSTableReader, TableMeta, write_tables
from repro.engine.table_cache import TableCache
from repro.engine.wal import WalWriter, recover_wal
from repro.env.storage import SimulatedDisk
from repro.core.manifest import Manifest, meta_from_json, meta_to_json
from repro.lsm.base import KVStore, LSMConfig
from repro.lsm.version import LevelState
from repro.runtime.scheduler import Job, MaintenanceScheduler

Record = tuple[bytes, int, bytes]


class LevelDBStore(KVStore):
    """Leveled LSM with Bloom filters and round-robin compaction picks."""

    name = "LevelDB"
    #: how a compaction input file is chosen on levels >= 1
    compaction_pick = "round_robin"

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: LSMConfig | None = None, prefix: str = "",
                 scheduler: MaintenanceScheduler | None = None) -> None:
        self._disk = disk if disk is not None else SimulatedDisk()
        self.config = config if config is not None else LSMConfig()
        self._prefix = prefix
        self._state = LevelState(self.config.max_levels)
        # A scheduler may be shared by an embedding store (WiscKey embeds a
        # LevelDBStore as its index) so one backpressure state governs both.
        self.scheduler = scheduler if scheduler is not None else \
            MaintenanceScheduler(
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
        self._next_file = 0
        self._next_wal = 0
        #: per-table access counters for the motivation experiment (E2);
        #: populated only while `record_accesses` is True
        self.record_accesses = False
        self.table_access_counts: dict[str, int] = {}
        manifest_name = f"{prefix}LSM-MANIFEST"
        if self._disk.exists(manifest_name):
            self._manifest = Manifest(self._disk, manifest_name, create=False)
            self._recover()
        else:
            self._manifest = Manifest(self._disk, manifest_name)
            self._wal = self._new_wal()
            if self._wal is not None:
                self._manifest.append({"type": "wal", "name": self._wal.name})

    # -- public API -------------------------------------------------------------

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
        if hit is not None:
            kind, value = hit
            return None if kind == KIND_TOMBSTONE else value
        for level in range(self._state.max_levels):
            for meta in self._state.files_for_key(level, key):
                if self.record_accesses:
                    self.table_access_counts[meta.name] = \
                        self.table_access_counts.get(meta.name, 0) + 1
                found = self._reader(meta.name).get(key, tag=tag)
                if found is not None:
                    kind, value = found
                    return None if kind == KIND_TOMBSTONE else value
        return None

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        out: list[tuple[bytes, bytes]] = []
        if count <= 0:
            return out
        for key, kind, value in merge_sorted(self._scan_sources(start)):
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

    # -- write path ---------------------------------------------------------------

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
        meta = builder.finish()
        self._manifest.append({"type": "flush", "meta": meta_to_json(meta)})
        self._state.add_l0(meta)
        if self._wal is not None:
            old_wal = self._wal
            self._wal = self._new_wal()
            self._manifest.append({"type": "wal", "name": self._wal.name})
            old_wal.close()
            self._disk.delete(old_wal.name)
        self._mem = MemTable(seed=self.config.seed)
        self._maybe_compact()

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
            prefix_compression=self.config.block_prefix_compression,
        )

    # -- compaction ------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        while True:
            if len(self._state.levels[0]) >= self.config.l0_compaction_trigger:
                self.scheduler.submit(Job(
                    kind="compaction",
                    fn=self._compact_l0))
                continue
            level = self._pick_overfull_level()
            if level is None:
                return
            self.scheduler.submit(Job(
                kind="compaction",
                fn=lambda lvl=level: self._compact_level(lvl)))

    def _pick_overfull_level(self) -> int | None:
        for level in range(1, self._state.max_levels - 1):
            if self._state.level_bytes(level) > self.config.level_target_bytes(level):
                return level
        return None

    def _compact_l0(self) -> None:
        inputs = list(self._state.levels[0])
        lo = min(f.smallest for f in inputs)
        hi = max(f.largest for f in inputs)
        next_inputs = self._state.overlapping(1, lo, hi)
        # L0 files may overlap: each is its own source, newest first.
        sources: list[Iterator[Record]] = [
            self._compaction_reader(f.name).entries(tag="compaction") for f in inputs
        ]
        self._run_compaction(0, inputs, next_inputs, sources)

    def _compact_level(self, level: int) -> None:
        if self.compaction_pick == "min_overlap":
            picked = self._state.pick_min_overlap_file(level)
        else:
            picked = self._state.pick_compaction_file(level)
        if picked is None:
            return
        next_inputs = self._state.overlapping(level + 1, picked.smallest, picked.largest)
        sources: list[Iterator[Record]] = [
            self._compaction_reader(picked.name).entries(tag="compaction")]
        self._state.compact_cursor[level] = picked.largest
        self._run_compaction(level, [picked], next_inputs, sources)

    def _run_compaction(self, level: int, inputs: list[TableMeta],
                        next_inputs: list[TableMeta],
                        upper_sources: list[Iterator[Record]]) -> None:
        target = level + 1
        sources = list(upper_sources)
        if next_inputs:
            sources.append(self._level_entries(next_inputs, tag="compaction"))
        # Tombstones can be dropped once nothing older can hold the key.
        at_bottom = target >= self._state.deepest_nonempty_level()

        outputs = write_tables(merge_sorted(sources, drop_tombstones=at_bottom),
                               lambda: self._new_builder(tag="compaction"),
                               self.config.sstable_size)

        self._manifest.append({
            "type": "compaction",
            "level": level,
            "removed_upper": [f.name for f in inputs],
            "removed_lower": [f.name for f in next_inputs],
            "added": [meta_to_json(m) for m in outputs],
        })
        self._state.remove(level, {f.name for f in inputs})
        self._state.remove(target, {f.name for f in next_inputs})
        for meta in outputs:
            self._state.add(target, meta)
        for stale in inputs + next_inputs:
            self._drop_file(stale.name)

    # -- recovery ----------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the level state from the manifest, cut its torn tail,
        clean orphans, replay the WAL (re-logging a torn one).  Flushed L0
        tables re-enter level 0 in flush order (newest first); compaction
        records replace file sets transactionally, so a crash between data
        write and commit only leaves orphans."""
        l0: list[TableMeta] = []   # oldest first while replaying
        deeper: dict[str, tuple[int, TableMeta]] = {}  # name -> (level, meta)
        wal_name: str | None = None
        for record in self._manifest.replay():
            rtype = record["type"]
            if rtype == "flush":
                l0.append(meta_from_json(record["meta"]))
            elif rtype == "compaction":
                removed = set(record["removed_upper"]) | set(record["removed_lower"])
                l0 = [m for m in l0 if m.name not in removed]
                for name in removed:
                    deeper.pop(name, None)
                target = record["level"] + 1
                for m in record["added"]:
                    meta = meta_from_json(m)
                    deeper[meta.name] = (target, meta)
            elif rtype == "wal":
                wal_name = record["name"]
        # Cut a torn tail before anything appends: records after the tear
        # would be unreachable on the next replay.
        self._manifest.repair()
        for meta in l0:
            self._state.add_l0(meta)  # add_l0 prepends: ends newest-first
        for level, meta in deeper.values():
            self._state.add(level, meta)
        referenced = {m.name for m in self._state.all_files()}
        referenced.add(self._manifest.name)
        if wal_name is not None:
            referenced.add(wal_name)
        for name in self._disk.list(self._prefix):
            if name not in referenced and name.startswith(
                    (f"{self._prefix}sst-", f"{self._prefix}wal-")):
                self._disk.delete(name)
        numbers = [int(m.name.rsplit("-", 1)[1]) for m in self._state.all_files()]
        self._next_file = max(numbers, default=-1) + 1
        self._wal = None
        if self.config.wal_enabled:
            if wal_name is not None and self._disk.exists(wal_name):
                self._next_wal = int(wal_name.rsplit("-", 1)[1]) + 1
                records, self._wal = recover_wal(
                    self._disk, wal_name, self._new_wal,
                    lambda name: self._manifest.append({"type": "wal", "name": name}))
                for key, kind, value in records:
                    self._mem._insert(key, kind, value)
            else:
                self._wal = self._new_wal()
                if self._wal is not None:
                    self._manifest.append({"type": "wal", "name": self._wal.name})

    # -- read helpers ------------------------------------------------------------------

    def _reader(self, name: str) -> SSTableReader:
        return self._tables.get(name)

    def _compaction_reader(self, name: str) -> SSTableReader:
        return self._tables.get(name, open_pattern="seq")

    def _drop_file(self, name: str) -> None:
        self._tables.evict(name)
        self._cache.evict_file(name)
        self._disk.delete(name)

    def _level_entries(self, files: list[TableMeta], tag: str,
                       start: bytes | None = None) -> Iterator[Record]:
        for meta in files:
            reader = (self._compaction_reader(meta.name) if tag == "compaction"
                      else self._reader(meta.name))
            if start is not None and start > meta.smallest:
                yield from reader.entries_from(start, tag=tag)
            else:
                yield from reader.entries(tag=tag)

    def _scan_sources(self, start: bytes) -> list[Iterator[Record]]:
        sources: list[Iterator[Record]] = [self._mem.entries_from(start)]
        for meta in self._state.levels[0]:
            if meta.largest >= start:
                sources.append(self._reader(meta.name).entries_from(start, tag="scan"))
        for level in range(1, self._state.max_levels):
            files = [f for f in self._state.levels[level] if f.largest >= start]
            if files:
                sources.append(self._level_entries(files, tag="scan", start=start))
        return sources

    # -- introspection --------------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Bloom filters + cached index blocks are the resident index state."""
        total = 0
        for reader in self._tables.open_readers():
            if reader.bloom is not None:
                total += reader.bloom.size_bytes
        return total

    def level_file_counts(self) -> list[int]:
        return [len(files) for files in self._state.levels]

    def access_counts_by_level(self) -> list[tuple[int, int, int]]:
        """(level, table count, access count) per level — the Fig. 2 data."""
        out = []
        for level, files in enumerate(self._state.levels):
            accesses = sum(self.table_access_counts.get(f.name, 0) for f in files)
            out.append((level, len(files), accesses))
        return out

    def total_table_bytes(self) -> int:
        return self._state.total_bytes()
