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

from repro.engine.errors import CorruptionError
from repro.engine.iterators import merge_sorted
from repro.engine.sstable import TableMeta, write_tables
from repro.engine.wal import recover_wal
from repro.env.storage import SimulatedDisk
from repro.core.manifest import Manifest, file_number, meta_from_json, meta_to_json
from repro.lsm.base import LSMConfig, LSMStore, Record
from repro.lsm.version import LevelState


class LevelDBStore(LSMStore):
    """Leveled LSM with Bloom filters and round-robin compaction picks."""

    name = "LevelDB"
    #: how a compaction input file is chosen on levels >= 1
    compaction_pick = "round_robin"

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: LSMConfig | None = None, prefix: str = "") -> None:
        super().__init__(disk, config, prefix)
        self._state = LevelState(self.config.max_levels)
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
            self._start_wal()

    # -- LSMStore hooks -----------------------------------------------------------

    def _log_wal(self, name: str) -> None:
        self._manifest.append({"type": "wal", "name": name})

    def _install_flushed(self, meta: TableMeta) -> None:
        self._commit({"type": "flush", "meta": meta_to_json(meta)})

    def _live_tables(self) -> list[TableMeta]:
        return self._state.all_files()

    def _tables_for_key(self, key: bytes) -> Iterator[TableMeta]:
        for level in range(self._state.max_levels):
            for meta in self._state.files_for_key(level, key):
                if self.record_accesses:
                    self.table_access_counts[meta.name] = \
                        self.table_access_counts.get(meta.name, 0) + 1
                yield meta

    def _table_sources(self, start: bytes) -> list[Iterator[Record]]:
        sources: list[Iterator[Record]] = []
        for meta in self._state.levels[0]:
            if meta.largest >= start:
                sources.append(self._reader(meta.name).entries_from(start, tag="scan"))
        for level in range(1, self._state.max_levels):
            files = [f for f in self._state.levels[level] if f.largest >= start]
            if files:
                sources.append(self._level_entries(files, tag="scan", start=start))
        return sources

    # -- compaction ------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        while True:
            if len(self._state.levels[0]) >= self.config.l0_compaction_trigger:
                self._compact(self._compact_l0)
                continue
            level = self._pick_overfull_level()
            if level is None:
                return
            self._compact(lambda lvl=level: self._compact_level(lvl))

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
        self._run_compaction(level, [picked], next_inputs, sources)
        # Only a committed compaction moves the round-robin pick on.
        self._state.compact_cursor[level] = picked.largest

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

        self._commit({
            "type": "compaction",
            "level": level,
            "removed_upper": [f.name for f in inputs],
            "removed_lower": [f.name for f in next_inputs],
            "added": [meta_to_json(m) for m in outputs],
        })

    # -- commit and recovery -----------------------------------------------------------

    def _commit(self, record: dict) -> None:
        """Append ``record`` to the manifest (the commit point) and apply it."""
        self._manifest.append(record)
        self._apply(record)

    def _apply(self, record: dict) -> None:
        """Turn one committed flush or compaction record into level state,
        deleting the tables a compaction replaced.  A flush or compaction
        runs its record through here after its commit, and recovery runs
        every replayed record through it."""
        if record["type"] == "flush":
            self._state.add_l0(meta_from_json(record["meta"]))  # newest first
            return
        level = record["level"]
        self._state.remove(level, set(record["removed_upper"]))
        self._state.remove(level + 1, set(record["removed_lower"]))
        for obj in record["added"]:
            self._state.add(level + 1, meta_from_json(obj))
        for name in record["removed_upper"] + record["removed_lower"]:
            if self._disk.exists(name):
                self._drop_file(name)

    def _recover(self) -> None:
        """Rebuild the level state by applying every manifest record, cut
        the manifest's torn tail, clean orphans, replay the WAL (re-logging
        a torn one).  Compaction records replace file sets transactionally,
        so a crash between data write and commit only leaves orphans."""
        wal_name: str | None = None
        for record in self._manifest.replay():
            if record["type"] == "wal":
                wal_name = record["name"]
            else:
                self._apply(record)
        if self._manifest.valid_end == 0 and self._disk.size(self._manifest.name):
            # A damaged first record: repairing the manifest and sweeping
            # would delete every table and the WAL.
            raise CorruptionError(f"{self._manifest.name} holds no intact record")
        # Cut a torn tail before anything appends: records after the tear
        # would be unreachable on the next replay.
        self._manifest.repair()
        self._delete_unreferenced(wal_name)
        numbers = [file_number(m.name) for m in self._state.all_files()]
        self._next_file = max(numbers, default=-1) + 1
        if (self.config.wal_enabled and wal_name is not None
                and self._disk.exists(wal_name)):
            self._next_wal = file_number(wal_name) + 1
            records, self._wal = recover_wal(
                self._disk, wal_name, self._new_wal, self._log_wal)
            for key, kind, value in records:
                self._mem._insert(key, kind, value)
        else:
            self._start_wal()

    # -- read helpers ------------------------------------------------------------------

    def _level_entries(self, files: list[TableMeta], tag: str,
                       start: bytes | None = None) -> Iterator[Record]:
        for meta in files:
            reader = (self._compaction_reader(meta.name) if tag == "compaction"
                      else self._reader(meta.name))
            if start is not None and start > meta.smallest:
                yield from reader.entries_from(start, tag=tag)
            else:
                yield from reader.entries(tag=tag)

    # -- introspection --------------------------------------------------------------------

    def level_file_counts(self) -> list[int]:
        return [len(files) for files in self._state.levels]

    def access_counts_by_level(self) -> list[tuple[int, int, int]]:
        """(level, table count, access count) per level — the Fig. 2 data."""
        out = []
        for level, files in enumerate(self._state.levels):
            accesses = sum(self.table_access_counts.get(f.name, 0) for f in files)
            out.append((level, len(files), accesses))
        return out
