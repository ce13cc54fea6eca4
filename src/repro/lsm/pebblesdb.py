"""A PebblesDB-like fragmented LSM (FLSM with guards).

PebblesDB reduces write amplification by never rewriting the next level
during compaction: a level is divided into *guards* (disjoint key ranges),
each holding several possibly-overlapping table files; compaction merges a
source's records, cuts them at guard boundaries and **appends** the fragments
to the next level's guards.  Overflowing guards cascade downwards; the
bottommost level consolidates a guard in place, splitting it into new
single-file guards as data grows.

The costs the paper cares about are preserved: lower write amplification
than leveled compaction, but reads and scans must examine every file inside
a guard (mitigated by Bloom filters for point reads, not for scans).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from repro.engine.iterators import merge_sorted
from repro.engine.sstable import SSTableBuilder, TableMeta, write_tables
from repro.env.storage import SimulatedDisk
from repro.lsm.base import LSMConfig, LSMStore, Record, refuse_reopen


class _Guard:
    """One key range of a level; files may overlap, newest first."""

    __slots__ = ("key", "files")

    def __init__(self, key: bytes) -> None:
        self.key = key
        self.files: list[TableMeta] = []

    def bytes(self) -> int:
        return sum(f.file_size for f in self.files)


class PebblesDBStore(LSMStore):
    """Fragmented LSM with guard-based append-only compaction.

    It keeps no manifest, so it cannot recover: opening it over a disk that
    already holds its tables or WAL raises
    :class:`~repro.engine.errors.InvalidArgument`.
    """

    name = "PebblesDB"
    #: a guard compacts downward once it holds more files than this
    max_files_per_guard = 4

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: LSMConfig | None = None, prefix: str = "") -> None:
        super().__init__(disk, config, prefix)
        refuse_reopen(self._disk, self.name, (f"{prefix}sst-", f"{prefix}wal-"))
        self._l0: list[TableMeta] = []  # newest first
        # levels[i] for i >= 1: guards sorted by key; first guard key is b"".
        self._levels: list[list[_Guard]] = [
            [_Guard(b"")] for __ in range(self.config.max_levels - 1)
        ]
        self._start_wal()

    # -- LSMStore hooks -------------------------------------------------------------

    def _install_flushed(self, meta: TableMeta) -> None:
        self._l0.insert(0, meta)

    def _live_tables(self) -> list[TableMeta]:
        return [*self._l0, *(meta for guards in self._levels
                             for guard in guards for meta in guard.files)]

    def _tables_for_key(self, key: bytes) -> Iterator[TableMeta]:
        for meta in self._l0:
            if meta.smallest <= key <= meta.largest:
                yield meta
        for guards in self._levels:
            for meta in guards[self._guard_index(guards, key)].files:
                if meta.smallest <= key <= meta.largest:
                    yield meta

    def _table_sources(self, start: bytes) -> list[Iterator[Record]]:
        sources: list[Iterator[Record]] = [
            self._reader(meta.name).entries_from(start, tag="scan")
            for meta in self._l0 if meta.largest >= start]
        sources.extend(self._level_scan(guards, start) for guards in self._levels)
        return sources

    def _maybe_compact(self) -> None:
        self._compact(self._compact_l0,
                      trigger=lambda: len(self._l0) >= self.config.l0_compaction_trigger)

    # -- compaction -------------------------------------------------------------------

    def _compact_l0(self) -> None:
        inputs = list(self._l0)
        sources = [self._compaction_reader(f.name).entries(tag="compaction")
                   for f in inputs]
        merged = merge_sorted(sources, drop_tombstones=self._empty_below(0))
        self._append_fragments(target_level=0, records=merged)
        self._l0 = []
        for stale in inputs:
            self._drop_file(stale.name)
        self._cascade_overflows(0)

    def _compact_guard(self, level_index: int, guard: _Guard) -> None:
        """Move one overflowing guard's data to the next level (or consolidate)."""
        inputs = list(guard.files)
        if not inputs:
            return
        sources = [self._compaction_reader(f.name).entries(tag="compaction")
                   for f in inputs]
        # The deepest level holding data acts as the bottom: overflowing
        # guards there consolidate in place and split into new guards,
        # which is how the FLSM's guard population grows with the dataset.
        last_level = (level_index == len(self._levels) - 1
                      or self._empty_below(level_index + 1))
        if last_level:
            self._consolidate_guard(level_index, guard, sources)
        else:
            merged = merge_sorted(sources, drop_tombstones=self._empty_below(level_index + 1))
            self._append_fragments(target_level=level_index + 1, records=merged)
            guard.files = []
            for stale in inputs:
                self._drop_file(stale.name)
            self._cascade_overflows(level_index + 1)

    def _consolidate_guard(self, level_index: int, guard: _Guard,
                           sources: list[Iterator[Record]]) -> None:
        """Bottom level: rewrite a guard as single-file guards (tombstones drop)."""
        outputs = write_tables(merge_sorted(sources, drop_tombstones=True),
                               lambda: self._new_builder(tag="compaction"),
                               self.config.sstable_size)
        stale = list(guard.files)
        guards = self._levels[level_index]
        slot = guards.index(guard)
        replacements: list[_Guard] = []
        for i, meta in enumerate(outputs):
            g = _Guard(guard.key if i == 0 else meta.smallest)
            g.files = [meta]
            replacements.append(g)
        if not replacements:
            replacements = [_Guard(guard.key)]
        guards[slot:slot + 1] = replacements
        for f in stale:
            self._drop_file(f.name)

    def _append_fragments(self, target_level: int, records: Iterator[Record]) -> None:
        """Cut a merged record stream at guard boundaries of ``target_level``.

        The fragments enter their guards only once the stream has ended, so
        a stream that fails on damaged input leaves the guards as they were.
        """
        guards = self._levels[target_level]
        boundaries = [g.key for g in guards[1:]]
        builder: SSTableBuilder | None = None
        guard_of_builder = 0
        fragments: list[tuple[_Guard, TableMeta]] = []

        def finish() -> None:
            nonlocal builder
            if builder is not None and builder.num_entries:
                fragments.append((guards[guard_of_builder], builder.finish()))
            builder = None

        # One fragment file per guard (cut at guard boundaries only): this is
        # what keeps FLSM write amplification low — the next level's existing
        # files are never rewritten, and each compaction adds at most one
        # file to any guard.
        for key, kind, value in records:
            gi = bisect_right(boundaries, key)
            if builder is not None and gi != guard_of_builder:
                finish()
            if builder is None:
                builder = self._new_builder(tag="compaction")
                guard_of_builder = gi
            builder.add(key, kind, value)
        finish()
        for guard, meta in fragments:
            guard.files.insert(0, meta)

    def _cascade_overflows(self, level_index: int) -> None:
        for li in range(level_index, len(self._levels)):
            for guard in list(self._levels[li]):
                self._compact(lambda lvl=li, g=guard: self._compact_guard(lvl, g),
                              trigger=lambda g=guard:
                                  len(g.files) > self.max_files_per_guard)

    def _empty_below(self, level_index: int) -> bool:
        """True when nothing lives beneath ``level_index``'s target level."""
        for guards in self._levels[level_index:]:
            if any(g.files for g in guards):
                return False
        return True

    # -- helpers ----------------------------------------------------------------------

    def _level_scan(self, guards: list[_Guard], start: bytes) -> Iterator[Record]:
        """Lazy in-order iterator over one level.

        Guards are disjoint and sorted, so merging *within* each guard and
        chaining guards in order yields the level sorted — and only the
        guard the iterator is currently inside has its files open (the real
        FLSM iterator advances guard by guard; opening every file of every
        guard up front would make short scans pay for the whole level).
        """
        first = self._guard_index(guards, start)
        for guard in guards[first:]:
            sources = [
                self._reader(meta.name).entries_from(start, tag="scan")
                for meta in guard.files if meta.largest >= start
            ]
            if not sources:
                continue
            yield from merge_sorted(sources) if len(sources) > 1 else sources[0]

    @staticmethod
    def _guard_index(guards: list[_Guard], key: bytes) -> int:
        boundaries = [g.key for g in guards[1:]]
        return bisect_right(boundaries, key)

    # -- introspection ------------------------------------------------------------------

    def level_file_counts(self) -> list[int]:
        counts = [len(self._l0)]
        counts.extend(sum(len(g.files) for g in guards) for guards in self._levels)
        return counts
