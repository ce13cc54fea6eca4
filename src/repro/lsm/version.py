"""Level metadata for leveled LSM engines.

Tracks which table files live on which level, with the classic invariants:
level 0 files may overlap (newest first); levels >= 1 each form one sorted,
non-overlapping run.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.engine.sstable import TableMeta


class LevelState:
    """Per-level file lists plus helpers used by compaction and reads."""

    def __init__(self, max_levels: int) -> None:
        # levels[0] is newest-first; levels[i>=1] are sorted by smallest key.
        self.levels: list[list[TableMeta]] = [[] for __ in range(max_levels)]
        # round-robin compaction cursor per level (largest key compacted last)
        self.compact_cursor: list[bytes | None] = [None] * max_levels

    @property
    def max_levels(self) -> int:
        return len(self.levels)

    def add_l0(self, meta: TableMeta) -> None:
        self.levels[0].insert(0, meta)

    def add(self, level: int, meta: TableMeta) -> None:
        if level == 0:
            self.add_l0(meta)
            return
        files = self.levels[level]
        keys = [f.smallest for f in files]
        files.insert(bisect_left(keys, meta.smallest), meta)

    def remove(self, level: int, names: set[str]) -> None:
        self.levels[level] = [f for f in self.levels[level] if f.name not in names]

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.levels[level])

    def files_for_key(self, level: int, key: bytes) -> list[TableMeta]:
        """Files that may contain ``key``, in the order reads must check them."""
        if level == 0:
            return [f for f in self.levels[0] if f.smallest <= key <= f.largest]
        files = self.levels[level]
        if not files:
            return []
        keys = [f.smallest for f in files]
        i = bisect_left(keys, key)
        if i < len(files) and files[i].smallest == key:
            return [files[i]]
        if i == 0:
            return []
        candidate = files[i - 1]
        return [candidate] if candidate.largest >= key else []

    def overlapping(self, level: int, lo: bytes, hi: bytes) -> list[TableMeta]:
        """Files on ``level`` intersecting [lo, hi] (inclusive)."""
        return [f for f in self.levels[level] if f.overlaps(lo, hi)]

    def pick_compaction_file(self, level: int) -> TableMeta | None:
        """Round-robin pick: the first file past the level's cursor."""
        files = self.levels[level]
        if not files:
            return None
        cursor = self.compact_cursor[level]
        if cursor is not None:
            for f in files:
                if f.largest > cursor:
                    return f
        return files[0]

    def pick_min_overlap_file(self, level: int) -> TableMeta | None:
        """The file whose next-level overlap is smallest (HyperLevelDB-style)."""
        files = self.levels[level]
        if not files:
            return None
        if level + 1 >= self.max_levels:
            return files[0]
        def overlap_bytes(f: TableMeta) -> int:
            return sum(g.file_size for g in self.overlapping(level + 1, f.smallest, f.largest))
        return min(files, key=overlap_bytes)

    def deepest_nonempty_level(self) -> int:
        for level in range(self.max_levels - 1, -1, -1):
            if self.levels[level]:
                return level
        return 0

    def all_files(self) -> list[TableMeta]:
        return [f for files in self.levels for f in files]
