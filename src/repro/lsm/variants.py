"""RocksDB- and HyperLevelDB-like variants of the leveled LSM.

The paper compares against both.  Structurally they are leveled LSMs; the
behaviours that drive their measured differences are captured as
configuration and policy deltas:

* **RocksDB** — larger write buffer, multi-threaded compaction.  The extra
  threads do not change *what* I/O happens, only how much of it overlaps;
  the store's disk therefore prices its ``compaction`` I/O with a
  parallelism factor (:attr:`RocksDBStore.compaction_parallelism`).
* **HyperLevelDB** — delays L0 compaction (higher trigger) and picks the
  compaction input with the least next-level overlap, reducing write
  amplification at some read cost.
"""

from __future__ import annotations

from dataclasses import replace

from repro.env.storage import SimulatedDisk
from repro.lsm.base import LSMConfig
from repro.lsm.leveldb import LevelDBStore


class RocksDBStore(LevelDBStore):
    """Leveled LSM tuned like RocksDB."""

    name = "RocksDB"
    #: in synchronous scheduler mode (background_threads=0) the disk
    #: divides this store's compaction time by this factor
    #: (multi-threaded compaction overlaps device time only partially — a
    #: load saturates sequential bandwidth regardless of thread count).
    #: With background_threads >= 1 the maintenance scheduler models the
    #: overlap explicitly and this fitted divisor is not applied.
    compaction_parallelism = 2.0

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: LSMConfig | None = None, prefix: str = "") -> None:
        base = config if config is not None else LSMConfig()
        # 2x write buffer / larger tables: RocksDB's defaults relative to
        # LevelDB's, capped so the buffer stays a tiny fraction of the
        # scaled datasets (as it is of the paper's 100 GB).
        tuned = replace(
            base,
            memtable_size=base.memtable_size * 2,
            sstable_size=base.sstable_size * 2,
        )
        disk = disk if disk is not None else SimulatedDisk()
        if tuned.background_threads <= 0:
            disk.stats.divisors["compaction"] = self.compaction_parallelism
        super().__init__(disk=disk, config=tuned, prefix=prefix)


class HyperLevelDBStore(LevelDBStore):
    """Leveled LSM with HyperLevelDB's lazy, overlap-minimizing compaction."""

    name = "HyperLevelDB"
    compaction_pick = "min_overlap"

    def __init__(self, disk: SimulatedDisk | None = None,
                 config: LSMConfig | None = None, prefix: str = "") -> None:
        base = config if config is not None else LSMConfig()
        tuned = replace(
            base,
            l0_compaction_trigger=base.l0_compaction_trigger * 2,
        )
        super().__init__(disk=disk, config=tuned, prefix=prefix)
