"""Baseline key-value engines.

These are the comparison systems of the paper's evaluation, each implemented
from scratch on the shared substrate so differences between them are policy
differences, not implementation accidents.  The LSM engines share one
memtable + WAL front end, :class:`LSMStore`, and differ only in where
tables go and how they are compacted:

* :class:`LevelDBStore`       — classic leveled-compaction LSM with Bloom filters.
* :class:`RocksDBStore`       — leveled LSM tuned like RocksDB (bigger write
  buffer, multi-threaded compaction accounting).
* :class:`HyperLevelDBStore`  — leveled LSM with HyperLevelDB's lazier,
  overlap-minimizing compaction picks.
* :class:`PebblesDBStore`     — fragmented LSM (guards): appends fragments to
  the next level without rewriting it, trading scan cost for write cost.
* :class:`WiscKeyStore`       — KV separation with a circular value log and
  strict-order garbage collection.
* :class:`SkimpyStashStore`   — hash-directory log store (the motivation
  experiment's pure-hash-index baseline).
"""

from repro.lsm.base import KVStore, LSMConfig, LSMStore
from repro.lsm.leveldb import LevelDBStore
from repro.lsm.pebblesdb import PebblesDBStore
from repro.lsm.skimpystash import SkimpyStashStore
from repro.lsm.variants import HyperLevelDBStore, RocksDBStore
from repro.lsm.wisckey import WiscKeyStore

__all__ = [
    "KVStore",
    "LSMConfig",
    "LSMStore",
    "LevelDBStore",
    "RocksDBStore",
    "HyperLevelDBStore",
    "PebblesDBStore",
    "WiscKeyStore",
    "SkimpyStashStore",
]
