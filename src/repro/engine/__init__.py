"""Shared storage-engine substrate.

Everything in this package is engine-agnostic: the UniKV core and all the
baseline LSM engines are built from these primitives (skiplist memtable,
CRC-protected write-ahead log, block-structured SSTables, LRU block cache,
value logs, merging iterators).  This mirrors how the paper's implementation
reuses LevelDB's "mature and stable SSTable code" for both of UniKV's layers.
"""

from repro.engine.bloom import BloomFilter
from repro.engine.block_cache import BlockCache
from repro.engine.errors import (
    CorruptionError,
    CrashPoint,
    EngineError,
    InvalidArgument,
)
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE, KIND_VPTR, TOMBSTONE
from repro.engine.memtable import MemTable
from repro.engine.skiplist import SkipList
from repro.engine.sstable import SSTableBuilder, SSTableReader
from repro.engine.vlog import VLogReader, VLogWriter, unpack_pointer
from repro.engine.wal import WalReader, WalWriter

__all__ = [
    "BloomFilter",
    "BlockCache",
    "EngineError",
    "CorruptionError",
    "InvalidArgument",
    "CrashPoint",
    "KIND_VALUE",
    "KIND_TOMBSTONE",
    "KIND_VPTR",
    "TOMBSTONE",
    "MemTable",
    "SkipList",
    "SSTableBuilder",
    "SSTableReader",
    "VLogWriter",
    "VLogReader",
    "unpack_pointer",
    "WalWriter",
    "WalReader",
]
