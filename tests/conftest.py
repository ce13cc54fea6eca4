"""Shared fixtures and helpers for the test suite."""

import hashlib

import pytest

from repro.core import UniKVConfig
from repro.engine.sstable import SSTableBuilder, SSTableReader
from repro.env import SimulatedDisk


def tiny_unikv_config(**overrides) -> UniKVConfig:
    """A UniKV config scaled so every structural event (flush, merge,
    scan-merge, GC, split, checkpoint) occurs within a few thousand small
    writes."""
    defaults = dict(
        memtable_size=512,
        sstable_size=512,
        block_size=128,
        unsorted_limit_bytes=4096,
        vlog_gc_limit=8 * 1024,
        partition_size_limit=16 * 1024,
        scan_merge_limit=3,
        hash_buckets=2048,
        index_checkpoint_interval=4,
        block_cache_bytes=8 * 1024,
    )
    defaults.update(overrides)
    return UniKVConfig(**defaults)


def disk_digest(disk: SimulatedDisk) -> str:
    """sha256 over the name and bytes of every file on ``disk``, read from
    a clone so the pinned I/O counters stay untouched."""
    snapshot = disk.clone()
    digest = hashlib.sha256()
    for name in snapshot.list():
        data = snapshot.read_full(name, tag="digest")
        digest.update(b"%d:%s:%d:" % (len(name), name.encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def encode_block(records) -> bytes:
    """One data block holding ``records``, as :class:`SSTableBuilder`
    encodes it (the first block of a one-block table)."""
    disk = SimulatedDisk()
    builder = SSTableBuilder(disk, "block", tag="test", block_size=1 << 30)
    for key, kind, value in records:
        builder.add(key, kind, value)
    builder.finish()
    (offset, length), = SSTableReader(disk, "block")._block_locs
    return disk.read_full("block", tag="test")[offset:offset + length]


@pytest.fixture
def tiny_config():
    return tiny_unikv_config()
