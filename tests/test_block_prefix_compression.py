"""Tests for LevelDB-style block prefix compression (opt-in)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LevelDBStore, UniKV
from repro.engine.block import Block, RESTART_INTERVAL
from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_VALUE
from repro.engine.sstable import SSTableBuilder, SSTableReader
from repro.env import SimulatedDisk
from tests.conftest import encode_block, tiny_unikv_config
from tests.test_lsm_leveldb import small_config


def build_block(items, prefix=True):
    return encode_block(items, prefix_compression=prefix)


def test_roundtrip_with_shared_prefixes():
    items = [(f"user:profile:{i:06d}".encode(), KIND_VALUE, f"v{i}".encode())
             for i in range(50)]
    block = Block.decode(build_block(items))
    assert list(block.entries()) == items


def test_compression_shrinks_common_prefix_keys():
    items = [(f"very/long/common/prefix/{i:06d}".encode(), KIND_VALUE, b"v")
             for i in range(64)]
    compressed = build_block(items, prefix=True)
    plain = build_block(items, prefix=False)
    assert len(compressed) < len(plain) * 0.6


def test_no_shared_prefix_still_roundtrips():
    items = [(bytes([c]), KIND_VALUE, b"x") for c in b"abcdef"]
    assert list(Block.decode(build_block(items)).entries()) == items


def test_restart_interval_restates_full_keys():
    # All keys share a long prefix; a record at a restart point stores it
    # in full (shared == 0), so corrupting an early record cannot silently
    # propagate into later restart groups.
    items = [(b"prefixprefix" + bytes([i]), KIND_VALUE, b"")
             for i in range(RESTART_INTERVAL * 2 + 3)]
    buf = build_block(items)
    block = Block.decode(buf)
    assert [k for k, __, ___ in block.entries()] == [k for k, __, ___ in items]


def test_corruption_detected():
    items = [(f"k{i:04d}".encode(), KIND_VALUE, b"v") for i in range(30)]
    buf = bytearray(build_block(items))
    buf[10] ^= 0xFF
    with pytest.raises(CorruptionError):
        Block.decode(bytes(buf))


def test_block_get_and_lower_bound_work_identically():
    items = [(f"key-{i:03d}".encode(), KIND_VALUE, str(i).encode())
             for i in range(0, 100, 2)]
    plain = Block.decode(build_block(items, prefix=False))
    compressed = Block.decode(build_block(items, prefix=True))
    for probe in (b"key-000", b"key-050", b"key-051", b"zzz"):
        assert plain.get(probe) == compressed.get(probe)
        assert plain.lower_bound(probe) == compressed.lower_bound(probe)


def test_sstable_with_compression_roundtrips():
    disk = SimulatedDisk()
    builder = SSTableBuilder(disk, "t", tag="flush", block_size=256,
                             prefix_compression=True)
    items = [(f"table:row:{i:05d}".encode(), KIND_VALUE, b"v" * 20)
             for i in range(200)]
    for record in items:
        builder.add(*record)
    builder.finish()
    reader = SSTableReader(disk, "t")
    assert list(reader.entries(tag="scan")) == items
    for key, __, value in items[::17]:
        assert reader.get(key, tag="lookup") == (KIND_VALUE, value)


def test_unikv_end_to_end_with_compression():
    cfg = tiny_unikv_config(block_prefix_compression=True)
    db = UniKV(config=cfg)
    for i in range(1500):
        db.put(f"user:account:{i:06d}".encode(), b"v" * 30)
    db.flush()
    assert db.stats["merges"] > 0
    for i in range(0, 1500, 53):
        assert db.get(f"user:account:{i:06d}".encode()) == b"v" * 30
    db2 = UniKV(disk=db.disk.clone(), config=cfg)
    assert db2.get(b"user:account:000777") == b"v" * 30


def test_compression_reduces_unikv_sorted_store_bytes():
    def sorted_bytes(compress):
        cfg = tiny_unikv_config(block_prefix_compression=compress,
                                partition_size_limit=10 ** 9)
        db = UniKV(config=cfg)
        for i in range(800):
            db.put(f"service/tenant/object/{i:08d}".encode(), b"v" * 20)
        db.flush()
        from repro.core.merge import merge_partition
        for p in db.partitions:
            if p.unsorted.num_tables:
                merge_partition(db.ctx, p)
        return sum(p.sorted.total_key_bytes() for p in db.partitions)

    assert sorted_bytes(True) < sorted_bytes(False) * 0.85


def test_leveldb_with_compression_model_conformance():
    import random
    cfg = dataclasses.replace(small_config(), block_prefix_compression=True)
    db = LevelDBStore(config=cfg)
    rng = random.Random(6)
    model = {}
    for __ in range(1500):
        key = f"app:key:{rng.randrange(300):05d}".encode()
        value = rng.randbytes(rng.randrange(1, 40))
        db.put(key, value)
        model[key] = value
    for key, value in model.items():
        assert db.get(key) == value
    assert db.scan(b"", 15) == sorted(model.items())[:15]


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=24),
                       st.binary(max_size=48), min_size=1, max_size=120))
def test_prefix_block_roundtrip_property(model):
    items = [(k, KIND_VALUE, model[k]) for k in sorted(model)]
    assert list(Block.decode(build_block(items)).entries()) == items
