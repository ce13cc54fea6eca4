"""Unit + property tests for data blocks and SSTables."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BlockCache, SSTableBuilder, SSTableReader
from repro.engine.block import Block
from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.engine.sstable import write_tables
from repro.env import SimulatedDisk
from repro.env.iostats import RAND, READ
from repro.obs import MetricsRegistry
from tests.conftest import encode_block


def build_table(disk, name, items, block_size=64, bloom_bits=0):
    builder = SSTableBuilder(disk, name, tag="flush", block_size=block_size,
                             bloom_bits_per_key=bloom_bits)
    for key, kind, value in items:
        builder.add(key, kind, value)
    return builder.finish()


# -- blocks --------------------------------------------------------------------

def test_block_roundtrip():
    block = Block.decode(encode_block([(b"a", KIND_VALUE, b"1"),
                                       (b"b", KIND_TOMBSTONE, b"")]))
    assert block.get(b"a") == (KIND_VALUE, b"1")
    assert block.get(b"b") == (KIND_TOMBSTONE, b"")
    assert block.get(b"c") is None
    assert len(block) == 2


def test_block_rejects_out_of_order():
    builder = SSTableBuilder(SimulatedDisk(), "t", tag="flush")
    builder.add(b"b", KIND_VALUE, b"")
    with pytest.raises(ValueError):
        builder.add(b"a", KIND_VALUE, b"")
    with pytest.raises(ValueError):
        builder.add(b"b", KIND_VALUE, b"")


def test_unknown_record_kind_rejected():
    disk = SimulatedDisk()
    builder = SSTableBuilder(disk, "t", tag="flush")
    with pytest.raises(ValueError, match="unknown record kind 7"):
        builder.add(b"a", 7, b"x")
    # The rejected record left no trace in the table.
    builder.add(b"a", KIND_VALUE, b"1")
    builder.add(b"b", KIND_TOMBSTONE, b"")
    builder.finish()
    assert list(SSTableReader(disk, "t").entries(tag="test")) == [
        (b"a", KIND_VALUE, b"1"), (b"b", KIND_TOMBSTONE, b"")]


def test_block_decode_rejects_truncated():
    with pytest.raises(CorruptionError):
        Block.decode(b"\x01")


@pytest.mark.parametrize("fmt", [1, 0xFF])
def test_block_decode_rejects_unknown_format(fmt):
    # A block whose CRC matches but whose format byte is not FORMAT_PLAIN
    # is corrupt.
    buf = bytearray(encode_block([(b"a", KIND_VALUE, b"1")]))
    buf[0] = fmt
    buf[-4:] = zlib.crc32(buf[:-4]).to_bytes(4, "little")
    with pytest.raises(CorruptionError, match=f"unknown block format {fmt}"):
        Block.decode(bytes(buf))


def test_block_lower_bound():
    block = Block.decode(encode_block([(key, KIND_VALUE, b"") for key in (b"b", b"d", b"f")]))
    assert block.lower_bound(b"a") == 0
    assert block.lower_bound(b"d") == 1
    assert block.lower_bound(b"e") == 2
    assert block.lower_bound(b"z") == 3


# -- sstables ------------------------------------------------------------------

def test_sstable_roundtrip_and_meta():
    disk = SimulatedDisk()
    items = [(f"k{i:03d}".encode(), KIND_VALUE, f"v{i}".encode()) for i in range(100)]
    meta = build_table(disk, "t1", items)
    assert (meta.smallest, meta.largest) == (b"k000", b"k099")
    assert meta.num_entries == 100
    reader = SSTableReader(disk, "t1")
    assert reader.num_blocks > 1
    for key, kind, value in items:
        assert reader.get(key, tag="lookup") == (kind, value)
    assert reader.get(b"missing", tag="lookup") is None


def test_sstable_get_out_of_range_costs_no_io():
    disk = SimulatedDisk()
    build_table(disk, "t", [(b"m", KIND_VALUE, b"v")])
    reader = SSTableReader(disk, "t")
    before = disk.stats.snapshot()
    assert reader.get(b"a", tag="lookup") is None
    assert reader.get(b"z", tag="lookup") is None
    assert disk.stats.delta_since(before).read_bytes == 0


def test_sstable_missing_key_in_range_costs_one_block_read():
    disk = SimulatedDisk()
    build_table(disk, "t", [(b"a", KIND_VALUE, b"v"), (b"c", KIND_VALUE, b"v")])
    reader = SSTableReader(disk, "t")
    before = disk.stats.snapshot()
    assert reader.get(b"b", tag="lookup") is None
    delta = disk.stats.delta_since(before)
    assert delta.ops_for(op=READ, pattern=RAND, tag="lookup") == 1


def test_sstable_rejects_unsorted_and_empty():
    disk = SimulatedDisk()
    builder = SSTableBuilder(disk, "t", tag="flush")
    builder.add(b"b", KIND_VALUE, b"")
    with pytest.raises(ValueError):
        builder.add(b"a", KIND_VALUE, b"")
    empty = SSTableBuilder(disk, "e", tag="flush")
    with pytest.raises(ValueError):
        empty.finish()


def test_sstable_entries_iteration_sorted():
    disk = SimulatedDisk()
    items = [(f"{i:04d}".encode(), KIND_VALUE, b"x" * i) for i in range(50)]
    build_table(disk, "t", items, block_size=128)
    reader = SSTableReader(disk, "t")
    assert list(reader.entries(tag="scan")) == items


def test_sstable_entries_from():
    disk = SimulatedDisk()
    items = [(f"{i:04d}".encode(), KIND_VALUE, b"v") for i in range(0, 100, 2)]
    build_table(disk, "t", items, block_size=96)
    reader = SSTableReader(disk, "t")
    got = [k for k, __, ___ in reader.entries_from(b"0051", tag="scan")]
    assert got == [f"{i:04d}".encode() for i in range(52, 100, 2)]
    assert list(reader.entries_from(b"9999", tag="scan")) == []
    # start below smallest yields everything
    assert len(list(reader.entries_from(b"", tag="scan"))) == len(items)


def test_sstable_bloom_filters_absent_keys_without_io():
    disk = SimulatedDisk()
    items = [(f"k{i:02d}".encode(), KIND_VALUE, b"v") for i in range(50)]
    build_table(disk, "tb", items, bloom_bits=10)
    reader = SSTableReader(disk, "tb")
    assert reader.bloom is not None
    hits = 0
    before = disk.stats.snapshot()
    for i in range(200):
        probe = b"k" + str(i + 100).encode()  # absent but inside key range? no: > largest
        probe = f"j{i:03d}".encode()  # absent, below smallest -> range check
        reader.get(probe, tag="lookup")
    # Probes below smallest never reach the bloom; use in-range misses instead.
    in_range_misses = [f"k{i:02d}x".encode() for i in range(49)]
    for probe in in_range_misses:
        if reader.get(probe, tag="lookup") is None:
            hits += 1
    delta = disk.stats.delta_since(before)
    # With 10 bits/key the vast majority of in-range misses are filtered.
    assert delta.ops_for(op=READ, tag="lookup") < len(in_range_misses) // 2


def test_sstable_block_cache_hits_avoid_io():
    disk = SimulatedDisk()
    metrics = MetricsRegistry()
    cache = BlockCache(capacity_bytes=1 << 20, metrics=metrics)
    items = [(f"k{i:02d}".encode(), KIND_VALUE, b"v") for i in range(10)]
    build_table(disk, "t", items, block_size=4096)
    reader = SSTableReader(disk, "t", cache=cache)
    reader.get(b"k00", tag="lookup")
    before = disk.stats.snapshot()
    reader.get(b"k01", tag="lookup")  # same block, cached
    assert disk.stats.delta_since(before).read_bytes == 0
    assert metrics.counter("block_cache_hits_total").value == 1


def test_sstable_corrupt_magic_detected():
    disk = SimulatedDisk()
    build_table(disk, "t", [(b"a", KIND_VALUE, b"v")])
    buf = bytearray(disk.read_full("t", tag="test"))
    buf[-1] ^= 0xFF
    disk.create("t").append(bytes(buf), tag="test")
    with pytest.raises(CorruptionError):
        SSTableReader(disk, "t")


# -- write_tables: the one table-cutting loop -------------------------------------

RUN = [(b"%03d" % i, KIND_VALUE, b"x" * 20) for i in range(20)]


def _cut_size(cut_after: int) -> int:
    """A table size that the ``cut_after``-th record of RUN reaches first."""
    builder = SSTableBuilder(SimulatedDisk(), "ref", tag="t", block_size=64)
    sizes = []
    for record in RUN:
        builder.add(*record)
        sizes.append(builder.estimated_size)
    assert max(sizes[:cut_after - 1]) < sizes[cut_after - 1]
    return sizes[cut_after - 1]


def _builders(disk, events):
    names = (f"t{i}" for i in range(100))

    def new_builder():
        events.append("create")
        return SSTableBuilder(disk, next(names), tag="t", block_size=64)
    return new_builder


def test_write_tables_empty_stream_creates_no_table():
    disk = SimulatedDisk()
    events = []
    assert write_tables(iter([]), _builders(disk, events), 100) == []
    assert events == [] and disk.list() == []


def test_write_tables_cuts_after_the_record_reaching_table_size():
    disk = SimulatedDisk()
    tables = write_tables(RUN, _builders(disk, []), _cut_size(7))
    # Every table starts empty and RUN's records are all the same size, so
    # each full table holds 7; the last, partial one is finished too.
    assert [m.num_entries for m in tables] == [7, 7, 6]
    assert [m.name for m in tables] == disk.list() == ["t0", "t1", "t2"]
    got = [r for m in tables for r in SSTableReader(disk, m.name).entries(tag="t")]
    assert got == RUN


def test_write_tables_pulls_a_record_before_creating_its_table():
    # A side effect of pulling a record (say, appending its value to a
    # log) lands before the create of the table that record starts.
    disk = SimulatedDisk()
    events = []

    def records():
        for record in RUN:
            events.append(record[0])
            yield record

    write_tables(records(), _builders(disk, events), _cut_size(7))
    creates = [i for i, event in enumerate(events) if event == "create"]
    assert [events[i - 1] for i in creates] == [RUN[0][0], RUN[7][0], RUN[14][0]]


def test_table_meta_overlaps():
    disk = SimulatedDisk()
    meta = build_table(disk, "t", [(b"c", KIND_VALUE, b""), (b"f", KIND_VALUE, b"")])
    assert meta.overlaps(b"a", b"c")
    assert meta.overlaps(b"d", b"e")
    assert meta.overlaps(b"f", b"z")
    assert not meta.overlaps(b"a", b"b")
    assert not meta.overlaps(b"g", b"z")


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=12),
                       st.binary(max_size=64), min_size=1, max_size=150))
def test_sstable_roundtrip_property(model):
    disk = SimulatedDisk()
    items = [(k, KIND_VALUE, model[k]) for k in sorted(model)]
    build_table(disk, "t", items, block_size=256)
    reader = SSTableReader(disk, "t")
    assert list(reader.entries(tag="scan")) == items
    for key, __, value in items:
        assert reader.get(key, tag="lookup") == (KIND_VALUE, value)
