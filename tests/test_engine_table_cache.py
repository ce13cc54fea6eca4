"""Unit tests for the bounded table cache."""

from repro.engine import SSTableBuilder
from repro.engine.table_cache import TableCache
from repro.env import SimulatedDisk
from repro.engine.keys import KIND_VALUE
from repro.obs import MetricsRegistry


def make_tables(disk, count, prefix="t"):
    names = []
    for i in range(count):
        b = SSTableBuilder(disk, f"{prefix}{i:03d}", tag="flush")
        b.add(b"k", KIND_VALUE, b"v")
        b.finish()
        names.append(f"{prefix}{i:03d}")
    return names


def test_hit_returns_same_reader():
    disk = SimulatedDisk()
    (name,) = make_tables(disk, 1)
    metrics = MetricsRegistry()
    cache = TableCache(disk, capacity=4, metrics=metrics)
    r1 = cache.get(name)
    r2 = cache.get(name)
    assert r1 is r2
    assert (metrics.counter("table_cache_hits_total").value,
            metrics.counter("table_cache_misses_total").value) == (1, 1)


def test_miss_charges_open_io():
    disk = SimulatedDisk()
    (name,) = make_tables(disk, 1)
    cache = TableCache(disk, capacity=4)
    before = disk.stats.snapshot()
    cache.get(name)
    assert disk.stats.delta_since(before).bytes_for(tag="table_open") > 0
    before = disk.stats.snapshot()
    cache.get(name)  # hit: no further metadata I/O
    assert disk.stats.delta_since(before).read_bytes == 0


def test_lru_eviction_reopens():
    disk = SimulatedDisk()
    names = make_tables(disk, 3)
    cache = TableCache(disk, capacity=2)
    cache.get(names[0])
    cache.get(names[1])
    cache.get(names[2])  # evicts names[0]
    before = disk.stats.snapshot()
    cache.get(names[0])
    assert disk.stats.delta_since(before).bytes_for(tag="table_open") > 0
    assert len(cache) == 2


def test_evict_removes_entry():
    disk = SimulatedDisk()
    (name,) = make_tables(disk, 1)
    cache = TableCache(disk, capacity=4)
    cache.get(name)
    cache.evict(name)
    assert len(cache) == 0


def test_seq_open_pattern_charges_sequential_reads():
    disk = SimulatedDisk()
    names = make_tables(disk, 2)
    cache = TableCache(disk, capacity=4)
    cache.get(names[0], open_pattern="seq")
    assert disk.stats.ops_for(op="read", pattern="rand", tag="table_open") == 0
    assert disk.stats.ops_for(op="read", pattern="seq", tag="table_open") > 0
    cache.get(names[1])  # default: random
    assert disk.stats.ops_for(op="read", pattern="rand", tag="table_open") > 0


def test_capacity_minimum_one():
    disk = SimulatedDisk()
    names = make_tables(disk, 2)
    cache = TableCache(disk, capacity=0)
    cache.get(names[0])
    cache.get(names[1])
    assert len(cache) == 1


def test_open_readers_lists_resident():
    disk = SimulatedDisk()
    names = make_tables(disk, 3)
    cache = TableCache(disk, capacity=8)
    for name in names:
        cache.get(name)
    assert {r.name for r in cache.open_readers()} == set(names)
