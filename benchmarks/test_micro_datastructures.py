"""Wall-clock microbenchmarks of the core data structures.

Unlike the experiment targets (which report *modelled device* throughput),
these measure real Python wall-clock of the in-memory building blocks —
the part of the system where wall-clock is meaningful at reduced scale.
"""

import random

from repro.core.hash_index import HashIndex
from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_VALUE
from repro.engine.memtable import MemTable
from repro.engine.skiplist import SkipList
from repro.engine.sstable import SSTableBuilder, SSTableReader
from repro.env import SimulatedDisk

N = 2000


def test_skiplist_insert(benchmark):
    keys = [f"key-{i:08d}".encode() for i in random.Random(1).sample(range(10 ** 7), N)]

    def insert_all():
        sl = SkipList()
        for key in keys:
            sl.insert(key, None)
        return sl

    sl = benchmark(insert_all)
    assert len(sl) == N


def test_skiplist_lookup(benchmark):
    rng = random.Random(2)
    keys = [f"key-{i:08d}".encode() for i in rng.sample(range(10 ** 7), N)]
    sl = SkipList()
    for key in keys:
        sl.insert(key, key)
    probes = rng.choices(keys, k=N)
    result = benchmark(lambda: [sl.get(k) for k in probes])
    assert all(r is not None for r in result)


def test_memtable_put_overwrite_mix(benchmark):
    rng = random.Random(3)
    ops = [(f"key-{rng.randrange(N // 4):06d}".encode(), rng.randbytes(64))
           for __ in range(N)]

    def run():
        mt = MemTable()
        for key, value in ops:
            mt.put(key, value)
        return mt

    mt = benchmark(run)
    assert len(mt) <= N // 4


def test_hash_index_insert(benchmark):
    keys = [f"key-{i:08d}".encode() for i in range(N)]

    def run():
        idx = HashIndex(num_buckets=4096, num_hashes=4)
        for i, key in enumerate(keys):
            idx.insert(key, i)
        return idx

    idx = benchmark(run)
    assert idx.num_entries == N


def test_hash_index_lookup(benchmark):
    keys = [f"key-{i:08d}".encode() for i in range(N)]
    idx = HashIndex(num_buckets=4096, num_hashes=4)
    for i, key in enumerate(keys):
        idx.insert(key, i)
    result = benchmark(lambda: [idx.lookup(k) for k in keys])
    assert all(result)


def test_block_encode_decode(benchmark):
    items = [(f"key-{i:06d}".encode(), KIND_VALUE, b"v" * 100)
             for i in range(500)]

    def roundtrip():
        # One data block: a table whose block size exceeds its records.
        disk = SimulatedDisk()
        builder = SSTableBuilder(disk, "t", tag="bench", block_size=1 << 20)
        for record in items:
            builder.add(*record)
        builder.finish()
        return list(SSTableReader(disk, "t").entries(tag="bench"))

    assert benchmark(roundtrip) == items


def test_merging_iterator(benchmark):
    layers = []
    for layer_no in range(8):
        layers.append(sorted(
            (f"key-{i:06d}".encode(), KIND_VALUE, b"v")
            for i in range(layer_no, 4000, 8)))

    def merge_all():
        return sum(1 for __ in merge_sorted([iter(layer) for layer in layers]))

    assert benchmark(merge_all) == 4000
