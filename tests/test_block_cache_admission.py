"""Only blocks read at random enter the block cache.

A point lookup or a scan's seek block costs a random read to fetch again;
a streamed block (a full-table pass, a scan's follow-on blocks, every merge,
GC, split and compaction input) costs a sequential one.  So
``SSTableReader._read_block`` inserts a block only when it was read with the
``rand`` pattern, and serves any pass from the cache when the block is
already there.  The store-level cases check what that buys: a block a GET
cached survives maintenance of data it does not belong to.
"""

from repro.core.store import UniKV
from repro.engine import BlockCache, SSTableBuilder, SSTableReader
from repro.engine.keys import KIND_VALUE
from repro.env import SimulatedDisk
from repro.lsm import LevelDBStore
from tests.conftest import tiny_unikv_config
from tests.test_lsm_leveldb import small_config

KEYS = [b"key-%03d" % i for i in range(60)]
RAND_LOOKUP = ("read", "rand", "lookup")


def read_ops(disk: SimulatedDisk, key: tuple[str, str, str]) -> int:
    record = disk.stats.records.get(key)
    return 0 if record is None else record.ops


def read_bytes(disk: SimulatedDisk, key: tuple[str, str, str]) -> int:
    record = disk.stats.records.get(key)
    return 0 if record is None else record.bytes


def value_of(key: bytes) -> bytes:
    return key * 4


def table_reader() -> tuple[SimulatedDisk, SSTableReader, BlockCache]:
    disk = SimulatedDisk()
    builder = SSTableBuilder(disk, "t", tag="flush", block_size=64)
    for key in KEYS:
        builder.add(key, KIND_VALUE, b"value-" + key)
    builder.finish()
    cache = BlockCache(capacity_bytes=1 << 20)
    reader = SSTableReader(disk, "t", cache=cache)
    assert reader.num_blocks >= 6
    return disk, reader, cache


def test_a_full_table_pass_leaves_the_cache_empty():
    disk, reader, cache = table_reader()
    assert [key for key, __, __ in reader.entries(tag="merge")] == KEYS
    assert len(cache) == 0
    # A second pass reads every block from the device again.
    list(reader.entries(tag="merge"))
    assert read_ops(disk, ("read", "seq", "merge")) == 2 * reader.num_blocks


def test_a_point_lookup_admits_its_block():
    disk, reader, cache = table_reader()
    assert reader.get(KEYS[30], tag="lookup") == (KIND_VALUE, b"value-" + KEYS[30])
    assert len(cache) == 1
    reader.get(KEYS[30], tag="lookup")
    assert read_ops(disk, RAND_LOOKUP) == 1


def test_a_scan_admits_only_its_seek_block():
    disk, reader, cache = table_reader()
    scanned = [key for key, __, __ in reader.entries_from(KEYS[10], tag="scan")]
    assert scanned == KEYS[10:]
    assert len(cache) == 1
    # The seek block is the one holding the start key: a lookup there is a
    # hit, one in a later block is a miss.
    reader.get(KEYS[10], tag="lookup")
    assert read_ops(disk, RAND_LOOKUP) == 0
    reader.get(KEYS[-1], tag="lookup")
    assert read_ops(disk, RAND_LOOKUP) == 1


def test_a_cached_block_serves_a_sequential_pass_without_a_device_read():
    disk, reader, cache = table_reader()
    reader.get(KEYS[0], tag="lookup")
    assert [key for key, __, __ in reader.entries(tag="merge")] == KEYS
    assert read_ops(disk, ("read", "seq", "merge")) == reader.num_blocks - 1
    assert len(cache) == 1


def test_a_unikv_get_block_survives_maintenance_of_another_partition():
    # A cache smaller than one merge's input, so the GET's block would be
    # evicted if streamed blocks were admitted (a job's own input blocks
    # leave the cache when it deletes the input tables).
    config = tiny_unikv_config(block_cache_bytes=1024)
    db = UniKV(config=config)
    for i in range(1200):
        db.put(b"key-%05d" % i, value_of(b"key-%05d" % i))
    assert len(db.partitions) >= 2
    first = db.partitions[0]
    key = next(b"key-%05d" % i for i in range(1200)
               if first.mem.get(b"key-%05d" % i) is None)
    assert key < db.partitions[1].lower
    assert db.get(key) == value_of(key)
    lookups = read_ops(db.disk, RAND_LOOKUP)
    assert lookups > 0

    # Writes above every partition boundary run the last partition's
    # flushes and then its merges and GCs, until those have streamed twice
    # the cache's capacity.
    jobs = (("read", "seq", "merge"), ("read", "seq", "gc"))
    streamed = sum(read_bytes(db.disk, job) for job in jobs)
    i = 0
    while sum(read_bytes(db.disk, job) for job in jobs) - streamed < \
            2 * config.block_cache_bytes:
        db.put(b"key-9%05d" % i, b"w" * 40)
        i += 1
    assert db.partitions[0] is first

    assert db.get(key) == value_of(key)
    assert read_ops(db.disk, RAND_LOOKUP) == lookups


def test_a_leveldb_get_block_survives_a_compaction_of_other_tables():
    # A large level-1 target: only L0 compactions run, each covering the
    # key range of the L0 tables it merges.  Each streams more than the
    # cache holds.
    db = LevelDBStore(config=small_config(base_level_bytes=1 << 20,
                                          block_cache_bytes=1024))
    compaction_writes = ("write", "seq", "compaction")
    compaction_reads = ("read", "seq", "compaction")
    for i in range(300):
        db.put(b"a-%04d" % i, b"v" * 24)
    i = 0
    while read_ops(db.disk, compaction_writes) == 0 or db.level_file_counts()[0]:
        db.put(b"m-%05d" % i, b"w" * 24)
        i += 1
    key = b"a-0000"
    (table,) = db._state.files_for_key(1, key)
    assert db.get(key) == b"v" * 24
    lookups = read_ops(db.disk, RAND_LOOKUP)

    # Compactions of the tables above "m" until they have streamed twice
    # the cache's capacity.
    streamed = read_bytes(db.disk, compaction_reads)
    while read_bytes(db.disk, compaction_reads) - streamed < 2 * db.config.block_cache_bytes:
        db.put(b"z-%05d" % i, b"w" * 24)
        i += 1
    assert db._state.files_for_key(1, key) == [table]

    assert db.get(key) == b"v" * 24
    assert read_ops(db.disk, RAND_LOOKUP) == lookups
