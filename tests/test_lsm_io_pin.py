"""The exact device I/O and files of the baseline LSMs' compactions, pinned.

A seeded script of puts, overwrites and deletes on small LevelDB,
RocksDB, HyperLevelDB, PebblesDB and WiscKey stores runs flushes and
compactions: the LevelDB family's leveled ``_run_compaction`` (round-robin
and min-overlap picks, RocksDB's doubled buffers), PebblesDB's guard
fragments and its bottom-level ``_consolidate_guard``, and WiscKey's index
compactions and value-log GC.  Every ``disk.stats.records`` entry (ops, bytes) and a
sha256 over the name and bytes of every file left on disk must equal the
pinned values, so a change to how compaction output is cut into tables,
or how value pointers are written, must leave table names, sizes and
contents as they are.
"""

import random

import pytest

from repro.lsm import HyperLevelDBStore, LevelDBStore, PebblesDBStore, RocksDBStore
from repro.lsm.wisckey import WiscKeyConfig, WiscKeyStore
from tests.conftest import disk_digest
from tests.test_lsm_leveldb import small_config


def _wisckey(config):
    return WiscKeyStore(config=WiscKeyConfig(
        **vars(config), vlog_segment_size=4096, vlog_size_limit=64 * 1024))


STORES = {"leveldb": LevelDBStore, "rocksdb": RocksDBStore,
          "hyperleveldb": HyperLevelDBStore, "pebblesdb": PebblesDBStore,
          "wisckey": _wisckey}


def run_case(name: str) -> dict:
    db = STORES[name](config=small_config())
    rng = random.Random(20261017)
    model: dict[bytes, bytes] = {}
    for i in range(3000):
        key = b"key-%04d" % rng.randrange(700)
        if rng.random() < 0.1 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = b"%d:" % i + bytes([97 + i % 26]) * rng.randrange(4, 40)
            db.put(key, value)
            model[key] = value
    for key in sorted(model)[::7]:
        assert db.get(key) == model[key]
    assert db.scan(b"", 10 ** 6) == sorted(model.items())
    return {
        "io": {key: (rec.ops, rec.bytes)
               for key, rec in sorted(db.disk.stats.records.items())},
        "files": disk_digest(db.disk),
    }


#: per store: the final (ops, bytes) of every I/O record and the digest of
#: the files on disk
EXPECTED: dict = {
    "leveldb": {
        "io": {
            ("read", "rand", "lookup"): (88, 12630),
            ("read", "rand", "scan"): (2, 276),
            ("read", "rand", "table_open"): (326, 30479),
            ("read", "seq", "compaction"): (6415, 858998),
            ("read", "seq", "scan"): (347, 46149),
            ("read", "seq", "table_open"): (3540, 322537),
            ("write", "seq", "compaction"): (12412, 1074254),
            ("write", "seq", "flush"): (1860, 176341),
            ("write", "seq", "manifest"): (993, 298075),
            ("write", "seq", "wal"): (3000, 148160),
        },
        "files": "a2313bad7cfe65875d276162ad01f3e7f1bed289be133f48b6a7d03d651a08b5",
    },
    "rocksdb": {
        "io": {
            ("read", "rand", "lookup"): (85, 12690),
            ("read", "rand", "scan"): (1, 166),
            ("read", "rand", "table_open"): (164, 21958),
            ("read", "seq", "compaction"): (5245, 760799),
            ("read", "seq", "scan"): (267, 38813),
            ("read", "seq", "table_open"): (1590, 211985),
            ("write", "seq", "compaction"): (7518, 862432),
            ("write", "seq", "flush"): (1382, 165347),
            ("write", "seq", "manifest"): (488, 136906),
            ("write", "seq", "wal"): (3000, 148160),
        },
        "files": "5307464b60740b81ac8bedc30687fc21887e25ae336bf6afef4cbed59c454322",
    },
    "hyperleveldb": {
        "io": {
            ("read", "rand", "lookup"): (91, 12887),
            ("read", "rand", "scan"): (6, 835),
            ("read", "rand", "table_open"): (378, 32994),
            ("read", "seq", "compaction"): (5165, 693909),
            ("read", "seq", "scan"): (374, 49658),
            ("read", "seq", "table_open"): (2872, 260566),
            ("write", "seq", "compaction"): (9955, 853652),
            ("write", "seq", "flush"): (1860, 176341),
            ("write", "seq", "manifest"): (977, 257115),
            ("write", "seq", "wal"): (3000, 148160),
        },
        "files": "87e418e475009de5e34f5eaf458af7ba7117ed751e76d86d446ea1dcfd03530f",
    },
    "pebblesdb": {
        "io": {
            ("read", "rand", "lookup"): (88, 10181),
            ("read", "rand", "scan"): (321, 26505),
            ("read", "rand", "table_open"): (802, 50583),
            ("read", "seq", "compaction"): (3845, 410236),
            ("read", "seq", "scan"): (120, 14847),
            ("read", "seq", "table_open"): (4496, 296043),
            ("write", "seq", "compaction"): (12702, 610639),
            ("write", "seq", "flush"): (1860, 176341),
            ("write", "seq", "wal"): (3000, 148160),
        },
        "files": "362bd49c376f7dece6742efb5f1782273f613e1e4e695b7d656a8709297b985c",
    },
    "wisckey": {
        "io": {
            ("read", "rand", "gc_lookup"): (1638, 237402),
            ("read", "rand", "lookup"): (86, 12234),
            ("read", "rand", "lookup_value"): (90, 4211),
            ("read", "rand", "scan"): (2, 274),
            ("read", "rand", "scan_value"): (15, 58316),
            ("read", "rand", "table_open"): (4336, 413441),
            ("read", "seq", "compaction"): (6288, 824592),
            ("read", "seq", "gc"): (21, 86453),
            ("read", "seq", "scan"): (248, 31910),
            ("read", "seq", "table_open"): (3386, 309244),
            ("write", "seq", "compaction"): (12407, 1055939),
            ("write", "seq", "flush"): (1840, 173537),
            ("write", "seq", "manifest"): (736, 302076),
            ("write", "seq", "vlog_write"): (3193, 147367),
        },
        "files": "d14715eb13f36506b3ba5949e07dfec3ed5b216215241a34dee0eaead475edcb",
    },
}


@pytest.mark.parametrize("name", sorted(STORES))
def test_compaction_device_io_and_files_are_pinned(name):
    assert run_case(name) == EXPECTED[name]
