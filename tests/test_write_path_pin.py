"""The exact device writes and replies of a serving-scale load, pinned.

The other write-side pins (``test_scan_io_pin``, ``test_lsm_io_pin``) run
on :func:`~tests.conftest.tiny_unikv_config`.  This one runs the shapes
the TCP benchmark runs: the default :class:`UniKVConfig` (1 KiB blocks,
8 KiB tables, a 4096-bucket hash index), four range shards split at
``user4``, ``user8`` and ``userc``, YCSB-style keys (``user`` + 16 hex
digits of a seeded splitmix64 hash) and 100-byte values.

A :class:`RequestHandler` loads 20,000 records in 128-put BATCH frames
through :meth:`RequestHandler.handle_now`, then takes 40 overwrite
BATCHes and 120 GETs.  Pinned: a sha256 over every reply frame, and per
shard every ``disk.stats.records`` entry, the ``repr`` of the running
``disk.stats.seconds`` float, the structural job counts and a sha256 over
the name and bytes of every file on disk.  A change to how flush, merge,
scan-merge, GC or split build their tables must leave all of them as
they are.
"""

import hashlib
import random

from repro.core import UniKVConfig
from repro.service import protocol
from repro.service.handler import RequestHandler, Session
from repro.service.router import ShardRouter
from tests.conftest import disk_digest

_MASK = (1 << 64) - 1
RECORDS = 20_000
BATCH = 128
VALUE_SIZE = 100


def _mix64(x: int) -> int:
    """splitmix64 finaliser."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _value(key: bytes, version: int) -> bytes:
    return (b"%s|%d|" % (key, version)).ljust(VALUE_SIZE, b".")


def run_script() -> dict:
    salt = _mix64(7)
    keys = [b"user%016x" % _mix64(salt ^ i) for i in range(RECORDS)]
    router = ShardRouter.create(4, [b"user4", b"user8", b"userc"], UniKVConfig())
    handler = RequestHandler(router)
    session = Session()
    replies = hashlib.sha256()

    def call(frame: bytes) -> None:
        replies.update(handler.handle_now(frame[4:], session))

    for pos in range(0, RECORDS, BATCH):
        call(protocol.encode_batch([("put", key, _value(key, 0))
                                    for key in keys[pos:pos + BATCH]]))
    rng = random.Random(15)
    for version in range(1, 41):
        ids = rng.sample(range(RECORDS), BATCH)
        call(protocol.encode_batch([("put", keys[i], _value(keys[i], version))
                                    for i in ids]))
    for __ in range(120):
        call(protocol.encode_get(keys[rng.randrange(RECORDS)]))
    shards = []
    for store in router.stores:
        stats = store.disk.stats
        shards.append({
            "core": store.stats,
            "seconds": repr(stats.seconds),
            "io": {key: (rec.ops, rec.bytes) for key, rec in sorted(stats.records.items())},
            "files": disk_digest(store.disk),
        })
    return {"replies": replies.hexdigest(), "shards": shards}


#: the reply digest, and per shard: job counts, ``repr(disk.stats.seconds)``,
#: the final (ops, bytes) of every I/O record and the digest of the files on disk
EXPECTED: dict = {
    "replies": "d931f708c6335547e8d0bf7d2e819199db33ec2c6d05ac9aeca6fc7a6bab0f18",
    "shards": [
        {
            "core": {
                "flushes": 44,
                "merges": 10,
                "scan_merges": 10,
                "gc_runs": 2,
                "splits": 1,
                "index_checkpoints": 21,
                "hash_false_positive_probes": 0,
            },
            "seconds": "0.023976339340215314",
            "io": {
                ("read", "rand", "lookup"): (25, 25760),
                ("read", "rand", "lookup_value"): (25, 3300),
                ("read", "seq", "gc"): (249, 1324309),
                ("read", "seq", "merge"): (1533, 1570577),
                ("read", "seq", "scan_merge"): (537, 541989),
                ("read", "seq", "split"): (203, 208022),
                ("read", "seq", "table_open"): (488, 124588),
                ("write", "seq", "checkpoint"): (21, 104124),
                ("write", "seq", "flush"): (923, 835538),
                ("write", "seq", "gc"): (5139, 885181),
                ("write", "seq", "manifest"): (136, 52361),
                ("write", "seq", "merge"): (6986, 1861028),
                ("write", "seq", "scan_merge"): (552, 557131),
                ("write", "seq", "split"): (554, 232399),
                ("write", "seq", "wal"): (278, 812086),
            },
            "files": "44cfcc17f42e902d2a2525a7f880d5a5f9e7d0b84d3e83d42710d211f12b0359",
        },
        {
            "core": {
                "flushes": 43,
                "merges": 10,
                "scan_merges": 10,
                "gc_runs": 2,
                "splits": 1,
                "index_checkpoints": 20,
                "hash_false_positive_probes": 0,
            },
            "seconds": "0.023584308795934147",
            "io": {
                ("read", "rand", "lookup"): (24, 24477),
                ("read", "rand", "lookup_value"): (22, 2904),
                ("read", "seq", "gc"): (245, 1321507),
                ("read", "seq", "merge"): (1546, 1583149),
                ("read", "seq", "scan_merge"): (545, 552381),
                ("read", "seq", "split"): (189, 193534),
                ("read", "seq", "table_open"): (488, 124552),
                ("write", "seq", "checkpoint"): (20, 102488),
                ("write", "seq", "flush"): (912, 825790),
                ("write", "seq", "gc"): (5057, 870883),
                ("write", "seq", "manifest"): (133, 52170),
                ("write", "seq", "merge"): (7051, 1875405),
                ("write", "seq", "scan_merge"): (559, 566476),
                ("write", "seq", "split"): (408, 210459),
                ("write", "seq", "wal"): (278, 802798),
            },
            "files": "829da4bdd7bf56457b933548e20d4a1bf4ef8ad20dac35c286a67cb8fb6fc94b",
        },
        {
            "core": {
                "flushes": 44,
                "merges": 10,
                "scan_merges": 10,
                "gc_runs": 2,
                "splits": 1,
                "index_checkpoints": 21,
                "hash_false_positive_probes": 0,
            },
            "seconds": "0.024378911952977547",
            "io": {
                ("read", "rand", "lookup"): (27, 27340),
                ("read", "rand", "lookup_value"): (29, 3828),
                ("read", "seq", "gc"): (244, 1310852),
                ("read", "seq", "merge"): (1533, 1571297),
                ("read", "seq", "scan_merge"): (546, 552519),
                ("read", "seq", "split"): (188, 192094),
                ("read", "seq", "table_open"): (486, 124632),
                ("write", "seq", "checkpoint"): (21, 104316),
                ("write", "seq", "flush"): (930, 842819),
                ("write", "seq", "gc"): (5030, 866132),
                ("write", "seq", "manifest"): (136, 52183),
                ("write", "seq", "merge"): (7046, 1867073),
                ("write", "seq", "scan_merge"): (559, 566734),
                ("write", "seq", "split"): (406, 209050),
                ("write", "seq", "wal"): (281, 811852),
            },
            "files": "d968f8a5e85e73451dc3cbe649baa5bf922fc442d2201c3f1df40e31c8149ae3",
        },
        {
            "core": {
                "flushes": 44,
                "merges": 10,
                "scan_merges": 10,
                "gc_runs": 2,
                "splits": 1,
                "index_checkpoints": 21,
                "hash_false_positive_probes": 0,
            },
            "seconds": "0.025656892395024854",
            "io": {
                ("read", "rand", "lookup"): (33, 34156),
                ("read", "rand", "lookup_value"): (37, 4884),
                ("read", "seq", "gc"): (249, 1327413),
                ("read", "seq", "merge"): (1538, 1573409),
                ("read", "seq", "scan_merge"): (537, 546246),
                ("read", "seq", "split"): (204, 208549),
                ("read", "seq", "table_open"): (490, 124976),
                ("write", "seq", "checkpoint"): (21, 103932),
                ("write", "seq", "flush"): (919, 832778),
                ("write", "seq", "gc"): (5135, 884457),
                ("write", "seq", "manifest"): (136, 52526),
                ("write", "seq", "merge"): (6989, 1867439),
                ("write", "seq", "scan_merge"): (555, 560362),
                ("write", "seq", "split"): (548, 232598),
                ("write", "seq", "wal"): (279, 822672),
            },
            "files": "23905390b4199e5b0cfb45f3e841c3ac2739d8ad06f6bbfd74fd82ddbe8f34b0",
        },
    ],
}


def test_serving_scale_write_path_is_pinned():
    got = run_script()
    assert got["replies"] == EXPECTED["replies"]
    for shard, expected in zip(got["shards"], EXPECTED["shards"], strict=True):
        assert shard == expected
