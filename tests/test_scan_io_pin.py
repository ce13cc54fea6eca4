"""The exact device I/O of UniKV scans, pinned before the scan path is reworked.

A seeded script of puts, deletes and overwrites on a
:func:`~tests.conftest.tiny_unikv_config` store reaches flushes, merges,
scan-merges, GC and splits.  Scans then start at partition boundaries,
just below them (so they cross into the next partition), on deleted keys
(a tombstone in some layer), at absent keys that fall inside a data block,
and at present keys; ``items()`` streams whole ranges.  Three
configs cover plain blocks, prefix-compressed blocks and selective KV
separation (``inline_value_threshold > 0``, so the SortedStore holds
``KIND_VALUE`` records beside value pointers).

Results must equal a dict model.  The device work must equal the pinned
numbers exactly: every ``disk.stats.records`` entry (ops, bytes), the
running ``disk.stats.seconds`` float after the load and after the scans,
and the value-log and block-cache counters.  A change to how scans decode
blocks, merge sources or resolve pointers must leave all of them as they
are.
"""

import random

import pytest

from repro.core.store import UniKV
from repro.obs import counter_total
from tests.conftest import tiny_unikv_config

CASES = {
    "plain": {},
    "prefix": {"block_prefix_compression": True},
    "inline": {"inline_value_threshold": 24},
}

COUNTERS = ("vlog_reads_total", "vlog_read_bytes_total",
            "block_cache_hits_total", "block_cache_misses_total")


def _load(overrides: dict) -> tuple[UniKV, dict, set]:
    db = UniKV(config=tiny_unikv_config(**overrides))
    rng = random.Random(20261017)
    model: dict[bytes, bytes] = {}
    deleted: set[bytes] = set()
    for i in range(2400):
        roll = rng.random()
        if roll < 0.12 and model:
            key = rng.choice(sorted(model))
            db.delete(key)
            del model[key]
            deleted.add(key)
            continue
        if roll < 0.3 and model:
            key = rng.choice(sorted(model))
        else:
            key = b"key-%05d" % rng.randrange(0, 40000, 7)
        value = b"%d:" % i + bytes([97 + i % 26]) * rng.randrange(6, 48)
        db.put(key, value)
        model[key] = value
        deleted.discard(key)
    return db, model, deleted


def _scan_starts(db: UniKV, model: dict, deleted: set) -> list[tuple[bytes, int]]:
    rng = random.Random(99)
    starts: list[tuple[bytes, int]] = [(b"", 100_000), (b"", 1), (b"", 0),
                                       (b"zzz", 5), (b"key-", 17)]
    for partition in db.partitions[1:]:
        lower = partition.lower
        below = lower[:-1] + bytes([lower[-1] - 1])
        starts += [(lower, 5), (below, 20), (below, 1)]
    starts += [(key, 3) for key in sorted(deleted)[::9]]
    for __ in range(40):
        absent = b"key-%05d" % (rng.randrange(0, 40000, 7) + rng.randrange(1, 7))
        starts.append((absent, rng.choice([1, 7, 50, 130])))
    present = sorted(model)
    starts += [(key, rng.choice([2, 11, 64])) for key in present[::37]]
    return starts


def _item_ranges(db: UniKV) -> list[tuple[bytes, bytes | None]]:
    lowers = [p.lower for p in db.partitions]
    return [(b"", None), (b"key-1", b"key-2"), (lowers[2], lowers[4]),
            (lowers[-1], None), (b"key-33333", b"key-33334")]


def _expected_scan(model: dict, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
    keys = [k for k in sorted(model) if k >= start][:max(count, 0)]
    return [(k, model[k]) for k in keys]


def _io(db: UniKV) -> dict:
    return {key: (rec.ops, rec.bytes) for key, rec in sorted(db.disk.stats.records.items())}


def _counters(db: UniKV) -> tuple:
    snapshot = db.metrics_snapshot()
    return tuple(counter_total(snapshot, name) for name in COUNTERS)


def run_case(overrides: dict) -> dict:
    db, model, deleted = _load(overrides)
    after_load = (db.disk.stats.seconds, _counters(db))
    for start, count in _scan_starts(db, model, deleted):
        assert db.scan(start, count) == _expected_scan(model, start, count), (start, count)
    for lo, hi in _item_ranges(db):
        expected = [(k, model[k]) for k in sorted(model)
                    if k >= lo and (hi is None or k < hi)]
        assert list(db.items(lo, hi)) == expected, (lo, hi)
    return {
        "core": db.stats,
        "after_load": after_load,
        "after_scans": (db.disk.stats.seconds, _counters(db)),
        "io": _io(db),
    }


#: per case: structural counts, (seconds, counters) after the load and after
#: the scans, and the final (ops, bytes) of every I/O record
EXPECTED: dict = {
    "inline": {
        "core": {
            "flushes": 192,
            "merges": 19,
            "scan_merges": 57,
            "gc_runs": 14,
            "splits": 10,
            "index_checkpoints": 44,
            "hash_false_positive_probes": 0,
        },
        "after_load": (0.0037551283836364485, (0, 0, 0, 3010)),
        "after_scans": (0.055642828426360376, (258, 218009, 205, 4871)),
        "io": {
            ("read", "rand", "scan"): (185, 26467),
            ("read", "rand", "scan_value"): (258, 218009),
            ("read", "rand", "table_open"): (194, 17591),
            ("read", "seq", "gc"): (599, 205185),
            ("read", "seq", "merge"): (975, 137039),
            ("read", "seq", "scan"): (1676, 224315),
            ("read", "seq", "scan_merge"): (885, 127711),
            ("read", "seq", "split"): (597, 81304),
            ("read", "seq", "table_open"): (1254, 124156),
            ("write", "seq", "checkpoint"): (44, 20076),
            ("write", "seq", "flush"): (1354, 144455),
            ("write", "seq", "gc"): (2228, 171150),
            ("write", "seq", "manifest"): (550, 130724),
            ("write", "seq", "merge"): (2198, 184254),
            ("write", "seq", "scan_merge"): (978, 146350),
            ("write", "seq", "split"): (1222, 109061),
            ("write", "seq", "wal"): (2400, 128629),
        },
    },
    "plain": {
        "core": {
            "flushes": 190,
            "merges": 17,
            "scan_merges": 58,
            "gc_runs": 14,
            "splits": 14,
            "index_checkpoints": 41,
            "hash_false_positive_probes": 0,
        },
        "after_load": (0.0039032292366028283, (0, 0, 0, 3015)),
        "after_scans": (0.06452655984878473, (379, 314626, 191, 4813)),
        "io": {
            ("read", "rand", "scan"): (165, 25135),
            ("read", "rand", "scan_value"): (379, 314626),
            ("read", "rand", "table_open"): (200, 17600),
            ("read", "seq", "gc"): (571, 229912),
            ("read", "seq", "merge"): (821, 114453),
            ("read", "seq", "scan"): (1633, 221102),
            ("read", "seq", "scan_merge"): (901, 129535),
            ("read", "seq", "split"): (766, 105702),
            ("read", "seq", "table_open"): (1262, 124593),
            ("write", "seq", "checkpoint"): (41, 19056),
            ("write", "seq", "flush"): (1334, 142365),
            ("write", "seq", "gc"): (2658, 182659),
            ("write", "seq", "manifest"): (554, 131883),
            ("write", "seq", "merge"): (2223, 169129),
            ("write", "seq", "scan_merge"): (994, 147674),
            ("write", "seq", "split"): (1841, 152382),
            ("write", "seq", "wal"): (2400, 128629),
        },
    },
    "prefix": {
        "core": {
            "flushes": 192,
            "merges": 17,
            "scan_merges": 56,
            "gc_runs": 14,
            "splits": 11,
            "index_checkpoints": 42,
            "hash_false_positive_probes": 0,
        },
        "after_load": (0.0036600089073180304, (0, 0, 0, 2750)),
        "after_scans": (0.0619995258140572, (296, 278272, 211, 4657)),
        "io": {
            ("read", "rand", "scan"): (230, 32469),
            ("read", "rand", "scan_value"): (296, 278272),
            ("read", "rand", "table_open"): (190, 17435),
            ("read", "seq", "gc"): (550, 231272),
            ("read", "seq", "merge"): (795, 110878),
            ("read", "seq", "scan"): (1677, 227316),
            ("read", "seq", "scan_merge"): (861, 120513),
            ("read", "seq", "split"): (588, 80166),
            ("read", "seq", "table_open"): (1144, 113366),
            ("write", "seq", "checkpoint"): (42, 19224),
            ("write", "seq", "flush"): (1349, 140300),
            ("write", "seq", "gc"): (2666, 181364),
            ("write", "seq", "manifest"): (548, 123133),
            ("write", "seq", "merge"): (2188, 165249),
            ("write", "seq", "scan_merge"): (938, 136872),
            ("write", "seq", "split"): (1391, 115392),
            ("write", "seq", "wal"): (2400, 128629),
        },
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scan_results_and_device_io_are_pinned(case):
    got = run_case(CASES[case])
    expected = EXPECTED[case]
    assert got["core"] == expected["core"]
    assert got["after_load"] == expected["after_load"]
    assert got["io"] == expected["io"]
    assert got["after_scans"] == expected["after_scans"]
