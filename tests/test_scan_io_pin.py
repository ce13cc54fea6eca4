"""The exact device I/O of UniKV scans, pinned before the scan path is reworked.

A seeded script of puts, deletes and overwrites on a
:func:`~tests.conftest.tiny_unikv_config` store reaches flushes, merges,
scan-merges, GC and splits.  Scans then start at partition boundaries,
just below them (so they cross into the next partition), on deleted keys
(a tombstone in some layer), at absent keys that fall inside a data block,
and at present keys; ``items()`` streams whole ranges.  Three
configs cover plain blocks, selective KV separation (``inline_value_threshold > 0``, so the SortedStore holds
``KIND_VALUE`` records beside value pointers) and the merge's full
re-separation (``partial_kv_separation=False``, which rewrites every old
value into the new log).

Results must equal a dict model.  The device work must equal the pinned
numbers exactly: every ``disk.stats.records`` entry (ops, bytes), the
running ``disk.stats.seconds`` float after the load and after the scans,
the value-log and block-cache counters, and a sha256 over the name and
bytes of every file on disk after the load (table names, log numbers and
contents).  A change to how scans decode blocks, merge sources or resolve
pointers, or to how merge, GC and split write their runs, must leave all
of them as they are.
"""

import random

import pytest

from repro.core.store import UniKV
from repro.obs import counter_total
from tests.conftest import disk_digest, tiny_unikv_config

CASES = {
    "plain": {},
    "inline": {"inline_value_threshold": 24},
    "no_partial": {"partial_kv_separation": False},
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
    files = disk_digest(db.disk)
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
        "files": files,
    }


#: per case: structural counts, (seconds, counters) after the load and after
#: the scans, the final (ops, bytes) of every I/O record, and the digest of
#: the files on disk after the load
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
        "after_load": (0.0037891001701354844, (0, 0, 0, 3010)),
        "after_scans": (0.03851433500289892, (258, 218009, 234, 4842)),
        "io": {
            ("read", "rand", "scan"): (165, 24113),
            ("read", "rand", "scan_value"): (258, 218009),
            ("read", "seq", "gc"): (599, 205185),
            ("read", "seq", "merge"): (975, 137039),
            ("read", "seq", "scan"): (1667, 221996),
            ("read", "seq", "scan_merge"): (885, 127711),
            ("read", "seq", "split"): (597, 81304),
            ("read", "seq", "table_open"): (1448, 141747),
            ("write", "seq", "checkpoint"): (44, 20252),
            ("write", "seq", "flush"): (1354, 144455),
            ("write", "seq", "gc"): (2228, 171150),
            ("write", "seq", "manifest"): (550, 130724),
            ("write", "seq", "merge"): (2198, 184254),
            ("write", "seq", "scan_merge"): (978, 146350),
            ("write", "seq", "split"): (1222, 109061),
            ("write", "seq", "wal"): (2400, 128629),
        },
        "files": "e6aa5a5fd2349a4ada655d752bd2670c285b5e4fe35a5081418cd1feda970505",
    },
    "no_partial": {
        "core": {
            "flushes": 190,
            "merges": 17,
            "scan_merges": 58,
            "gc_runs": 0,
            "splits": 14,
            "index_checkpoints": 41,
            "hash_false_positive_probes": 0,
        },
        "after_load": (0.0033126945495605686, (0, 0, 0, 2488)),
        "after_scans": (0.04605549209594703, (379, 314626, 209, 4268)),
        "io": {
            ("read", "rand", "scan"): (142, 21406),
            ("read", "rand", "scan_value"): (379, 314626),
            ("read", "seq", "merge"): (849, 232928),
            ("read", "seq", "scan"): (1638, 221180),
            ("read", "seq", "scan_merge"): (901, 129535),
            ("read", "seq", "split"): (766, 105702),
            ("read", "seq", "table_open"): (1184, 118176),
            ("write", "seq", "checkpoint"): (41, 19220),
            ("write", "seq", "flush"): (1334, 142365),
            ("write", "seq", "manifest"): (540, 111847),
            ("write", "seq", "merge"): (3175, 218255),
            ("write", "seq", "scan_merge"): (994, 147674),
            ("write", "seq", "split"): (1841, 152382),
            ("write", "seq", "wal"): (2400, 128629),
        },
        "files": "56ba51167a0f57ed683c54c4856681d928600a5cc23bf7f17ed68475719a3923",
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
        "after_load": (0.003937189579010057, (0, 0, 0, 3015)),
        "after_scans": (0.046679987125396505, (379, 314626, 209, 4795)),
        "io": {
            ("read", "rand", "scan"): (142, 21406),
            ("read", "rand", "scan_value"): (379, 314626),
            ("read", "seq", "gc"): (571, 229912),
            ("read", "seq", "merge"): (821, 114453),
            ("read", "seq", "scan"): (1638, 221180),
            ("read", "seq", "scan_merge"): (901, 129535),
            ("read", "seq", "split"): (766, 105702),
            ("read", "seq", "table_open"): (1462, 142193),
            ("write", "seq", "checkpoint"): (41, 19220),
            ("write", "seq", "flush"): (1334, 142365),
            ("write", "seq", "gc"): (2658, 182659),
            ("write", "seq", "manifest"): (554, 131883),
            ("write", "seq", "merge"): (2223, 169129),
            ("write", "seq", "scan_merge"): (994, 147674),
            ("write", "seq", "split"): (1841, 152382),
            ("write", "seq", "wal"): (2400, 128629),
        },
        "files": "8f83f0fa9a4cf0b9293cc6b61ee1ea273cfba992de94f1bcfa34e138f0c45e54",
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
    assert got["files"] == expected["files"]
