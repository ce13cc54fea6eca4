"""The bench's phase and per-op modelled time, pinned against a record rebuild.

For every engine, a seeded load phase and a mixed phase run through
``run_workload`` on one store.  A second, identically built store runs the
same ops one at a time while this file snapshots its device records, and
rebuilds each op's modelled time from them:

* the op's foreground records (the disk's record delta less what the
  maintenance scheduler moved to background lanes), priced with the default
  :class:`~repro.env.cost_model.DeviceCostModel`, RocksDB's ``compaction``
  tag at half price while its scheduler is synchronous;
* plus the write-stall seconds injected while the op ran;
* plus the fixed 2 µs of CPU per op.

Phase ``modelled_seconds`` and ``stall_seconds``, each op kind's latency
count and sum, and the phase's full record delta must match the rebuild.
Engines with a maintenance scheduler also run with two background lanes.
"""

import inspect
import random

import pytest

from repro.bench import run_workload
from repro.core import UniKV
from repro.env.cost_model import DeviceCostModel
from repro.env.iostats import IOStats
from repro.lsm import (
    HyperLevelDBStore,
    LevelDBStore,
    PebblesDBStore,
    RocksDBStore,
    SkimpyStashStore,
)
from repro.lsm.wisckey import WiscKeyConfig, WiscKeyStore
from tests.conftest import tiny_unikv_config
from tests.test_lsm_leveldb import small_config

CPU_SECONDS = 2e-6

LSMS = {"LevelDB": LevelDBStore, "RocksDB": RocksDBStore,
        "HyperLevelDB": HyperLevelDBStore, "PebblesDB": PebblesDBStore}


def build(name: str, bg: int):
    if name == "UniKV":
        return UniKV(config=tiny_unikv_config(background_threads=bg))
    if name == "SkimpyStash":
        return SkimpyStashStore(num_buckets=64, write_buffer_bytes=1024,
                                page_cache_bytes=8 * 1024)
    config = small_config(background_threads=bg)
    if name == "WiscKey":
        return WiscKeyStore(config=WiscKeyConfig(
            **vars(config), vlog_segment_size=4096, vlog_size_limit=96 * 1024))
    return LSMS[name](config=config)


CASES = ([(name, 0) for name in ("UniKV", "SkimpyStash", "WiscKey", *LSMS)]
         + [(name, 2) for name in ("UniKV", "WiscKey", *LSMS)])


def phases(scans: bool) -> list[tuple[str, list[tuple]]]:
    rng = random.Random(20261017)
    keys = [b"key-%05d" % i for i in range(900)]
    rng.shuffle(keys)
    load = [("insert", key, rng.randbytes(rng.randrange(20, 120)))
            for key in keys]
    mixed = []
    for __ in range(700):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.4:
            mixed.append(("read", key))
        elif roll < 0.7:
            mixed.append(("update", key, rng.randbytes(rng.randrange(20, 120))))
        elif roll < 0.8:
            if scans:  # SkimpyStash's hash index has no range queries
                mixed.append(("scan", key, rng.randrange(1, 30)))
        elif roll < 0.9:
            mixed.append(("rmw", key, rng.randbytes(40)))
        else:
            mixed.append(("delete", key))
    return [("load", load), ("mixed", mixed)]


def measured(store, ops, phase):
    # Every run records per-op latencies; a runner that gates them behind
    # a switch is asked to turn it on.
    if "collect_latencies" in inspect.signature(run_workload).parameters:
        return run_workload(store, ops, phase, collect_latencies=True)
    return run_workload(store, ops, phase)


def apply(store, op) -> None:
    kind = op[0]
    if kind in ("insert", "update"):
        store.put(op[1], op[2])
    elif kind == "read":
        store.get(op[1])
    elif kind == "scan":
        store.scan(op[1], op[2])
    elif kind == "rmw":
        store.get(op[1])
        store.put(op[1], op[2])
    else:
        store.delete(op[1])


def price(records: IOStats, halve_compaction: bool) -> float:
    """Default-model seconds, with the compaction tag optionally halved."""
    compaction, rest = IOStats(), IOStats()
    for key, rec in records.records.items():
        (compaction if key[2] == "compaction" else rest).records[key] = rec
    divisor = 2.0 if halve_compaction else 1.0
    model = DeviceCostModel()
    return model.seconds(rest) + model.seconds(compaction) / divisor


class Cursor:
    """The disk's records, the background records and the stall total."""

    def __init__(self, store) -> None:
        scheduler = getattr(store, "scheduler", None)
        self.disk = store.disk.stats.snapshot()
        self.background = (scheduler.background_io.snapshot()
                           if scheduler is not None else IOStats())
        self.stalls = scheduler.stalls.sum if scheduler is not None else 0.0

    def foreground_since(self, before: "Cursor") -> IOStats:
        return self.disk.delta_since(before.disk).delta_since(
            self.background.delta_since(before.background))


def counts(stats: IOStats) -> dict:
    return {key: (rec.ops, rec.bytes) for key, rec in stats.records.items()
            if rec.ops or rec.bytes}


def rebuild(store, ops, halve_compaction: bool) -> dict:
    start = cursor = Cursor(store)
    latencies: dict[str, list[float]] = {}
    for op in ops:
        apply(store, op)
        now = Cursor(store)
        seconds = (price(now.foreground_since(cursor), halve_compaction)
                   + (now.stalls - cursor.stalls) + CPU_SECONDS)
        latencies.setdefault(op[0], []).append(seconds)
        cursor = now
    return {
        "modelled_seconds": (price(cursor.foreground_since(start), halve_compaction)
                             + (cursor.stalls - start.stalls)
                             + len(ops) * CPU_SECONDS),
        "stall_seconds": cursor.stalls - start.stalls,
        "io": counts(cursor.disk.delta_since(start.disk)),
        "latencies": {kind: (len(samples), sum(samples))
                      for kind, samples in latencies.items()},
    }


@pytest.mark.parametrize("name,bg", CASES, ids=[f"{n}-bg{b}" for n, b in CASES])
def test_phase_and_op_time_match_the_record_rebuild(name, bg):
    store, reference = build(name, bg), build(name, bg)
    halve_compaction = name == "RocksDB" and bg == 0
    for phase, ops in phases(scans=name != "SkimpyStash"):
        metrics = measured(store, ops, phase)
        expected = rebuild(reference, ops, halve_compaction)
        assert metrics.num_ops == len(ops)
        assert counts(metrics.io) == expected["io"]
        assert metrics.modelled_seconds == pytest.approx(
            expected["modelled_seconds"], rel=1e-9)
        assert metrics.stall_seconds == pytest.approx(
            expected["stall_seconds"], rel=1e-9)
        assert {kind: (len(hist), hist.sum)
                for kind, hist in metrics.latencies.items()} == {
            kind: (count, pytest.approx(total, rel=1e-9))
            for kind, (count, total) in expected["latencies"].items()}
    assert counts(store.disk.stats) == counts(reference.disk.stats)
