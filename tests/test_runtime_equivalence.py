"""State-identity of the maintenance scheduler across background modes.

The scheduler changes device-*time* accounting only: jobs execute at the
same submit sites in the same order at every ``background_threads``
setting, so the on-disk byte state, every read result, and the crash-point
sequence must be bit-identical between synchronous (bg=0) and overlapped
(bg>=1) modes.  These tests pin that invariant for every engine family,
and re-check that the E12 crash-injection points still fire now that
maintenance runs inside scheduler jobs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UniKV
from repro.lsm import LevelDBStore, LSMConfig, PebblesDBStore, WiscKeyStore
from repro.lsm.wisckey import WiscKeyConfig
from tests.conftest import tiny_unikv_config

ENGINES = ("UniKV", "LevelDB", "PebblesDB", "WiscKey")

#: every injection point exercised by the E12 recovery tests
E12_CRASH_POINTS = {
    "flush:start", "flush:before_commit",
    "merge:start", "merge:after_data", "merge:after_commit",
    "gc:start", "gc:before_commit", "gc:after_commit",
    "split:start", "split:before_commit", "split:after_commit",
    "scan_merge:start", "scan_merge:before_commit",
    "checkpoint:before_commit",
}


def build_store(engine: str, background_threads: int):
    if engine == "UniKV":
        return UniKV(config=tiny_unikv_config(
            background_threads=background_threads))
    if engine == "WiscKey":
        # vlog limit sized so GC runs a handful of times, not per-put
        return WiscKeyStore(config=WiscKeyConfig(
            memtable_size=512, sstable_size=512, block_size=128,
            base_level_bytes=2048, level_size_multiplier=4,
            vlog_segment_size=8192, vlog_size_limit=96 * 1024,
            background_threads=background_threads))
    cls = {"LevelDB": LevelDBStore, "PebblesDB": PebblesDBStore}[engine]
    return cls(config=LSMConfig(
        memtable_size=512, sstable_size=512, block_size=128,
        base_level_bytes=2048, level_size_multiplier=4,
        background_threads=background_threads))


def mixed_ops(n_ops: int, seed: int, key_space: int = 400) -> list[tuple]:
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        key = f"k{rng.randrange(key_space):05d}".encode()
        r = rng.random()
        if r < 0.6:
            ops.append(("put", key, rng.randbytes(rng.randrange(8, 80))))
        elif r < 0.7:
            ops.append(("delete", key))
        elif r < 0.9:
            ops.append(("get", key))
        else:
            ops.append(("scan", key, 5))
    return ops


def apply_ops(store, ops) -> list:
    """Apply the ops; returns every read/scan result for comparison."""
    results = []
    for op in ops:
        if op[0] == "put":
            store.put(op[1], op[2])
        elif op[0] == "delete":
            store.delete(op[1])
        elif op[0] == "get":
            results.append(store.get(op[1]))
        else:
            results.append(list(store.scan(op[1], op[2])))
    return results


def disk_state(store) -> dict[str, bytes]:
    return {name: bytes(data)
            for name, data in store.disk._files.items()}


@pytest.mark.parametrize("engine", ENGINES)
def test_background_mode_state_identical(engine):
    ops = mixed_ops(3000, seed=11)
    sync_store = build_store(engine, background_threads=0)
    over_store = build_store(engine, background_threads=2)
    sync_results = apply_ops(sync_store, ops)
    over_results = apply_ops(over_store, ops)
    assert sync_results == over_results
    assert disk_state(sync_store) == disk_state(over_store)
    # Identical jobs ran — only their device-time attribution differs.
    sync_stats = sync_store.scheduler.describe()
    assert sync_stats["job_counts"] == over_store.scheduler.describe()["job_counts"]
    assert sync_stats["stall_seconds"] == 0.0


def test_background_mode_describe_identical_modulo_runtime():
    ops = mixed_ops(2500, seed=7)
    described = []
    for bg in (0, 3):
        db = build_store("UniKV", background_threads=bg)
        apply_ops(db, ops)
        info = db.describe()
        info.pop("runtime")
        described.append(info)
    assert described[0] == described[1]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_ops=st.integers(min_value=200, max_value=1200))
def test_unikv_state_identity_property(seed, n_ops):
    ops = mixed_ops(n_ops, seed=seed, key_space=150)
    states = []
    for bg in (0, 2):
        db = build_store("UniKV", background_threads=bg)
        results = apply_ops(db, ops)
        states.append((disk_state(db), results))
    assert states[0] == states[1]


@pytest.mark.parametrize("background_threads", [0, 2])
def test_e12_crash_points_still_fire(background_threads):
    """Maintenance-in-jobs must not skip or reorder injection points."""
    db = UniKV(config=tiny_unikv_config(
        background_threads=background_threads))
    seen: list[str] = []
    db.ctx.crash_hook = seen.append
    rng = random.Random(3)
    for _ in range(6000):
        key = f"key-{rng.randrange(500):05d}".encode()
        if rng.random() < 0.1:
            db.delete(key)
        else:
            db.put(key, rng.randbytes(rng.randrange(10, 60)))
    assert set(seen) >= E12_CRASH_POINTS


def test_crash_point_sequence_identical_across_modes():
    sequences = []
    for bg in (0, 2):
        db = UniKV(config=tiny_unikv_config(background_threads=bg))
        seen: list[str] = []
        db.ctx.crash_hook = seen.append
        apply_ops(db, mixed_ops(3000, seed=19))
        sequences.append(seen)
    assert sequences[0] == sequences[1]
