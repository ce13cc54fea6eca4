"""A running store's in-memory state equals what recovery rebuilds.

Every committed manifest record is turned into in-memory state twice:
once by the job that commits it, and once by recovery's replay.  These
tests run a seeded put/delete mix and, every 50 ops, reopen a clone of
the live disk and compare the two states field by field, so a job whose
commit and replay disagree (a file one keeps and the other drops, an
allocator one advances and the other does not) fails at the first check
after it runs.
"""

import random

from repro.core import UniKV
from repro.core.manifest import meta_to_json
from repro.lsm import LevelDBStore
from tests.conftest import tiny_unikv_config
from tests.test_job_outputs import small_lsm_config

CHECK_EVERY = 50


def put_delete_mix(n_ops: int, seed: int, key_space: int = 300):
    rng = random.Random(seed)
    for __ in range(n_ops):
        key = b"key-%05d" % rng.randrange(key_space)
        if rng.random() < 0.1:
            yield "delete", key, None
        else:
            yield "put", key, rng.randbytes(rng.randrange(8, 60))


def run_and_compare(db, reopen, state, n_ops: int, seed: int) -> int:
    """Apply the mix to ``db``; every CHECK_EVERY ops assert that
    ``state(db) == state(reopen(clone))``.  Returns the checks made."""
    checks = 0
    for i, (op, key, value) in enumerate(put_delete_mix(n_ops, seed), 1):
        if op == "put":
            db.put(key, value)
        else:
            db.delete(key)
        if i % CHECK_EVERY == 0:
            assert state(db) == state(reopen(db.disk.clone())), f"after op {i}"
            checks += 1
    return checks


# -- UniKV -------------------------------------------------------------------------

def unikv_state(db: UniKV) -> dict:
    ctx = db.ctx
    return {
        "files": db.disk.list(),
        "partitions": [{
            "id": p.id,
            "lower": p.lower,
            "unsorted": {tid: meta_to_json(meta)
                         for tid, meta in p.unsorted.tables.items()},
            "sorted": [meta.name for meta in p.sorted.tables],
            "logs": p.log_numbers,
            "live_value_bytes": p.sorted.live_value_bytes,
            "wal": p.wal.name,
        } for p in db.partitions],
        "checkpoints": db._checkpoints,
        "log_refs": ctx.log_refs,
        "allocators": (ctx.next_table, ctx.next_log, ctx.next_partition,
                       db._next_wal, db._next_ckpt),
    }


def test_live_unikv_equals_recovered():
    db = UniKV(config=tiny_unikv_config())
    checks = run_and_compare(
        db, lambda disk: UniKV(disk=disk, config=db.config),
        unikv_state, n_ops=3000, seed=0)
    assert checks == 60
    stats = db.stats
    for event in ("flushes", "scan_merges", "merges", "gc_runs", "splits",
                  "index_checkpoints"):
        assert stats[event] > 0, event


# -- LevelDB -----------------------------------------------------------------------

def leveldb_state(db: LevelDBStore) -> dict:
    return {
        "files": db.disk.list(),
        "levels": [[meta.name for meta in files] for files in db._state.levels],
        "next_file": db._next_file,
        "next_wal": db._next_wal,
    }


def test_live_leveldb_equals_recovered():
    db = LevelDBStore(config=small_lsm_config())
    checks = run_and_compare(
        db, lambda disk: LevelDBStore(disk=disk, config=db.config),
        leveldb_state, n_ops=3000, seed=0)
    assert checks == 60
    assert sum(db.level_file_counts()[2:]) > 0  # compactions reached level 2
