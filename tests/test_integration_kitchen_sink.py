"""Kitchen-sink integration: every optional feature enabled at once.

Selective KV separation + frequent index checkpoints + write batches +
crash injection + recovery + scans, under one mixed-size workload — the
combination a downstream user would actually run with.
"""

import random

import pytest

from repro import UniKV
from repro.engine.errors import CrashPoint
from tests.conftest import tiny_unikv_config


def full_featured_config():
    return tiny_unikv_config(
        inline_value_threshold=32,
        index_checkpoint_interval=2,
    )


def run_mixed_workload(db, model, rng, ops):
    for __ in range(ops):
        r = rng.random()
        key = f"tenant{rng.randrange(4)}/obj/{rng.randrange(250):06d}".encode()
        if r < 0.08 and key in model:
            del model[key]
            db.delete(key)
        elif r < 0.16:
            batch = []
            for __ in range(rng.randrange(2, 6)):
                bkey = f"tenant{rng.randrange(4)}/obj/{rng.randrange(250):06d}".encode()
                value = rng.randbytes(rng.choice([8, 20, 100, 400]))
                batch.append(("put", bkey, value))
                model[bkey] = value
            db.write_batch(batch)
        else:
            value = rng.randbytes(rng.choice([8, 20, 100, 400]))
            model[key] = value
            db.put(key, value)


def verify(db, model):
    for key, value in model.items():
        assert db.get(key) == value
    start = b"tenant2/"
    expected = sorted((k, v) for k, v in model.items() if k >= start)[:40]
    assert db.scan(start, 40) == expected
    assert list(db.items(b"tenant1/", b"tenant2/")) == sorted(
        (k, v) for k, v in model.items() if b"tenant1/" <= k < b"tenant2/")


def test_all_features_together_with_crash_and_recovery():
    config = full_featured_config()
    db = UniKV(config=config)
    rng = random.Random(21)
    model: dict[bytes, bytes] = {}

    run_mixed_workload(db, model, rng, 5000)
    db.flush()
    stats = db.stats
    assert stats["merges"] > 0 and stats["splits"] > 0
    verify(db, model)

    # Crash on a mid-life GC, recover, verify, keep going.
    fired = 0

    def hook(point):
        nonlocal fired
        if point == "gc:before_commit":
            fired += 1
            if fired == 1:
                raise CrashPoint(point)

    db.ctx.crash_hook = hook
    try:
        run_mixed_workload(db, model, rng, 5000)
        crashed = False
    except CrashPoint:
        crashed = True
    db2 = UniKV(disk=db.disk.clone(), config=config)
    verify(db2, model)
    if not crashed:
        pytest.skip("workload did not reach a GC this round (still verified)")

    # The recovered store continues through more feature-mixing load.
    run_mixed_workload(db2, model, rng, 3000)
    db2.flush()
    verify(db2, model)
    db3 = UniKV(disk=db2.disk.clone(), config=config)
    verify(db3, model)
