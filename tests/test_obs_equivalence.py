"""Metrics-on vs metrics-off equivalence: observation must not perturb.

The obs layer never touches the simulated device, so a store with
``metrics_enabled=True`` must produce bit-identical on-disk bytes,
identical read results and identical I/O accounting to one with op spans
off — across synchronous and overlapped scheduler modes.  Every count
lives in the registry either way: ``metrics_enabled=False`` only skips
the ``unikv_op_seconds`` spans, so the two stores' counters and gauges
are equal.  This mirrors ``tests/test_runtime_equivalence.py``, which
pins the same invariant for the scheduler itself.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UniKV
from tests.conftest import tiny_unikv_config
from tests.test_runtime_equivalence import apply_ops, disk_state, mixed_ops


def build_pair(background_threads: int):
    on = UniKV(config=tiny_unikv_config(
        metrics_enabled=True, background_threads=background_threads))
    off = UniKV(config=tiny_unikv_config(
        metrics_enabled=False, background_threads=background_threads))
    return on, off


def io_records(store) -> dict:
    return {key: (rec.ops, rec.bytes)
            for key, rec in store.disk.stats.records.items()}


def counts(store) -> tuple[list, list]:
    snap = store.metrics_snapshot()
    return snap["counters"], snap["gauges"]


def op_spans(store) -> int:
    return sum(entry["count"] for entry in store.metrics_snapshot()["histograms"]
               if entry["name"] == "unikv_op_seconds")


@pytest.mark.parametrize("background_threads", [0, 2])
def test_metrics_mode_state_identical(background_threads):
    ops = mixed_ops(3000, seed=23)
    on, off = build_pair(background_threads)
    on_results = apply_ops(on, ops)
    off_results = apply_ops(off, ops)
    assert on_results == off_results
    assert disk_state(on) == disk_state(off)
    assert io_records(on) == io_records(off)
    # Spans off changes no count: counters and gauges match exactly, and
    # so does every histogram but the op spans...
    assert counts(off) == counts(on)
    assert on.scheduler.describe() == off.scheduler.describe()
    on_snap, off_snap = on.metrics_snapshot(), off.metrics_snapshot()
    assert off_snap["histograms"] == [entry for entry in on_snap["histograms"]
                                      if entry["name"] != "unikv_op_seconds"]
    # ...which only the instrumented store records.
    assert op_spans(on) == len(ops)
    assert op_spans(off) == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_ops=st.integers(min_value=200, max_value=1200))
def test_metrics_equivalence_property(seed, n_ops):
    ops = mixed_ops(n_ops, seed=seed, key_space=150)
    states = []
    for enabled in (True, False):
        db = UniKV(config=tiny_unikv_config(metrics_enabled=enabled))
        results = apply_ops(db, ops)
        states.append((disk_state(db), results, io_records(db), counts(db)))
    assert states[0] == states[1]


def test_metrics_survive_recovery_equivalently():
    """Reopening over an existing disk keeps the equivalence, and each
    recovered store gets a fresh registry wired to its new scheduler."""
    ops = mixed_ops(1500, seed=5)
    on, off = build_pair(background_threads=0)
    apply_ops(on, ops)
    apply_ops(off, ops)
    on.close()
    off.close()
    re_on = UniKV(disk=on.disk, config=on.config)
    re_off = UniKV(disk=off.disk, config=off.config)
    more = mixed_ops(800, seed=6)
    assert apply_ops(re_on, more) == apply_ops(re_off, more)
    assert disk_state(re_on) == disk_state(re_off)
    assert counts(re_on) == counts(re_off)
    assert op_spans(re_on) == len(more) and op_spans(re_off) == 0


def test_get_path_split_covers_all_layers():
    """The per-path get histograms cover memtable, unsorted, sorted and
    miss once the workload has pushed data through every layer."""
    db = UniKV(config=tiny_unikv_config())
    apply_ops(db, mixed_ops(4000, seed=9))
    for key in (b"k00000", b"does-not-exist"):
        db.get(key)
    paths = {entry["labels"]["path"]
             for entry in db.metrics_snapshot()["histograms"]
             if entry["name"] == "unikv_op_seconds"
             and entry["labels"].get("op") == "get"}
    assert {"memtable", "unsorted", "sorted", "miss"} <= paths
