"""Behavioural and model-conformance tests for the UniKV store."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UniKV
from tests.conftest import tiny_unikv_config


def test_put_get_roundtrip(tiny_config):
    db = UniKV(config=tiny_config)
    db.put(b"key", b"value")
    assert db.get(b"key") == b"value"
    assert db.get(b"missing") is None


def test_overwrite(tiny_config):
    db = UniKV(config=tiny_config)
    db.put(b"k", b"v1")
    db.put(b"k", b"v2")
    assert db.get(b"k") == b"v2"


def test_delete(tiny_config):
    db = UniKV(config=tiny_config)
    db.put(b"k", b"v")
    db.delete(b"k")
    assert db.get(b"k") is None
    db.put(b"k", b"v2")
    assert db.get(b"k") == b"v2"


def test_empty_scan(tiny_config):
    db = UniKV(config=tiny_config)
    assert db.scan(b"", 10) == []


def test_values_survive_flush_merge_gc(tiny_config):
    db = UniKV(config=tiny_config)
    n = 900
    for i in range(n):
        db.put(f"key-{i:05d}".encode(), f"value-{i}".encode() * 3)
    db.flush()
    stats = db.stats
    assert stats["flushes"] > 0 and stats["merges"] > 0
    for i in range(n):
        assert db.get(f"key-{i:05d}".encode()) == f"value-{i}".encode() * 3


def test_updates_trigger_gc_and_stay_correct(tiny_config):
    db = UniKV(config=tiny_config)
    for round_no in range(12):
        for i in range(120):
            db.put(f"key-{i:04d}".encode(), f"r{round_no:02d}".encode() * 8)
    db.flush()
    assert db.stats["gc_runs"] > 0
    for i in range(120):
        assert db.get(f"key-{i:04d}".encode()) == b"r11" * 8


def test_partition_split_occurs_and_routing_is_correct(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(2500):
        db.put(f"key-{i:06d}".encode(), b"v" * 24)
    db.flush()
    assert db.stats["splits"] >= 1
    assert db.num_partitions() >= 2
    lowers = [p.lower for p in db.partitions]
    assert lowers == sorted(lowers)
    assert lowers[0] == b""
    for i in range(0, 2500, 7):
        assert db.get(f"key-{i:06d}".encode()) == b"v" * 24


def test_deletes_shadow_sorted_store_data(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(400):
        db.put(f"key-{i:04d}".encode(), b"x" * 16)
    db.flush()  # pushes data into the SortedStore via merges
    for i in range(0, 400, 2):
        db.delete(f"key-{i:04d}".encode())
    db.flush()
    for i in range(400):
        expected = None if i % 2 == 0 else b"x" * 16
        assert db.get(f"key-{i:04d}".encode()) == expected


def test_scan_sorted_live_and_bounded(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(600):
        db.put(f"key-{i:04d}".encode(), str(i).encode())
    db.delete(b"key-0101")
    got = db.scan(b"key-0100", 4)
    assert [k for k, __ in got] == [b"key-0100", b"key-0102", b"key-0103", b"key-0104"]
    assert [v for __, v in got] == [b"100", b"102", b"103", b"104"]


def test_scan_crosses_partition_boundaries(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(2500):
        db.put(f"key-{i:06d}".encode(), b"v")
    db.flush()
    assert db.num_partitions() >= 2
    boundary = db.partitions[1].lower
    idx = int(boundary.decode().split("-")[1])
    start = f"key-{idx - 3:06d}".encode()
    got = db.scan(start, 6)
    assert [k for k, __ in got] == [f"key-{idx - 3 + j:06d}".encode() for j in range(6)]


def test_scan_sees_memtable_updates(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(300):
        db.put(f"key-{i:04d}".encode(), b"old")
    db.flush()
    db.put(b"key-0005", b"new")  # stays in the memtable
    got = dict(db.scan(b"key-0004", 3))
    assert got[b"key-0005"] == b"new"
    assert got[b"key-0004"] == b"old"


def test_sorted_store_lookup_touches_one_table(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(500):
        db.put(f"key-{i:04d}".encode(), b"v" * 30)
    db.flush()
    # Force everything into the SortedStore (merge all partitions).
    from repro.core.merge import merge_partition
    for p in db.partitions:
        if p.unsorted.num_tables:
            merge_partition(db.ctx, p)
    before = db.disk.stats.snapshot()
    assert db.get(b"key-0250") == b"v" * 30
    delta = db.disk.stats.delta_since(before)
    # one key/pointer block read + one value-log read
    assert delta.ops_for(op="read", tag="lookup") == 1
    assert delta.ops_for(op="read", tag="lookup_value") == 1


def test_absent_key_costs_at_most_one_table_read(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(500):
        db.put(f"key-{i:04d}".encode(), b"v" * 30)
    db.flush()
    from repro.core.merge import merge_partition
    for p in db.partitions:
        if p.unsorted.num_tables:
            merge_partition(db.ctx, p)
    before = db.disk.stats.snapshot()
    assert db.get(b"key-0250x") is None  # inside range, absent
    delta = db.disk.stats.delta_since(before)
    assert delta.ops_for(op="read", tag="lookup") <= 1
    assert delta.ops_for(op="read", tag="lookup_value") == 0


def test_index_memory_small_fraction_of_data(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(2000):
        db.put(f"key-{i:06d}".encode(), b"v" * 100)
    data = db.disk.total_bytes("sst-") + db.disk.total_bytes("vlog-")
    # The paper reports <1% at 1 KB values; small values cost more but the
    # index must stay a small fraction of the data.
    assert db.index_memory_bytes() < data * 0.1


def test_scan_merge_consolidates_unsorted_store(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(300):
        db.put(f"key-{i:04d}".encode(), b"v" * 10)
    db.flush()
    assert db.stats["scan_merges"] > 0
    for p in db.partitions:
        assert p.unsorted.num_tables <= db.config.scan_merge_limit


def test_describe_reports_structure(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(600):
        db.put(f"key-{i:05d}".encode(), b"v" * 20)
    info = db.describe()
    assert info["partitions"]
    assert info["stats"]["flushes"] > 0
    assert info["index_memory_bytes"] > 0


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["put", "delete"]),
              st.integers(min_value=0, max_value=60),
              st.binary(min_size=1, max_size=24)),
    max_size=250))
def test_matches_dict_model_property(ops):
    db = UniKV(config=tiny_unikv_config())
    model: dict[bytes, bytes] = {}
    for op, key_id, value in ops:
        key = f"key-{key_id:03d}".encode()
        if op == "put":
            db.put(key, value)
            model[key] = value
        else:
            db.delete(key)
            model.pop(key, None)
    for key_id in range(61):
        key = f"key-{key_id:03d}".encode()
        assert db.get(key) == model.get(key)
    assert db.scan(b"", 15) == sorted(model.items())[:15]


def test_large_random_workload_against_model():
    rng = random.Random(99)
    db = UniKV(config=tiny_unikv_config())
    model: dict[bytes, bytes] = {}
    for __ in range(6000):
        key = f"key-{rng.randrange(700):05d}".encode()
        r = rng.random()
        if r < 0.1 and key in model:
            db.delete(key)
            del model[key]
        else:
            value = rng.randbytes(rng.randrange(5, 80))
            db.put(key, value)
            model[key] = value
    db.flush()
    assert db.stats["merges"] > 0 and db.stats["gc_runs"] > 0 and db.stats["splits"] > 0
    for key, value in model.items():
        assert db.get(key) == value
    for probe in (b"", b"key-00350", b"key-00699"):
        expected = sorted((k, v) for k, v in model.items() if k >= probe)[:25]
        assert db.scan(probe, 25) == expected


# -- close(): idempotency and crashed-device teardown -----------------------------------

def test_close_is_idempotent():
    db = UniKV(config=tiny_unikv_config())
    db.put(b"k", b"v")
    db.close()
    db.close()  # second close must be a no-op, not an error
    assert db.closed
    with pytest.raises(RuntimeError):
        db.put(b"k2", b"v2")


def test_close_is_idempotent_on_recovered_store():
    db = UniKV(config=tiny_unikv_config())
    db.put(b"k", b"v")
    db.close()
    recovered = UniKV(disk=db.disk, config=tiny_unikv_config())
    assert recovered.get(b"k") == b"v"
    recovered.close()
    recovered.close()
    assert recovered.closed


def test_close_survives_a_crashed_device():
    from repro.env.storage import SimulatedDisk

    db = UniKV(disk=SimulatedDisk(sync_tracking=True),
               config=tiny_unikv_config())
    db.put(b"k", b"v")
    db.disk.crash()
    db.close()  # nothing to flush to a dead device; must not raise
    db.close()
    assert db.closed
