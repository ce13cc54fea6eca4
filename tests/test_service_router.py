"""ShardRouter: routing, batch splitting, aggregation, shutdown."""

import pytest

from repro.core import UniKV
from repro.service.router import ShardRouter, default_boundaries
from repro.workloads import make_key
from tests.conftest import tiny_unikv_config


def make_router(num_shards=2, boundaries=None):
    if boundaries is None:
        boundaries = [make_key(i * 1000) for i in range(1, num_shards)]
    stores = [UniKV(config=tiny_unikv_config()) for __ in range(num_shards)]
    return ShardRouter(stores, boundaries)


def test_default_boundaries_are_even_and_sorted():
    bounds = default_boundaries(4)
    assert bounds == [b"\x40", b"\x80", b"\xc0"]
    assert default_boundaries(1) == []
    with pytest.raises(ValueError):
        default_boundaries(0)


def test_bad_boundaries_rejected():
    stores = [UniKV(config=tiny_unikv_config()) for __ in range(3)]
    with pytest.raises(ValueError):
        ShardRouter(stores, [b"b"])                 # wrong count
    with pytest.raises(ValueError):
        ShardRouter(stores, [b"z", b"a"])           # not sorted
    with pytest.raises(ValueError):
        ShardRouter(stores, [b"a", b"a"])           # duplicate


def test_shard_index_is_boundary_bisect():
    router = make_router(3, boundaries=[b"g", b"p"])
    assert router.shard_index(b"") == 0
    assert router.shard_index(b"f") == 0
    assert router.shard_index(b"g") == 1          # boundary belongs right
    assert router.shard_index(b"o") == 1
    assert router.shard_index(b"p") == 2
    assert router.shard_index(b"zzz") == 2


def test_routing_matches_single_store_oracle(tiny_config):
    router = make_router(3, boundaries=[make_key(400), make_key(800)])
    oracle = UniKV(config=tiny_config)
    for i in range(1200):
        key, value = make_key(i), b"v-%06d" % i
        router.put(key, value)
        oracle.put(key, value)
    for i in range(0, 1200, 7):
        assert router.get(make_key(i)) == oracle.get(make_key(i))
    router.delete(make_key(5))
    oracle.delete(make_key(5))
    assert router.get(make_key(5)) is None
    # Data landed on the shard the bisect names.
    assert router.stores[0].get(make_key(10)) is not None
    assert router.stores[1].get(make_key(10)) is None
    assert router.stores[2].get(make_key(1100)) is not None


def test_scan_crosses_shard_boundaries_in_order(tiny_config):
    router = make_router(2, boundaries=[make_key(100)])
    oracle = UniKV(config=tiny_config)
    for i in range(200):
        router.put(make_key(i), b"v%d" % i)
        oracle.put(make_key(i), b"v%d" % i)
    # A scan starting below the boundary must stitch both shards together.
    got = router.scan(make_key(90), 25)
    assert got == oracle.scan(make_key(90), 25)
    assert len(got) == 25
    assert got[0][0] == make_key(90)
    assert [k for k, __ in got] == sorted(k for k, __ in got)


def test_split_batch_groups_by_shard_preserving_order():
    router = make_router(2, boundaries=[b"m"])
    ops = [("put", b"a", b"1"), ("put", b"z", b"2"), ("delete", b"b"),
           ("put", b"n", b"3"), ("delete", b"c")]
    groups = router.split_batch(ops)
    assert groups[0] == [("put", b"a", b"1"), ("delete", b"b"), ("delete", b"c")]
    assert groups[1] == [("put", b"z", b"2"), ("put", b"n", b"3")]
    router.write_batch(ops)
    assert router.get(b"a") == b"1"
    assert router.get(b"z") == b"2"
    assert router.get(b"b") is None


def test_stats_aggregates_per_shard_write_stall_and_core():
    router = make_router(2, boundaries=[make_key(500)])
    for i in range(1000):
        router.put(make_key(i), b"x" * 64)
    stats = router.stats()
    assert len(stats["shards"]) == 2
    for field in ("stall_seconds", "stall_events"):
        total = sum(s["write_stall"][field] for s in stats["shards"])
        assert stats["aggregate"]["write_stall"][field] == pytest.approx(total)
    assert stats["aggregate"]["core"]["flushes"] == sum(
        s["core"]["flushes"] for s in stats["shards"])
    assert stats["aggregate"]["core"]["flushes"] > 0
    assert stats["aggregate"]["partitions"] == sum(
        store.num_partitions() for store in router.stores)
    # Writes were range-routed, so both shards did real work.
    assert all(s["core"]["flushes"] > 0 for s in stats["shards"])


def test_stats_aggregate_takes_max_of_high_water_marks():
    router = make_router(2)
    for store, depth, events in zip(router.stores, (3, 2), (4, 5)):
        store.metrics.gauge("maintenance_queue_depth_high_water").set(depth)
        store.scheduler.stalls.record(1e-6, n=events)
    agg = router.stats()["aggregate"]["write_stall"]
    assert agg["queue_depth_high_water"] == 3  # max across shards, not 5
    assert agg["stall_events"] == 9            # counters still sum


def test_close_is_idempotent_and_closes_every_shard():
    router = make_router(2)
    router.put(make_key(1), b"v")
    router.close()
    router.close()
    assert router.closed
    assert all(store.closed for store in router.stores)
    with pytest.raises(RuntimeError):
        router.put(make_key(2), b"w")
    with pytest.raises(RuntimeError):
        router.get(make_key(1))


def test_store_close_flushes_and_recovers(tiny_config):
    db = UniKV(config=tiny_config)
    for i in range(300):
        db.put(make_key(i), b"v-%d" % i)
    db.close()
    assert db.closed
    db.close()  # idempotent
    with pytest.raises(RuntimeError):
        db.put(b"k", b"v")
    # Everything (memtable included) was made durable by close().
    recovered = UniKV(disk=db.disk, config=db.config)
    for i in range(0, 300, 11):
        assert recovered.get(make_key(i)) == b"v-%d" % i
    recovered.close()
