"""Registry semantics: determinism, stall-cause attribution, export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UniKV
from repro.obs import (
    DEFAULT_QUANTILES,
    MetricsRegistry,
    core_view,
    merge_snapshots,
    snapshot_to_prometheus,
    write_stall_view,
)
from tests.conftest import tiny_unikv_config
from tests.test_runtime_equivalence import apply_ops, mixed_ops


# -- registry basics ---------------------------------------------------------------------

def test_metrics_are_get_or_create_keyed_by_name_and_labels():
    reg = MetricsRegistry()
    assert reg.counter("c", a="1") is reg.counter("c", a="1")
    assert reg.counter("c", a="1") is not reg.counter("c", a="2")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h", op="x") is reg.histogram("h", op="x")
    reg.counter("c", a="1").inc(2)
    reg.gauge("g").set(5)
    reg.gauge("g").inc(-1)
    reg.histogram("h", op="x").record(0.5)
    snap = reg.snapshot()
    assert snap["counters"] == [
        {"name": "c", "labels": {"a": "1"}, "value": 2},
        {"name": "c", "labels": {"a": "2"}, "value": 0},
    ]
    assert snap["gauges"] == [{"name": "g", "labels": {}, "value": 4}]
    [hist] = snap["histograms"]
    assert hist["name"] == "h" and hist["labels"] == {"op": "x"}
    assert hist["count"] == 1
    assert set(hist["quantiles"]) == {f"p{100 * q:g}" for q in DEFAULT_QUANTILES}


def test_virtual_clock_snapshots_are_deterministic():
    """Two identical runs on the scheduler's virtual clock produce exactly
    equal snapshots — the property that makes obs assertions testable."""
    ops = mixed_ops(2000, seed=31)
    snaps = []
    for __ in range(2):
        db = UniKV(config=tiny_unikv_config(background_threads=2))
        apply_ops(db, ops)
        snaps.append(db.metrics_snapshot())
    assert snaps[0] == snaps[1]


# -- stall-cause attribution -------------------------------------------------------------

def test_stall_causes_attributed_to_submitting_job():
    db = UniKV(config=tiny_unikv_config(
        background_threads=1, slowdown_trigger=1, stop_trigger=2))
    apply_ops(db, mixed_ops(4000, seed=13))
    stats = db.scheduler.describe()
    assert stats["stall_events"] > 0
    assert stats["stall_causes"]
    # Every stall is attributed to exactly one <kind>:<cause> key.
    assert sum(stats["stall_causes"].values()) == stats["stall_events"]
    for key in stats["stall_causes"]:
        kind, cause = key.split(":")
        assert kind in ("slowdown", "stop")
        assert cause in stats["job_counts"]
    # The view reads the registry's stall metrics and nothing else.
    snap = db.metrics_snapshot()
    counted = {(e["labels"]["type"], e["labels"]["cause"]): e["value"]
               for e in snap["counters"] if e["name"] == "write_stalls_total"}
    assert counted == {tuple(k.split(":")): v
                       for k, v in stats["stall_causes"].items()}
    [stall_hist] = [e for e in snap["histograms"]
                    if e["name"] == "write_stall_seconds"]
    assert stall_hist["count"] == stats["stall_events"]
    assert stall_hist["sum"] == stats["stall_seconds"]


def test_stall_causes_in_as_dict_and_absent_when_synchronous():
    db = UniKV(config=tiny_unikv_config())
    apply_ops(db, mixed_ops(1500, seed=2))
    info = db.scheduler.describe()
    assert info["stall_causes"] == {}
    assert info["stall_events"] == 0


# -- snapshot algebra and export ---------------------------------------------------------

def test_merge_snapshots_sums_and_recomputes_quantiles():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("reqs", shard="0").inc(3)
    b.counter("reqs", shard="0").inc(4)
    a.gauge("depth").set(2)
    b.gauge("depth").set(5)
    for __ in range(99):
        a.histogram("lat").record(0.001)
    b.histogram("lat").record(1.0)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"] == [
        {"name": "reqs", "labels": {"shard": "0"}, "value": 7}]
    assert merged["gauges"] == [{"name": "depth", "labels": {}, "value": 7}]
    [hist] = merged["histograms"]
    assert hist["count"] == 100
    # p50 comes from the dense 1 ms shard; the merged buckets still hold
    # the 1 s outlier (rank 99) — recompute-over-merged-buckets behaviour
    # that averaging per-shard quantiles could never give.
    assert hist["quantiles"]["p50"] == pytest.approx(0.001, rel=0.01)
    from repro.obs import LogHistogram
    assert LogHistogram.from_dict(hist).quantile(1.0) == pytest.approx(
        1.0, rel=0.01)


def test_merge_snapshots_takes_max_of_high_water_gauges():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("queue_high_water").set(3)
    b.gauge("queue_high_water").set(2)
    a.counter("events").inc(4)
    b.counter("events").inc(5)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["gauges"] == [{"name": "queue_high_water", "labels": {}, "value": 3}]
    assert merged["counters"] == [{"name": "events", "labels": {}, "value": 9}]


_KINDS = ("flush", "merge", "gc", "scan_merge", "split")


@st.composite
def _store_registry_snapshots(draw) -> list[dict]:
    """Snapshots of registries holding the metrics the store views read."""
    snaps = []
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        reg = MetricsRegistry()
        for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=12)):
            reg.histogram("maintenance_job_seconds", kind=kind).record(
                draw(st.floats(min_value=1e-6, max_value=1.0)))
        for stall_type in draw(st.lists(st.sampled_from(("slowdown", "stop")),
                                        max_size=6)):
            reg.counter("write_stalls_total", type=stall_type,
                        cause=draw(st.sampled_from(_KINDS))).inc()
            reg.histogram("write_stall_seconds").record(
                draw(st.floats(min_value=1e-6, max_value=0.1)))
        reg.gauge("maintenance_queue_depth_high_water").set(
            draw(st.integers(min_value=0, max_value=9)))
        reg.counter("index_checkpoints_total").inc(draw(st.integers(0, 5)))
        reg.counter("hash_false_positive_probes_total").inc(draw(st.integers(0, 5)))
        snaps.append(reg.snapshot())
    return snaps


def _fieldwise(views: list[dict]) -> dict:
    """Sum every numeric leaf (dicts recurse), except high-water marks,
    which take the max."""
    out: dict = {}
    for view in views:
        for key, value in view.items():
            if isinstance(value, dict):
                out[key] = _fieldwise([out.get(key, {}), value])
            elif key.endswith("_high_water"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


@settings(max_examples=60, deadline=None)
@given(snaps=_store_registry_snapshots())
def test_view_of_merged_snapshots_is_fieldwise_merge_of_views(snaps):
    merged = merge_snapshots(snaps)
    for view in (core_view, write_stall_view):
        expected = _fieldwise([view(snap) for snap in snaps])
        got = view(merged)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-12), key


def test_prometheus_export_shape():
    reg = MetricsRegistry()
    reg.counter("unikv_ops_total", op="put").inc(5)
    reg.gauge("depth").set(3)
    reg.histogram("lat_seconds", op="get").record(0.25, n=4)
    text = snapshot_to_prometheus(reg.snapshot())
    assert "# TYPE unikv_ops_total counter" in text
    assert 'unikv_ops_total{op="put"} 5' in text
    assert "# TYPE depth gauge" in text
    assert "depth 3" in text
    assert "# TYPE lat_seconds summary" in text
    assert 'lat_seconds{op="get",quantile="0.5"}' in text
    assert 'lat_seconds_count{op="get"} 4' in text
    assert 'lat_seconds_sum{op="get"} 1' in text
