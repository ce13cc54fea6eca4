"""Regression: histogram-backed bench latencies match raw-sample percentiles.

``RunMetrics.latencies`` used to accumulate every per-op modelled second in
an unbounded ``list[float]``; it is now a bounded
:class:`~repro.obs.LogHistogram` per op kind.  These tests re-derive the
raw samples for the identical deterministic workload on an identically
seeded store and check the histogram percentiles agree with the raw
rank-based percentiles within the histogram's relative error.
"""

import math
import random

import pytest

from repro.bench import run_workload
from repro.bench.runner import DEFAULT_CPU_US_PER_OP
from repro.core import UniKV
from repro.obs import DEFAULT_RELATIVE_ERROR, LogHistogram
from repro.workloads import load_phase, ycsb_run
from tests.conftest import tiny_unikv_config


def raw_latencies(ops) -> dict[str, list[float]]:
    """The pre-histogram collection: per-op modelled seconds as lists.

    Reproduces run_workload's measurement (synchronous mode: per-op disk
    delta through the effective cost model plus the fixed CPU cost) by
    running each op individually on an identically configured store.
    """
    from repro.bench.runner import (
        DEFAULT_CPU_US_PER_OP,
        effective_cost_model,
        execute_ops,
    )
    from repro.env.cost_model import DeviceCostModel

    store = UniKV(config=tiny_unikv_config())
    model = effective_cost_model(store, DeviceCostModel())
    out: dict[str, list[float]] = {}
    cursor = store.disk.stats.snapshot()
    for op in ops:
        execute_ops(store, [op])
        now = store.disk.stats.snapshot()
        seconds = (model.seconds(now.delta_since(cursor))
                   + DEFAULT_CPU_US_PER_OP * 1e-6)
        out.setdefault(op[0], []).append(seconds)
        cursor = now
    return out


def mixed_workload():
    ops = list(load_phase(1200, value_size=60))
    ops += list(ycsb_run("A", 1200, 400, value_size=60, seed=21))
    return ops


def test_histogram_percentiles_match_raw_samples():
    ops = mixed_workload()
    metrics = run_workload(UniKV(config=tiny_unikv_config()), ops,
                           phase="mixed", collect_latencies=True)
    raw = raw_latencies(ops)
    assert set(metrics.latencies) == set(raw)
    for kind, samples in raw.items():
        hist = metrics.latencies[kind]
        assert isinstance(hist, LogHistogram)
        assert len(hist) == len(samples)
        assert hist.sum == pytest.approx(sum(samples), rel=1e-9)
        ordered = sorted(samples)
        for pct in (50.0, 90.0, 99.0, 99.9):
            truth = ordered[math.floor(pct / 100.0 * (len(ordered) - 1))]
            estimate = metrics.latency_us(kind, pct) / 1e6
            assert estimate == pytest.approx(
                truth, rel=DEFAULT_RELATIVE_ERROR)


def test_latency_memory_is_bounded_by_buckets_not_samples():
    ops = list(load_phase(3000, value_size=40))
    metrics = run_workload(UniKV(config=tiny_unikv_config()), ops,
                           phase="load", collect_latencies=True)
    hist = metrics.latencies["insert"]
    assert hist.count == 3000
    # The whole point of the change: storage grows with distinct latency
    # magnitudes (log buckets), not with the op count.
    assert len(hist.buckets) < 300


def test_scan_latency_is_one_clock_for_bench_and_store():
    # The bench's per-op latency and the store's own op span price a scan
    # with the same device model: they differ only by the bench's fixed CPU
    # cost per op, within the histograms' bucket error.
    rng = random.Random(11)
    db = UniKV()
    load = [("insert", b"user%08d" % rng.randrange(60_000), rng.randbytes(100))
            for __ in range(30_000)]
    run_workload(db, load, phase="load")
    scans = [("scan", b"user%08d" % rng.randrange(60_000), 50) for __ in range(300)]
    metrics = run_workload(db, scans, phase="scan", collect_latencies=True)
    store_hist = db.metrics.histogram("unikv_op_seconds", op="scan")
    assert store_hist.count == len(scans)
    for pct in (50.0, 99.0):
        bench_us = metrics.latency_us("scan", pct)
        store_us = store_hist.quantile(pct / 100.0) * 1e6
        assert abs(bench_us - store_us) <= (DEFAULT_RELATIVE_ERROR * store_us
                                            + DEFAULT_CPU_US_PER_OP), (pct, bench_us, store_us)
