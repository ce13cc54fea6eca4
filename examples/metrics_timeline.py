#!/usr/bin/env python3
"""Scenario: metrics ingestion with range-scan dashboards.

A monitoring pipeline appends time-ordered samples (`<metric>:<timestamp>`)
and dashboards issue range scans over recent windows — the insert-heavy,
scan-dependent mix that pure hash indexes cannot serve at all and
write-optimized LSM variants serve slowly.

Shows UniKV's scan optimizations at work: the size-based merge keeps the
UnsortedStore scannable, dynamic range partitioning confines each scan to
one partition, and value fetches are batched (the modelled 32-thread pool +
readahead).

Run:  python examples/metrics_timeline.py
"""

import random

from repro import PebblesDBStore, UniKV
from repro.bench import format_table, run_workload


def ingest(num_metrics: int, samples_per_metric: int, seed: int = 3):
    rng = random.Random(seed)
    for t in range(samples_per_metric):
        for metric in range(num_metrics):
            key = b"m%04d:%010d" % (metric, t)
            yield ("insert", key, rng.randbytes(64))


def dashboards(num_metrics: int, samples_per_metric: int, num_queries: int,
               window: int = 60, seed: int = 4):
    rng = random.Random(seed)
    for __ in range(num_queries):
        metric = rng.randrange(num_metrics)
        t0 = rng.randrange(max(1, samples_per_metric - window))
        yield ("scan", b"m%04d:%010d" % (metric, t0), window)


def main() -> None:
    num_metrics, samples, queries = 40, 400, 150
    rows = []
    for store in (UniKV(), PebblesDBStore()):
        ingest_metrics = run_workload(store, ingest(num_metrics, samples),
                                      phase="ingest")
        scan_metrics = run_workload(
            store, dashboards(num_metrics, samples, queries), phase="scan")
        rows.append({
            "engine": store.name,
            "ingest_kops": round(ingest_metrics.throughput_kops, 1),
            "ingest_write_amp": round(ingest_metrics.write_amplification, 2),
            "scan_entries/s": round(queries * 60 / scan_metrics.modelled_seconds),
        })
        if isinstance(store, UniKV):
            stats = store.stats
            print(f"UniKV structure: {store.num_partitions()} partitions, "
                  f"{stats['scan_merges']} size-based scan merges, "
                  f"{stats['splits']} range splits")
        store.close()
    print()
    print(format_table("metrics pipeline: sequential ingest + window scans",
                       rows))
    print("UniKV ingests with the lowest write amplification while keeping")
    print("scans in the same league as the fragmented LSM — the balanced")
    print("profile the paper targets for mixed workloads.")


if __name__ == "__main__":
    main()
