"""Experiment registry: one runner per paper table/figure (E1..E13).

Each function regenerates the rows/series of one evaluation artefact on the
simulated device, at a configurable scale.  The bench targets under
``benchmarks/`` call these with small scales; EXPERIMENTS.md records the
resulting shapes next to the paper's.

All engines are built with comparable scaled parameters (same memtable
size, same block size) so differences are design differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.report import format_series, format_table
from repro.bench.runner import run_workload
from repro.core import UniKV, UniKVConfig
from repro.lsm import (
    HyperLevelDBStore,
    KVStore,
    LevelDBStore,
    LSMConfig,
    PebblesDBStore,
    RocksDBStore,
    SkimpyStashStore,
    WiscKeyStore,
)
from repro.lsm.wisckey import WiscKeyConfig
from repro.workloads import (
    load_phase,
    mixed_read_write,
    scan_phase,
    update_phase,
    ycsb_run,
)
from repro.workloads.mixed import read_phase

#: the paper's comparison set (Fig. 7-11)
PAPER_ENGINES = ("LevelDB", "RocksDB", "HyperLevelDB", "PebblesDB", "UniKV")


def make_engine(name: str, **config_overrides) -> KVStore:
    """Build one engine with the standard scaled configuration."""
    if name == "UniKV":
        return UniKV(config=UniKVConfig(**config_overrides))
    if name == "WiscKey":
        return WiscKeyStore(config=WiscKeyConfig(**config_overrides))
    if name == "SkimpyStash":
        return SkimpyStashStore(**config_overrides)
    cls = {
        "LevelDB": LevelDBStore,
        "RocksDB": RocksDBStore,
        "HyperLevelDB": HyperLevelDBStore,
        "PebblesDB": PebblesDBStore,
    }[name]
    return cls(config=LSMConfig(**config_overrides))


@dataclass
class ExperimentResult:
    """Formatted text plus raw data for one experiment."""

    experiment: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ---------------------------------------------------------------------------
# E1 — motivation: hash-indexed store vs LevelDB as the dataset grows (Fig. 1)
# ---------------------------------------------------------------------------

def run_e1_motivation_hash_vs_lsm(sizes=(500, 2000, 8000), reads: int = 400,
                                  value_size: int = 100) -> ExperimentResult:
    """Fig.1 motivation: hash-indexed store vs LevelDB as data grows."""
    series: dict[str, list] = {"SkimpyStash load kops": [], "LevelDB load kops": [],
                               "SkimpyStash read kops": [], "LevelDB read kops": []}
    for n in sizes:
        for name in ("SkimpyStash", "LevelDB"):
            # The hash directory is sized for the smallest dataset (as a
            # deployment would be); growth lengthens its on-disk chains.
            kwargs = {"num_buckets": 1024} if name == "SkimpyStash" else {}
            store = make_engine(name, **kwargs)
            load = run_workload(store, load_phase(n, value_size), phase="load")
            read = run_workload(
                store, read_phase(n, reads, distribution="uniform"), phase="read")
            series[f"{name} load kops"].append(round(load.throughput_kops, 1))
            series[f"{name} read kops"].append(round(read.throughput_kops, 1))
    text = format_series("E1 (Fig.1) hash-index store vs LSM, growing dataset",
                         "records", list(sizes), series)
    return ExperimentResult("E1", "motivation: hash vs LSM scalability",
                            text, {"sizes": list(sizes), **series})


# ---------------------------------------------------------------------------
# E2 — motivation: SSTable access skew by level under Zipfian reads (Fig. 2)
# ---------------------------------------------------------------------------

def run_e2_access_skew(num_records: int = 6000, reads: int = 3000,
                       value_size: int = 100) -> ExperimentResult:
    """Fig.2 motivation: SSTable access skew by level under Zipfian reads."""
    store = make_engine("LevelDB")
    run_workload(store, load_phase(num_records, value_size), phase="load")
    store.record_accesses = True
    run_workload(store, read_phase(num_records, reads), phase="read")
    per_level = store.access_counts_by_level()
    total_tables = sum(t for __, t, ___ in per_level) or 1
    total_accesses = sum(a for __, ___, a in per_level) or 1
    rows = [
        {"level": lvl, "tables": t, "tables_%": round(100 * t / total_tables, 1),
         "accesses": a, "accesses_%": round(100 * a / total_accesses, 1)}
        for lvl, t, a in per_level if t
    ]
    text = format_table("E2 (Fig.2) SSTable access skew by level", rows)
    return ExperimentResult("E2", "motivation: access skew", text,
                            {"rows": rows})


# ---------------------------------------------------------------------------
# E3-E6 — microbenchmarks: load / read / scan / update (Fig. 7)
# ---------------------------------------------------------------------------

def _load_engines(engines, num_records, value_size):
    stores = {}
    loads = {}
    for name in engines:
        store = make_engine(name)
        loads[name] = run_workload(
            store, load_phase(num_records, value_size), phase="load")
        stores[name] = store
    return stores, loads


def run_e3_load(engines=PAPER_ENGINES, num_records: int = 5000,
                value_size: int = 512) -> ExperimentResult:
    """Fig.7a: random-load throughput + write amplification."""
    __, loads = _load_engines(engines, num_records, value_size)
    rows = [loads[name].as_row() for name in engines]
    text = format_table("E3 (Fig.7a) random load", rows)
    return ExperimentResult("E3", "microbench: load", text,
                            {name: loads[name].as_row() for name in engines})


def run_e4_read(engines=PAPER_ENGINES, num_records: int = 5000,
                reads: int = 2000, value_size: int = 512) -> ExperimentResult:
    """Fig.7b: Zipfian point-read throughput + device reads per op."""
    stores, __ = _load_engines(engines, num_records, value_size)
    rows = []
    for name in engines:
        metrics = run_workload(stores[name], read_phase(num_records, reads),
                               phase="read")
        rows.append(metrics.as_row())
    text = format_table("E4 (Fig.7b) point reads (Zipfian)", rows)
    return ExperimentResult("E4", "microbench: read", text,
                            {row["engine"]: row for row in rows})


def run_e5_scan(engines=PAPER_ENGINES, num_records: int = 5000,
                scans: int = 150, scan_length: int = 50,
                value_size: int = 512) -> ExperimentResult:
    """Fig.7c: range-scan throughput (entries/s)."""
    stores, __ = _load_engines(engines, num_records, value_size)
    rows = []
    for name in engines:
        metrics = run_workload(stores[name],
                               scan_phase(num_records, scans, scan_length),
                               phase="scan")
        row = metrics.as_row()
        row["kops"] = round(metrics.num_ops * scan_length
                            / metrics.modelled_seconds / 1000.0, 2)
        rows.append(row)
    text = format_table("E5 (Fig.7c) range scans (entries/s)", rows)
    return ExperimentResult("E5", "microbench: scan", text,
                            {row["engine"]: row for row in rows})


def run_e6_update(engines=PAPER_ENGINES, num_records: int = 5000,
                  updates: int = 10000, value_size: int = 512) -> ExperimentResult:
    """Fig.7d: update-heavy throughput with GC cost included."""
    stores, __ = _load_engines(engines, num_records, value_size)
    rows = []
    for name in engines:
        metrics = run_workload(stores[name],
                               update_phase(num_records, updates, value_size),
                               phase="update")
        rows.append(metrics.as_row())
    text = format_table("E6 (Fig.7d) updates (Zipfian, GC included)", rows)
    return ExperimentResult("E6", "microbench: update", text,
                            {row["engine"]: row for row in rows})


# ---------------------------------------------------------------------------
# E7 — mixed read/write workloads at varying read ratios (Fig. 8)
# ---------------------------------------------------------------------------

def run_e7_mixed(engines=PAPER_ENGINES, num_records: int = 4000,
                 ops: int = 4000, ratios=(0.1, 0.5, 0.9),
                 value_size: int = 512) -> ExperimentResult:
    """Fig.8: mixed read/write workloads at varying read ratios."""
    series = {name: [] for name in engines}
    for ratio in ratios:
        stores, __ = _load_engines(engines, num_records, value_size)
        for name in engines:
            metrics = run_workload(
                stores[name],
                mixed_read_write(num_records, ops, ratio, value_size),
                phase=f"mixed-{int(ratio * 100)}r")
            series[name].append(round(metrics.throughput_kops, 2))
    text = format_series("E7 (Fig.8) mixed workloads (kops)", "read_ratio",
                         [f"{int(r * 100)}%" for r in ratios], series)
    return ExperimentResult("E7", "mixed read/write ratios", text,
                            {"ratios": list(ratios), **series})


# ---------------------------------------------------------------------------
# E8 — YCSB core workloads A-F (Fig. 9)
# ---------------------------------------------------------------------------

def run_e8_ycsb(engines=PAPER_ENGINES, num_records: int = 3000,
                ops: int = 3000, value_size: int = 512,
                workloads=("A", "B", "C", "D", "E", "F")) -> ExperimentResult:
    """Fig.9: YCSB core workloads A-F."""
    series = {name: [] for name in engines}
    for workload in workloads:
        stores, __ = _load_engines(engines, num_records, value_size)
        for name in engines:
            metrics = run_workload(
                stores[name],
                ycsb_run(workload, num_records, ops, value_size),
                phase=f"ycsb-{workload}")
            series[name].append(round(metrics.throughput_kops, 2))
    text = format_series("E8 (Fig.9) YCSB core workloads (kops)", "workload",
                         list(workloads), series)
    return ExperimentResult("E8", "YCSB A-F", text,
                            {"workloads": list(workloads), **series})


# ---------------------------------------------------------------------------
# E9 — value-size sweep (Fig. 10)
# ---------------------------------------------------------------------------

def run_e9_value_size(engines=PAPER_ENGINES, total_bytes: int = 512 * 1024,
                      sizes=(64, 256, 1024, 4096),
                      reads: int = 1000) -> ExperimentResult:
    """Fig.10: value-size sweep at a fixed total data volume."""
    load_series = {name: [] for name in engines}
    read_series = {name: [] for name in engines}
    for size in sizes:
        num_records = max(200, total_bytes // size)
        for name in engines:
            store = make_engine(name)
            load = run_workload(store, load_phase(num_records, size), phase="load")
            read = run_workload(store, read_phase(num_records, reads), phase="read")
            load_series[name].append(round(load.throughput_kops, 2))
            read_series[name].append(round(read.throughput_kops, 2))
    text = (format_series("E9 (Fig.10) load kops vs value size", "value_size",
                          list(sizes), load_series)
            + format_series("E9 (Fig.10) read kops vs value size", "value_size",
                            list(sizes), read_series))
    return ExperimentResult("E9", "value-size sweep", text,
                            {"sizes": list(sizes), "load": load_series,
                             "read": read_series})


# ---------------------------------------------------------------------------
# E10 — scalability with dataset size (Fig. 11)
# ---------------------------------------------------------------------------

def run_e10_scalability(engines=PAPER_ENGINES, sizes=(1000, 4000, 16000),
                        reads: int = 1500,
                        value_size: int = 512) -> ExperimentResult:
    """Fig.11: scalability with dataset size (UniKV scales out)."""
    load_series = {name: [] for name in engines}
    read_series = {name: [] for name in engines}
    partitions = []
    for n in sizes:
        for name in engines:
            store = make_engine(name)
            load = run_workload(store, load_phase(n, value_size), phase="load")
            read = run_workload(store, read_phase(n, reads), phase="read")
            load_series[name].append(round(load.throughput_kops, 2))
            read_series[name].append(round(read.throughput_kops, 2))
            if name == "UniKV":
                partitions.append(store.num_partitions())
    text = (format_series("E10 (Fig.11) load kops vs dataset size", "records",
                          list(sizes), load_series)
            + format_series("E10 (Fig.11) read kops vs dataset size", "records",
                            list(sizes), read_series))
    return ExperimentResult("E10", "scalability with DB size", text,
                            {"sizes": list(sizes), "load": load_series,
                             "read": read_series,
                             "unikv_partitions": partitions})


# ---------------------------------------------------------------------------
# E11 — parameter sensitivity + hash-index memory overhead
# ---------------------------------------------------------------------------

def run_e11_sensitivity(num_records: int = 5000, reads: int = 1500,
                        value_size: int = 512,
                        unsorted_limits=(32 * 1024, 64 * 1024, 256 * 1024),
                        partition_limits=(320 * 1024, 640 * 1024, 2048 * 1024),
                        ) -> ExperimentResult:
    """UniKV parameter sensitivity: UnsortedLimit and partition limit sweeps."""
    rows = []
    for limit in unsorted_limits:
        # scan merges are disabled here to isolate the merge-frequency
        # effect (the two knobs interact at small table counts)
        store = make_engine("UniKV", unsorted_limit_bytes=limit,
                            scan_merge_limit=0)
        load = run_workload(store, load_phase(num_records, value_size), phase="load")
        read = run_workload(store, read_phase(num_records, reads), phase="read")
        rows.append({
            "knob": "unsorted_limit", "value_KB": limit // 1024,
            "load_kops": round(load.throughput_kops, 2),
            "read_kops": round(read.throughput_kops, 2),
            "merges": store.stats["merges"],
            "index_KB": round(store.index_memory_bytes() / 1024, 1),
            "partitions": store.num_partitions(),
        })
    for limit in partition_limits:
        store = make_engine("UniKV", partition_size_limit=limit)
        load = run_workload(store, load_phase(num_records, value_size), phase="load")
        read = run_workload(store, read_phase(num_records, reads), phase="read")
        rows.append({
            "knob": "partition_limit", "value_KB": limit // 1024,
            "load_kops": round(load.throughput_kops, 2),
            "read_kops": round(read.throughput_kops, 2),
            "merges": store.stats["merges"],
            "index_KB": round(store.index_memory_bytes() / 1024, 1),
            "partitions": store.num_partitions(),
        })
    text = format_table("E11 UniKV parameter sensitivity", rows)
    return ExperimentResult("E11", "parameter sensitivity", text, {"rows": rows})


def run_e11_index_memory(num_records_list=(1000, 4000, 16000),
                         value_size: int = 512) -> ExperimentResult:
    """Hash-index memory overhead as a fraction of data."""
    rows = []
    for n in num_records_list:
        store = make_engine("UniKV")
        run_workload(store, load_phase(n, value_size), phase="load")
        data = store.disk.total_bytes("sst-") + store.disk.total_bytes("vlog-")
        idx = store.index_memory_bytes()
        rows.append({
            "records": n,
            "data_KB": round(data / 1024, 1),
            "index_KB": round(idx / 1024, 2),
            "index_%_of_data": round(100 * idx / data, 2) if data else 0.0,
        })
    text = format_table("E11b hash-index memory overhead", rows)
    return ExperimentResult("E11b", "index memory overhead", text, {"rows": rows})


# ---------------------------------------------------------------------------
# E12 — crash recovery cost
# ---------------------------------------------------------------------------

def run_e12_recovery(num_records: int = 5000, value_size: int = 512) -> ExperimentResult:
    """Crash-recovery cost: UniKV vs LevelDB."""
    rows = []
    for name in ("UniKV", "LevelDB"):
        store = make_engine(name)
        run_workload(store, load_phase(num_records, value_size), phase="load")
        clone = store.disk.clone()
        recovered = type(store)(disk=clone, config=store.config)
        # Read before the verification gets below add their own I/O.
        seconds = clone.stats.seconds
        ok = all(
            recovered.get(key) == store.get(key)
            for key in (b"user%012d" % i for i in range(0, num_records, 97))
        )
        rows.append({
            "engine": name,
            "records": num_records,
            "recovery_read_KB": round(clone.stats.read_bytes / 1024, 1),
            "recovery_modelled_ms": round(seconds * 1000, 2),
            "data_KB": round(store.disk.total_bytes() / 1024, 1),
            "correct": ok,
        })
    text = format_table("E12 crash-recovery cost", rows)
    return ExperimentResult("E12", "recovery cost", text, {"rows": rows})


# ---------------------------------------------------------------------------
# E13 — design ablations
# ---------------------------------------------------------------------------

def run_e13_ablations(num_records: int = 4000, updates: int = 6000,
                      scans: int = 100, scan_length: int = 50,
                      value_size: int = 512) -> ExperimentResult:
    """Design ablations: each UniKV mechanism toggled off."""
    deep = 256 * 1024  # a deep UnsortedStore makes the scan-merge effect visible
    variants = {
        "UniKV (full)": {},
        "no partial KV sep": {"partial_kv_separation": False},
        "no range partitioning": {"partition_size_limit": 1 << 60},
        "scan merge on (deep unsorted)": {"unsorted_limit_bytes": deep},
        "scan merge off (deep unsorted)": {"unsorted_limit_bytes": deep,
                                           "scan_merge_limit": 0},
    }
    rows = []
    for label, overrides in variants.items():
        store = make_engine("UniKV", **overrides)
        load = run_workload(store, load_phase(num_records, value_size), phase="load")
        update = run_workload(store,
                              update_phase(num_records, updates, value_size),
                              phase="update")
        scan = run_workload(store, scan_phase(num_records, scans, scan_length),
                            phase="scan")
        rows.append({
            "variant": label,
            "load_kops": round(load.throughput_kops, 2),
            "update_kops": round(update.throughput_kops, 2),
            "scan_entries_kops": round(scans * scan_length
                                       / scan.modelled_seconds / 1000.0, 2),
            "write_amp": round(update.write_amplification, 2),
            "partitions": store.num_partitions(),
        })
    # Selective KV separation (the paper's suggested small-KV extension)
    # only matters for small values; compare at 16-byte values.
    for label, overrides in (
            ("small values, separated", {}),
            ("small values, inline<64B", {"inline_value_threshold": 64})):
        store = make_engine("UniKV", **overrides)
        load = run_workload(store, load_phase(num_records, 16), phase="load")
        update = run_workload(store, update_phase(num_records, updates, 16),
                              phase="update")
        scan = run_workload(store, scan_phase(num_records, scans, scan_length),
                            phase="scan")
        rows.append({
            "variant": label,
            "load_kops": round(load.throughput_kops, 2),
            "update_kops": round(update.throughput_kops, 2),
            "scan_entries_kops": round(scans * scan_length
                                       / scan.modelled_seconds / 1000.0, 2),
            "write_amp": round(update.write_amplification, 2),
            "partitions": store.num_partitions(),
        })
    text = format_table("E13 design ablations", rows)
    return ExperimentResult("E13", "ablations", text, {"rows": rows})


# ---------------------------------------------------------------------------
# E14 — GC policy comparison: UniKV vs WiscKey (extension experiment)
# ---------------------------------------------------------------------------

def run_e14_gc_comparison(num_records: int = 3000, updates: int = 9000,
                          value_size: int = 512) -> ExperimentResult:
    """Contrast the two KV-separation GC designs under heavy updates.

    WiscKey frees the log strictly from its tail and must query the LSM
    for every record's liveness; UniKV picks any partition greedily and
    derives liveness from one SortedStore scan — no index queries at all.
    """
    live_bytes = num_records * (value_size + 32)
    rows = []
    for name in ("WiscKey", "UniKV"):
        if name == "WiscKey":
            # Give the circular log headroom over the live set (as a real
            # deployment would); GC reclaims the update garbage above it.
            store = make_engine(name, vlog_size_limit=int(live_bytes * 1.4),
                                vlog_segment_size=64 * 1024)
        else:
            store = make_engine(name)
        run_workload(store, load_phase(num_records, value_size), phase="load")
        metrics = run_workload(store,
                               update_phase(num_records, updates, value_size),
                               phase="update")
        stats = store.disk.stats
        rows.append({
            "engine": name,
            "update_kops": round(metrics.throughput_kops, 2),
            "write_amp": round(metrics.write_amplification, 2),
            "gc_runs": store.scheduler.describe()["job_counts"].get("gc", 0),
            "gc_index_queries": stats.ops_for(op="read", tag="gc_lookup"),
            "gc_MB": round((stats.bytes_for(op="read", tag="gc")
                            + stats.bytes_for(op="write", tag="gc")) / 1048576, 2),
        })
    text = format_table("E14 GC policy: UniKV vs WiscKey (update-heavy)", rows)
    return ExperimentResult("E14", "GC comparison", text,
                            {row["engine"]: row for row in rows})


# ---------------------------------------------------------------------------
# E15 — tail latency under a mixed workload (extension experiment)
# ---------------------------------------------------------------------------

def run_e15_tail_latency(engines=("LevelDB", "RocksDB", "UniKV"),
                         num_records: int = 4000, ops: int = 4000,
                         value_size: int = 512,
                         background_threads: int = 0) -> ExperimentResult:
    """Modelled per-op latency percentiles: where foreground stalls live.

    Median latencies are memtable/cache hits for everyone; the tails are
    each design's maintenance stalls (compaction cascades for the LSMs,
    merge/GC/split for UniKV).  With ``background_threads >= 1`` the
    maintenance runs on scheduler lanes instead and the tail becomes the
    scheduler's slowdown/stop backpressure stalls.
    """
    rows = []
    for name in engines:
        store = make_engine(name, background_threads=background_threads)
        run_workload(store, load_phase(num_records, value_size), phase="load")
        metrics = run_workload(
            store, mixed_read_write(num_records, ops, 0.5, value_size),
            phase="mixed")
        row = {"engine": name}
        for op_kind in ("read", "update"):
            for pct, label in ((50, "p50"), (99, "p99"), (99.9, "p999")):
                row[f"{op_kind}_{label}_us"] = round(
                    metrics.latency_us(op_kind, pct), 1)
        row["stall_ms"] = round(metrics.stall_seconds * 1000, 2)
        rows.append(row)
    title = "E15 tail latency, 50/50 mixed (modelled us)"
    if background_threads:
        title += f" [bg={background_threads}]"
    text = format_table(title, rows)
    return ExperimentResult("E15", "tail latency", text,
                            {row["engine"]: row for row in rows})


# ---------------------------------------------------------------------------
# E16 — background maintenance overlap: scheduler lanes vs synchronous
# ---------------------------------------------------------------------------

def run_e16_background_overlap(engines=("LevelDB", "RocksDB", "PebblesDB",
                                        "UniKV"),
                               num_records: int = 4000, updates: int = 6000,
                               value_size: int = 512,
                               background_threads: int = 2) -> ExperimentResult:
    """Maintenance-scheduler overlap: each engine at bg=0 vs bg=N.

    On-disk state is identical in both modes (jobs run at the same
    trigger points); what changes is the device-time accounting — with
    background lanes, maintenance overlaps the foreground and throughput
    rises until the backpressure thresholds push stall time back into the
    foreground path.
    """
    rows = []
    for name in engines:
        for bg in (0, background_threads):
            store = make_engine(name, background_threads=bg)
            load = run_workload(store, load_phase(num_records, value_size),
                                phase="load")
            update = run_workload(
                store, update_phase(num_records, updates, value_size),
                phase="update")
            stats = store.scheduler.describe()
            rows.append({
                "engine": name,
                "bg": bg,
                "load_kops": round(load.throughput_kops, 2),
                "update_kops": round(update.throughput_kops, 2),
                "write_amp": round(update.write_amplification, 2),
                "stall_ms": round(stats["stall_seconds"] * 1000, 2),
                "stalls": stats["stall_events"],
                "queue_hw": stats["queue_depth_high_water"],
                "jobs": sum(stats["job_counts"].values()),
            })
    text = format_table(
        f"E16 background overlap (bg=0 vs bg={background_threads})", rows)
    data = {f"{row['engine']}/bg{row['bg']}": row for row in rows}
    return ExperimentResult("E16", "background overlap", text, data)


ALL_EXPERIMENTS = {
    "E1": run_e1_motivation_hash_vs_lsm,
    "E2": run_e2_access_skew,
    "E3": run_e3_load,
    "E4": run_e4_read,
    "E5": run_e5_scan,
    "E6": run_e6_update,
    "E7": run_e7_mixed,
    "E8": run_e8_ycsb,
    "E9": run_e9_value_size,
    "E10": run_e10_scalability,
    "E11": run_e11_sensitivity,
    "E11b": run_e11_index_memory,
    "E12": run_e12_recovery,
    "E13": run_e13_ablations,
    "E14": run_e14_gc_comparison,
    "E15": run_e15_tail_latency,
    "E16": run_e16_background_overlap,
}
