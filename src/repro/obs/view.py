"""The STATS and DESCRIBE dicts, read off registry snapshots.

Every count a store, scheduler or server keeps lives in its
:class:`~repro.obs.registry.MetricsRegistry`.  This module is the one
place that turns a snapshot into the plain dicts that STATS, DESCRIBE,
``MaintenanceScheduler.describe()``, the bench reports and the CLI print.
A view reads one shard's snapshot and
:func:`~repro.obs.registry.merge_snapshots` of every shard's alike, so
per-shard and aggregate numbers follow one aggregation rule.
"""

from __future__ import annotations

#: ``core`` key -> the maintenance job kind whose runs it counts
CORE_JOBS = {"flushes": "flush", "merges": "merge", "scan_merges": "scan_merge",
             "gc_runs": "gc", "splits": "split"}


def counter_total(snapshot: dict, name: str) -> float:
    """Sum of the ``name`` counters over all label sets."""
    return sum(entry["value"] for entry in snapshot.get("counters", ())
               if entry["name"] == name)


def _job_histograms(snapshot: dict) -> dict[str, dict]:
    return {entry["labels"]["kind"]: entry for entry in snapshot.get("histograms", ())
            if entry["name"] == "maintenance_job_seconds"}


def write_stall_view(snapshot: dict) -> dict:
    """Maintenance jobs and write stalls (STATS ``write_stall``).

    Job counts and seconds are ``maintenance_job_seconds{kind}``'s count
    and sum; stall events and seconds are ``write_stall_seconds``'s count
    and sum; causes are ``write_stalls_total{type,cause}``.
    """
    jobs = _job_histograms(snapshot)
    stalls = next((entry for entry in snapshot.get("histograms", ())
                   if entry["name"] == "write_stall_seconds"), None)
    high_water = next((entry["value"] for entry in snapshot.get("gauges", ())
                       if entry["name"] == "maintenance_queue_depth_high_water"), 0)
    return {
        "stall_seconds": stalls["sum"] if stalls else 0.0,
        "stall_events": stalls["count"] if stalls else 0,
        "queue_depth_high_water": high_water,
        "job_counts": {kind: entry["count"] for kind, entry in jobs.items()},
        "job_seconds": {kind: entry["sum"] for kind, entry in jobs.items()},
        "stall_causes": {
            f"{entry['labels']['type']}:{entry['labels']['cause']}": entry["value"]
            for entry in snapshot.get("counters", ()) if entry["name"] == "write_stalls_total"},
    }


def core_view(snapshot: dict) -> dict:
    """A UniKV store's structural event counts (STATS ``core``,
    DESCRIBE ``stats``)."""
    jobs = _job_histograms(snapshot)
    view = {key: jobs[kind]["count"] if kind in jobs else 0
            for key, kind in CORE_JOBS.items()}
    view["index_checkpoints"] = counter_total(snapshot, "index_checkpoints_total")
    view["hash_false_positive_probes"] = counter_total(
        snapshot, "hash_false_positive_probes_total")
    return view


def server_view(snapshot: dict) -> dict:
    """The server's request counts (STATS ``server``): each
    ``server_<key>_total`` counter as ``key``."""
    return {entry["name"][len("server_"):-len("_total")]: entry["value"]
            for entry in snapshot.get("counters", ())
            if entry["name"].startswith("server_") and entry["name"].endswith("_total")}
