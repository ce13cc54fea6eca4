"""Human-readable rendering of a STATS payload (``python -m repro stats``).

The server's STATS response carries the per-shard and aggregate store
views and the server's counters (all read off registry snapshots by
:mod:`repro.obs.view`), plus two registry snapshots under ``"obs"``: the
per-shard store registries merged by the router (modelled latencies on the
virtual clock) and the server's own wall-clocked registry.  This module turns that JSON into the
terminal summary the CLI prints, and the compact periodic dump the server
emits with ``--stats-interval``.
"""

from __future__ import annotations

from repro.obs.histogram import LogHistogram
from repro.obs.view import counter_total

_LATENCY_QS = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))


def _hist_entries(snapshot: dict, name: str) -> list[dict]:
    return [entry for entry in snapshot.get("histograms", ())
            if entry["name"] == name]


def _merged_by_label(entries: list[dict], label: str) -> dict[str, LogHistogram]:
    """Group histogram entries by one label's value, merging the rest."""
    out: dict[str, LogHistogram] = {}
    for entry in entries:
        group = entry["labels"].get(label, "-")
        hist = LogHistogram.from_dict(entry)
        if group in out:
            out[group].merge(hist)
        else:
            out[group] = hist
    return out


def _latency_rows(title: str, hists: dict[str, LogHistogram],
                  unit_scale: float = 1e6, unit: str = "us") -> list[str]:
    if not hists:
        return []
    lines = [title,
             f"  {'op':<10s} {'count':>8s} " +
             " ".join(f"{label + '_' + unit:>12s}" for label, __ in _LATENCY_QS)]
    for group in sorted(hists):
        hist = hists[group]
        if not hist.count:
            continue
        cells = " ".join(f"{hist.quantile(q) * unit_scale:12.1f}"
                         for __, q in _LATENCY_QS)
        lines.append(f"  {group:<10s} {hist.count:8d} {cells}")
    return lines


def render_stats(payload: dict) -> str:
    """The CLI's one-shot summary of a server STATS response."""
    lines: list[str] = []
    shards = payload.get("shards", [])
    aggregate = payload.get("aggregate", {})
    server = payload.get("server", {})
    obs = payload.get("obs", {})
    stores = obs.get("stores", {})
    server_obs = obs.get("server", {})

    lines.append(f"shards: {len(shards)}   "
                 f"partitions: {aggregate.get('partitions', '?')}   "
                 f"server requests: {server.get('requests', '?')}   "
                 f"connections: {server.get('connections', '?')}")

    op_entries = _hist_entries(stores, "unikv_op_seconds")
    lines.extend(_latency_rows("\nstore op latency (modelled, all shards):",
                               _merged_by_label(op_entries, "op")))
    get_paths = _merged_by_label(
        [e for e in op_entries if e["labels"].get("op") == "get"], "path")
    if len(get_paths) > 1:
        lines.extend(_latency_rows("\n  get by path:", get_paths))

    lines.extend(_latency_rows(
        "\nserver request latency (wall clock):",
        _merged_by_label(_hist_entries(server_obs, "server_request_seconds"),
                         "op")))

    write_stall = aggregate.get("write_stall", {})
    stall_causes = write_stall.get("stall_causes", {})
    lines.append(f"\nwrite stalls: {write_stall.get('stall_events', 0)} events, "
                 f"{write_stall.get('stall_seconds', 0.0) * 1000:.2f} ms injected")
    for cause in sorted(stall_causes):
        lines.append(f"  {cause}: {stall_causes[cause]}")

    job_counts = write_stall.get("job_counts", {})
    if job_counts:
        jobs = "  ".join(f"{kind}={job_counts[kind]}"
                         for kind in sorted(job_counts))
        lines.append(f"maintenance jobs: {jobs}")

    hits = counter_total(stores, "block_cache_hits_total")
    misses = counter_total(stores, "block_cache_misses_total")
    if hits or misses:
        lines.append(f"block cache: {hits} hits / {misses} misses "
                     f"({100.0 * hits / (hits + misses):.1f}% hit rate)")
    vlog_reads = counter_total(stores, "vlog_reads_total")
    if vlog_reads:
        lines.append(f"vlog point reads: {vlog_reads} "
                     f"({counter_total(stores, 'vlog_read_bytes_total')} bytes)")
    delayed = server.get("delayed_writes", 0)
    shed = server.get("shed_writes", 0)
    if delayed or shed:
        lines.append(f"admission control: {delayed} delayed, {shed} shed")
    return "\n".join(lines)


def render_periodic_dump(payload: dict) -> str:
    """Compact multi-line dump the server prints every ``--stats-interval``."""
    aggregate = payload.get("aggregate", {})
    server = payload.get("server", {})
    write_stall = aggregate.get("write_stall", {})
    head = (f"[stats] requests={server.get('requests', 0)} "
            f"partitions={aggregate.get('partitions', 0)} "
            f"stall_events={write_stall.get('stall_events', 0)} "
            f"delayed={server.get('delayed_writes', 0)} "
            f"shed={server.get('shed_writes', 0)}")
    hists = _merged_by_label(
        _hist_entries(payload.get("obs", {}).get("server", {}),
                      "server_request_seconds"), "op")
    parts = []
    for op in sorted(hists):
        hist = hists[op]
        if hist.count:
            parts.append(f"{op} p99={hist.quantile(0.99) * 1e3:.2f}ms")
    if parts:
        head += "  " + " ".join(parts)
    return head
