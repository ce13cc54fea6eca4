"""End-to-end STATS observability: sharded server, both clients.

Drives a two-shard KVServer with traffic from the async and the blocking
client, then checks that ``client.stats()`` exposes the obs section: shard-
merged per-op latency quantiles, stall-cause counters aggregated across
shards, the server's own request-latency histograms, and that the merged
view equals merging the per-shard registries directly.
"""

import asyncio
import os
import pathlib
import socket
import subprocess
import sys

from repro.obs import merge_snapshots
from repro.obs.render import render_periodic_dump, render_stats
from repro.service.client import AsyncKVClient, KVClient
from repro.workloads import load_phase, make_key, ycsb_run
from tests.conftest import tiny_unikv_config
from tests.test_service_server import make_sharded_server


def stall_config():
    return tiny_unikv_config(background_threads=1, slowdown_trigger=1,
                             stop_trigger=2)


def hist_quantiles(snapshot: dict, name: str, **labels):
    """Quantile dicts of every histogram entry matching name + labels."""
    return [entry["quantiles"] for entry in snapshot["histograms"]
            if entry["name"] == name
            and all(entry["labels"].get(k) == v for k, v in labels.items())]


def test_stats_exposes_obs_across_shards_and_clients():
    asyncio.run(_stats_e2e())


async def _stats_e2e():
    num_records = 400
    server = make_sharded_server(num_shards=2, boundary_at=num_records // 2,
                                 config=stall_config())
    await server.start()

    # Traffic source 1: the async client (writes + point reads + scans).
    async with AsyncKVClient(port=server.port) as client:
        for op in load_phase(num_records, value_size=60):
            await client.put(op[1], op[2])
        for op in ycsb_run("A", num_records, 300, value_size=60, seed=8):
            if op[0] == "read":
                await client.get(op[1])
            elif op[0] in ("update", "insert"):
                await client.put(op[1], op[2])
        await client.scan(make_key(0), 25)

        # Traffic source 2: the blocking client on its own thread (the
        # asyncio server must keep serving while it blocks).
        def sync_traffic():
            with KVClient(port=server.port) as sync_client:
                for i in range(0, num_records, 7):
                    assert sync_client.get(make_key(i)) is not None
                sync_client.delete(make_key(1))
                return sync_client.stats()

        payload = await asyncio.to_thread(sync_traffic)

        # -- store-side obs: shard-merged per-op latency quantiles --------------
        stores = payload["obs"]["stores"]
        # Every put pays at least its WAL append on the modelled device.
        put_quantiles = hist_quantiles(stores, "unikv_op_seconds", op="put")
        assert put_quantiles
        for quantiles in put_quantiles:
            assert quantiles["p99"] >= quantiles["p50"] > 0
        # Memtable-hit gets cost exactly 0 modelled seconds, so only the
        # tail (table/vlog reads) is necessarily positive.
        get_quantiles = hist_quantiles(stores, "unikv_op_seconds", op="get")
        assert get_quantiles
        assert max(q["p99"] for q in get_quantiles) > 0
        assert hist_quantiles(stores, "maintenance_job_seconds", kind="flush")

        # The merged view is exactly merge_snapshots over the live shards.
        assert stores == server.router.metrics_snapshot()
        assert server.router.metrics_snapshot() == merge_snapshots(
            [store.metrics_snapshot() for store in server.router.stores])

        # -- stall causes aggregate across shards (dict-summing router) ---------
        agg_causes = payload["aggregate"]["write_stall"]["stall_causes"]
        assert agg_causes
        for cause, count in agg_causes.items():
            assert count == sum(
                shard["write_stall"]["stall_causes"].get(cause, 0)
                for shard in payload["shards"])
        stall_counters = [e for e in stores["counters"]
                          if e["name"] == "write_stalls_total"]
        assert sum(e["value"] for e in stall_counters) == sum(agg_causes.values())

        # -- server-side obs: wall-clocked request latency ----------------------
        server_obs = payload["obs"]["server"]
        for op_label in ("put", "get", "scan", "delete"):
            assert any(q["p50"] > 0 for q in hist_quantiles(
                server_obs, "server_request_seconds", op=op_label))
        # A STATS request records itself only after responding, so it shows
        # up in the live registry, not in its own payload.
        assert len(server.metrics.histogram(
            "server_request_seconds", op="stats")) == 1
        [depth] = [e for e in server_obs["gauges"]
                   if e["name"] == "server_inflight_requests_high_water"]
        assert depth["value"] >= 1

        # Both renderers accept a real payload end to end.
        report = render_stats(payload)
        assert "store op latency" in report and "write stalls" in report
        assert "slowdown:" in report or "stop:" in report
        assert render_periodic_dump(payload).startswith("[stats] requests=")

    await server.stop()


def test_stats_cli_reports_unreachable_server_without_traceback():
    """The client gives up with TransientError once its retries run out;
    the CLI reports that as one line and exit 1, not a traceback."""
    with socket.socket() as sock:  # a port that was free a moment ago
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "stats", "--port", str(port), "--timeout", "0.5"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert f"cannot reach 127.0.0.1:{port}" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
