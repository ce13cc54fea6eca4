"""End-to-end benchmark of the sharded UniKV server over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-b --seed 1 --seconds 20 --trace 0

Each run starts ``python -m repro serve`` with four range shards as a child
process, loads 20,000 records over one connection, then drives four
closed-loop clients (one request in flight each, one connection each) with
the chosen traffic mix.  A one-second warm-up precedes the measured
window.  Every reply is checked against the benchmark's model of what was
written (see ``workloads.py``), and a seeded sample of records is read
back once the clients stop.  The last line printed is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``server_cpu_us_per_op``: the server process's CPU time (user plus
  system, from ``/proc/<pid>/stat``) over the window, per key-value
  operation (a batch counts each of its puts);
* ``modelled_us_per_op``: modelled device microseconds per key-value
  operation, from the stores' own latency histograms on the virtual clock;
* ``setup_s``: the server's CPU time from its start to the end of the
  load, the median of several set-ups.

It also prints the wall-clock set-up times and throughput, and each
request kind's latency quantiles.

``--trace 1`` runs the server under ``traced_server.py`` instead and
reports per-layer numbers over the window: each layer's self time and
calls per operation, server CPU time, client-side wait, cache hit ratios,
device traffic and the maintenance jobs that ran.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SHARDS = 4
BOUNDARIES = "user4,user8,userc"
SETUPS = 3
WARMUP_S = 1.0
TRACED_LAYERS = ("protocol", "server", "router", "store", "maintenance",
                 "clock", "engine", "device", "obs")
JOB_KINDS = {"flush": "flushes", "merge": "merges", "gc": "gc_runs",
             "scan_merge": "scan_merges", "split": "splits"}


def _cpus() -> tuple[set[int], set[int]] | None:
    """(server CPUs, client CPUs): one CPU each when two are available.

    Pinning keeps the server and the clients from sharing a CPU until the
    kernel migrates one of them, which otherwise slows the first seconds
    of a run by up to half.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, {cpus[1]}) if len(cpus) >= 2 else None


CPUS = _cpus()


class Server:
    """``python -m repro serve`` (or its traced twin) as a child process."""

    def __init__(self, trace: bool) -> None:
        entry = [str(HERE / "traced_server.py")] if trace else ["-m", "repro"]
        cmd = [sys.executable, *entry, "serve", "--port", "0",
               "--shards", str(SHARDS), "--boundaries", BOUNDARIES]
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                                     stdout=subprocess.PIPE, text=True)
        if CPUS is not None:
            os.sched_setaffinity(self.proc.pid, CPUS[0])
        ready, __, __ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "serving" not in line:
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> bool:
        """Graceful drain via SIGINT; True if it completed cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, __ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        return self.proc.returncode == 0 and "shutdown complete" in out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def cpu_s(pid: int) -> float:
    """CPU seconds (user plus system) of process ``pid``'s live threads so
    far, read at nanosecond resolution from the scheduler (Linux
    ``schedstat``), where ``/proc/<pid>/stat`` only counts 10 ms ticks."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/schedstat") as f:
            total += int(f.read().split()[0])
    return total / 1e9


def load(model, port: int) -> None:
    from repro.service.client import KVClient
    from workloads import BATCH

    with KVClient(port=port, timeout=30.0) as client:
        client.ping(b"perfbench")
        for pos in range(0, model.loaded, BATCH):
            ops = [("put", model.keys[i], model.value(i, 0))
                   for i in range(pos, min(pos + BATCH, model.loaded))]
            if client.write_batch(ops) != len(ops):
                raise RuntimeError("load batch not fully applied")


def stats(port: int) -> dict:
    from repro.service.client import KVClient

    with KVClient(port=port, timeout=30.0) as client:
        return client.stats()


def _hist_sum(payload: dict, name: str) -> float:
    return sum(h["sum"] for h in payload["obs"]["stores"]["histograms"] if h["name"] == name)


def _counter(payload: dict, name: str) -> float:
    return sum(c["value"] for c in payload["obs"]["stores"]["counters"] if c["name"] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(samples, before: dict, after: dict, server_cpu: float) -> dict:
    ops = sum(done[2] for done in samples.done)
    modelled = _hist_sum(after, "unikv_op_seconds") - _hist_sum(before, "unikv_op_seconds")
    return {"server_cpu_us_per_op": (_ratio(server_cpu, ops) * 1e6, "us"),
            "modelled_us_per_op": (_ratio(modelled, ops) * 1e6, "us")}


def per_layer(samples, start: float, deadline: float, before: dict, after: dict,
              user_bytes: int, server_cpu: float) -> dict:
    ops = sum(done[2] for done in samples.done)
    requests = len(samples.done)
    pb0, pb1 = before["perfbench"], after["perfbench"]
    spans = {}
    for layer in TRACED_LAYERS:
        c0, s0, t0 = pb0["spans"].get(layer, (0, 0.0, 0.0))
        c1, s1, t1 = pb1["spans"].get(layer, (0, 0.0, 0.0))
        spans[layer] = (c1 - c0, s1 - s0, t1 - t0)
    out = {}
    for layer, (calls, self_s, __) in spans.items():
        out[f"{layer}_self_us_per_op"] = (_ratio(self_s, ops) * 1e6, "us")
        out[f"{layer}_calls_per_op"] = (_ratio(calls, ops), "count")
    # Client-observed time not spent inside the server's request spans:
    # queueing behind other connections, the socket path and the client.
    client_s = sum(done[1] for done in samples.done)
    server_s = spans["server"][2]
    io0, io1 = pb0["io"], pb1["io"]

    def delta(name: str) -> float:
        return _counter(after, name) - _counter(before, name)

    hits, misses = delta("block_cache_hits_total"), delta("block_cache_misses_total")
    t_hits, t_misses = delta("table_cache_hits_total"), delta("table_cache_misses_total")
    out.update({
        "traced_server_cpu_us_per_op": (_ratio(server_cpu, ops) * 1e6, "us"),
        "wait_us_per_request": (_ratio(client_s - server_s, requests) * 1e6, "us"),
        "traced_throughput_ops_s": (ops / (deadline - start), "1/s"),
        "block_cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "table_cache_hit_ratio": (_ratio(t_hits, t_hits + t_misses), "ratio"),
        "vlog_reads_per_op": (_ratio(delta("vlog_reads_total"), ops), "count"),
        "device_reads_per_op": (_ratio(io1["read_ops"] - io0["read_ops"], ops), "count"),
        "device_read_bytes_per_op": (_ratio(io1["read_bytes"] - io0["read_bytes"], ops), "B"),
        "write_amp": (_ratio(io1["write_bytes"] - io0["write_bytes"], user_bytes), "ratio"),
    })
    ws0 = before["aggregate"]["write_stall"]
    ws1 = after["aggregate"]["write_stall"]
    job_s = sum(ws1["job_seconds"].values()) - sum(ws0["job_seconds"].values())
    out["maintenance_modelled_ms"] = (job_s * 1e3, "ms")
    for kind, name in JOB_KINDS.items():
        out[name] = (ws1["job_counts"].get(kind, 0) - ws0["job_counts"].get(kind, 0), "count")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Model, run_phase, verify

    cls = WORKLOADS[workload_name]
    model = Model(seed)
    workload = cls(model, seed)
    servers: list[Server] = []
    try:
        setup_cpu, setup_wall = [], []
        for __ in range(1 if trace else SETUPS):
            for server in servers:
                if not server.stop():
                    raise RuntimeError("set-up server did not shut down cleanly")
            t0 = perf_counter()
            servers = [Server(trace)]
            load(model, servers[0].port)
            setup_wall.append(perf_counter() - t0)
            setup_cpu.append(cpu_s(servers[0].proc.pid))
        server = servers[0]
        for i in range(model.loaded):
            model.sent[i] = model.acked[i] = 0

        warm, __, __ = asyncio.run(run_phase(workload, server.port, WARMUP_S, phase=0))
        before = stats(server.port)
        bytes0 = model.user_bytes
        cpu0 = cpu_s(server.proc.pid)
        samples, start, deadline = asyncio.run(
            run_phase(workload, server.port, seconds, phase=1))
        server_cpu = cpu_s(server.proc.pid) - cpu0
        after = stats(server.port)
        user_bytes = model.user_bytes - bytes0
        wrong = asyncio.run(verify(model, server.port, random.Random(seed)))
        servers = []
        clean = server.stop()
    finally:
        for server in servers:
            server.kill()

    if trace:
        metrics = per_layer(samples, start, deadline, before, after, user_bytes,
                            server_cpu)
    else:
        metrics = end_to_end(samples, before, after, server_cpu)
        metrics["setup_s"] = (statistics.median(setup_cpu), "s")
    # Wall-clock throughput, latency and set-up time are printed but not
    # reported as metrics: on a shared host their run-to-run spread exceeds
    # any bound a regression check could use (see README.md).
    in_window = sum(done[2] for done in samples.done if done[0] <= deadline)
    print(f"perfbench {workload_name} seed={seed} trace={int(trace)}: "
          f"{len(samples.done)} requests, {samples.attempted} ops in {seconds:g}s window; "
          f"wall clock {in_window / (deadline - start):.1f} ops/s, "
          f"server CPU {server_cpu / (deadline - start):.2f} of one core; "
          f"set-up wall s {[round(t, 3) for t in setup_wall]}, "
          f"CPU s {[round(t, 3) for t in setup_cpu]}; "
          f"warm-up {len(warm.done)} requests; wrong replies {samples.wrong + warm.wrong}, "
          f"failed ops {samples.failed + warm.failed}, wrong read-backs {wrong}, "
          f"clean shutdown {clean}")
    for kind in sorted({done[3] for done in samples.done}):
        latencies = [done[1] for done in samples.done if done[3] == kind]
        if len(latencies) < 2:
            continue
        pct = statistics.quantiles(latencies, n=100)
        print(f"  {kind:6s} {len(latencies):8d} requests, latency ms "
              f"p50 {pct[49] * 1e3:.3f}, p90 {pct[89] * 1e3:.3f}, p99 {pct[98] * 1e3:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.4f} {unit}")
    correct = (clean and wrong == 0 and samples.wrong == 0 and warm.wrong == 0
               and warm.failed == 0)
    return {
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ycsb-b", "ycsb-e", "batch-get"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "service" / "server.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if CPUS is not None:
        os.sched_setaffinity(0, CPUS[1])
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
