"""Workload execution against a store, with per-phase metric collection.

Phase and per-op time come from the one clock the store already keeps: its
maintenance scheduler's :meth:`~repro.runtime.MaintenanceScheduler.foreground_clock`
(device seconds priced as each I/O lands, less what background lanes
absorbed, plus write stalls), or the disk's running device time for a store
without a scheduler.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.metrics import RunMetrics
from repro.lsm.base import KVStore
from repro.obs import LogHistogram

#: modelled CPU cost per operation (software path: memtable, index, cache);
#: keeps phases that never touch the device from dividing by zero and
#: matches the ~µs-scale software overhead of the real systems.
DEFAULT_CPU_US_PER_OP = 2.0


def apply_op(store: KVStore, op: tuple) -> int:
    """Apply one workload op; returns the user bytes it wrote."""
    kind = op[0]
    if kind in ("insert", "update"):
        store.put(op[1], op[2])
        return len(op[1]) + len(op[2])
    if kind == "read":
        store.get(op[1])
    elif kind == "scan":
        store.scan(op[1], op[2])
    elif kind == "rmw":
        store.get(op[1])
        store.put(op[1], op[2])
        return len(op[1]) + len(op[2])
    elif kind == "delete":
        store.delete(op[1])
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return 0


def run_workload(store: KVStore, ops: Iterable[tuple],
                 phase: str = "run") -> RunMetrics:
    """Run ``ops`` against ``store`` and collect paper-style metrics.

    Only what happens *during this call* is charged to the phase, so load /
    read / update phases can be measured independently on one store.  Phase
    time is the store's clock delta plus a fixed CPU cost per op; with
    background lanes that clock is foreground-only, and the stall seconds
    backpressure injected are part of it.  ``RunMetrics.io`` keeps the
    disk's *full* record delta, so write amplification still counts every
    background byte.

    Every op's own clock delta (plus the CPU cost) is recorded per op kind
    (:meth:`RunMetrics.latency_us`); in synchronous mode this includes the
    foreground cost of any flush/merge/GC/split the op triggered, in
    overlapped mode its backpressure stalls — either way, where tail
    latency comes from in these designs.
    """
    stats = store.disk.stats
    scheduler = getattr(store, "scheduler", None)
    clock = (scheduler.foreground_clock if scheduler is not None
             else lambda: stats.seconds)
    stall_before = scheduler.stalls.sum if scheduler is not None else 0.0
    cpu_seconds = DEFAULT_CPU_US_PER_OP * 1e-6
    before = stats.snapshot()
    start = now = clock()
    latencies: dict[str, LogHistogram] = {}
    num_ops = 0
    user_write_bytes = 0
    for op in ops:
        user_write_bytes += apply_op(store, op)
        num_ops += 1
        then, now = now, clock()
        hist = latencies.get(op[0])
        if hist is None:
            hist = latencies[op[0]] = LogHistogram()
        hist.record(now - then + cpu_seconds)
    return RunMetrics(
        engine=store.name,
        phase=phase,
        num_ops=num_ops,
        user_write_bytes=user_write_bytes,
        modelled_seconds=now - start + num_ops * cpu_seconds,
        stall_seconds=(scheduler.stalls.sum - stall_before
                       if scheduler is not None else 0.0),
        io=stats.delta_since(before),
        index_memory_bytes=store.index_memory_bytes(),
        latencies=latencies,
    )
