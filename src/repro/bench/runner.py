"""Workload execution against a store, with per-phase metric collection."""

from __future__ import annotations

from typing import Iterable

from repro.bench.metrics import RunMetrics
from repro.env.cost_model import DeviceCostModel
from repro.lsm.base import KVStore
from repro.obs import LogHistogram

#: modelled CPU cost per operation (software path: memtable, index, cache);
#: keeps phases that never touch the device from dividing by zero and
#: matches the ~µs-scale software overhead of the real systems.
DEFAULT_CPU_US_PER_OP = 2.0


def _overlapped_scheduler(store: KVStore):
    """The store's maintenance scheduler, if it runs background lanes."""
    scheduler = getattr(store, "scheduler", None)
    if scheduler is not None and scheduler.overlapped:
        return scheduler
    return None


def effective_cost_model(store: KVStore, base: DeviceCostModel) -> DeviceCostModel:
    """Apply an engine's background/parallel I/O behaviour to the model.

    ``compaction_parallelism`` (RocksDB's multi-threaded compaction)
    divides the ``compaction`` tag's time — only while the store's
    maintenance scheduler is synchronous; with background lanes the
    scheduler models the overlap explicitly and the blanket divisor would
    double-count it.  Foreground reads get no divisor: UniKV's parallel
    scan value fetch is real readahead I/O
    (:func:`~repro.engine.vlog.fetch_values`), priced by the device.
    """
    if _overlapped_scheduler(store) is None:
        compaction = getattr(store, "compaction_parallelism", None)
        if compaction:
            return base.with_parallelism(compaction=float(compaction))
    return base


def execute_ops(store: KVStore, ops: Iterable[tuple]) -> tuple[int, int]:
    """Apply a stream of workload ops; returns (op count, user write bytes)."""
    num_ops = 0
    user_write_bytes = 0
    for op in ops:
        kind = op[0]
        if kind in ("insert", "update"):
            store.put(op[1], op[2])
            user_write_bytes += len(op[1]) + len(op[2])
        elif kind == "read":
            store.get(op[1])
        elif kind == "scan":
            store.scan(op[1], op[2])
        elif kind == "rmw":
            store.get(op[1])
            store.put(op[1], op[2])
            user_write_bytes += len(op[1]) + len(op[2])
        elif kind == "delete":
            store.delete(op[1])
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        num_ops += 1
    return num_ops, user_write_bytes


def run_workload(store: KVStore, ops: Iterable[tuple], phase: str = "run",
                 cost_model: DeviceCostModel | None = None,
                 cpu_us_per_op: float = DEFAULT_CPU_US_PER_OP,
                 collect_latencies: bool = False) -> RunMetrics:
    """Run ``ops`` against ``store`` and collect paper-style metrics.

    Only the I/O issued *during this call* is charged to the phase (the
    delta of the disk's counters), so load / read / update phases can be
    measured independently on one store instance.

    When the store's maintenance scheduler runs background lanes, phase
    time is foreground-only: maintenance I/O the scheduler attributed to
    the background is subtracted from the phase delta, and the stall
    seconds backpressure injected during the phase are added instead
    (``RunMetrics.io`` keeps the *full* delta so write amplification still
    counts every background byte).

    With ``collect_latencies`` every operation's modelled time is recorded
    individually (per op kind), enabling tail-latency analysis
    (:meth:`RunMetrics.latency_us`); in synchronous mode this includes the
    foreground cost of any flush/merge/GC/split the op triggered, in
    overlapped mode it includes the op's backpressure stalls — either way,
    where tail latency comes from in these designs.
    """
    base = cost_model if cost_model is not None else DeviceCostModel()
    model = effective_cost_model(store, base)
    scheduler = _overlapped_scheduler(store)
    if scheduler is not None and base != DeviceCostModel():
        # Background lanes and the virtual clock are priced with the default
        # device model as the I/O lands; phase times under another model
        # would disagree with them.
        raise ValueError("an overlapped store's background lanes are priced "
                         "with the default device model; run it with that model")
    stats = store.disk.stats
    before = stats.snapshot()
    bg_before = (scheduler.background_io.snapshot()
                 if scheduler is not None else None)
    stall_before = scheduler.stalls.sum if scheduler is not None else 0.0
    latencies: dict[str, LogHistogram] = {}
    if collect_latencies:
        num_ops = 0
        user_write_bytes = 0
        cursor = before
        bg_cursor = bg_before
        stall_cursor = stall_before
        for op in ops:
            n, written = execute_ops(store, [op])
            num_ops += n
            user_write_bytes += written
            now = stats.snapshot()
            op_delta = now.delta_since(cursor)
            op_stall = 0.0
            if scheduler is not None:
                bg_now = scheduler.background_io.snapshot()
                op_delta = op_delta.delta_since(bg_now.delta_since(bg_cursor))
                op_stall = scheduler.stalls.sum - stall_cursor
                bg_cursor = bg_now
                stall_cursor = scheduler.stalls.sum
            op_seconds = (model.seconds(op_delta) + op_stall
                          + cpu_us_per_op * 1e-6)
            hist = latencies.get(op[0])
            if hist is None:
                hist = latencies[op[0]] = LogHistogram()
            hist.record(op_seconds)
            cursor = now
    else:
        num_ops, user_write_bytes = execute_ops(store, ops)
    delta = stats.delta_since(before)
    if scheduler is not None:
        bg_delta = scheduler.background_io.snapshot().delta_since(bg_before)
        breakdown = model.breakdown(delta.delta_since(bg_delta))
        breakdown.background_seconds = base.seconds(bg_delta)
        breakdown.stall_seconds = scheduler.stalls.sum - stall_before
    else:
        breakdown = model.breakdown(delta)
    seconds = breakdown.total + num_ops * cpu_us_per_op * 1e-6
    extra = {}
    if scheduler is not None:
        extra["background_threads"] = scheduler.background_threads
        extra["queue_depth_high_water"] = scheduler.describe()["queue_depth_high_water"]
        extra["background_backlog_seconds"] = scheduler.backlog_seconds()
    return RunMetrics(
        engine=store.name,
        phase=phase,
        num_ops=num_ops,
        user_write_bytes=user_write_bytes,
        modelled_seconds=seconds,
        breakdown=breakdown,
        io=delta,
        index_memory_bytes=store.index_memory_bytes(),
        extra=extra,
        latencies=latencies,
    )
