"""Unified maintenance scheduler: jobs, a virtual clock, and write stalls.

Every engine's maintenance actions (flush, UnsortedStore merge, GC,
scan-merge, split, compaction) are wrapped in :class:`Job` objects and
submitted here instead of being executed ad hoc inline.

The simulation is single-writer and the data structures are not thread
safe, so a job's *state change* always happens immediately at submit time —
on-disk state, crash-injection order and recovery semantics are therefore
bit-identical at every ``background_threads`` setting.  What the scheduler
virtualizes is the *device-time accounting*:

* ``background_threads=0`` (synchronous, the default): a job's I/O stays in
  the foreground counters and is charged to the submitting operation, which
  reproduces the pre-scheduler foreground behaviour exactly.
* ``background_threads=N``: the job's I/O is moved into a background
  accumulator and its modelled duration is placed on the earliest-free of
  ``N`` background lanes of a virtual clock.  Foreground time no longer
  pays for the job — unless backpressure fires: when the number of
  still-running background jobs reaches ``slowdown_trigger`` the submitting
  foreground op is charged a per-job penalty (RocksDB's delayed writes),
  and at ``stop_trigger`` the foreground stalls until enough lanes drain
  (RocksDB's write stop).  Stall seconds advance the foreground clock, so
  sustained over-submission converges to device-bound throughput instead of
  modelling a free infinite queue.

The clock is O(1) to read: the disk's :class:`~repro.env.iostats.IOStats`
keeps a running total of modelled device seconds, priced as each I/O
lands, and ``background_io`` keeps the background share of it.

Job and stall accounting lives in the scheduler's metrics registry and
nowhere else: ``maintenance_job_seconds{kind}`` (count = jobs run, sum =
their modelled seconds), ``write_stall_seconds`` (count = stall events,
sum = injected seconds, which the clock reads), ``write_stalls_total``
``{type,cause}`` and the ``maintenance_queue_depth_high_water`` gauge.
:meth:`MaintenanceScheduler.describe` reads them back through
:func:`~repro.obs.view.write_stall_view`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable

from repro.env.iostats import IOStats
from repro.env.storage import SimulatedDisk
from repro.obs import Counter, LogHistogram, MetricsRegistry, write_stall_view


@dataclass
class Job:
    """One schedulable maintenance action.

    ``fn`` performs the state change (and may submit nested jobs — e.g. a
    flush whose trigger cascade merges); ``trigger`` is re-evaluated at
    submit time and must be free of I/O accounting side effects (the
    predicates used here only consult in-memory state and ``disk.size()``,
    which records nothing).  ``kind`` labels the job's
    ``maintenance_job_seconds`` histogram and the stalls it causes; the I/O
    it does carries the engine's own tags.
    """

    kind: str
    fn: Callable[[], Any]
    trigger: Callable[[], bool] | None = None
    #: filled in by the scheduler
    ran: bool = False
    result: Any = None
    duration_seconds: float = 0.0


class MaintenanceScheduler:
    """Per-store scheduler: runs jobs, virtualizes their device time."""

    def __init__(self, disk: SimulatedDisk, background_threads: int = 0,
                 slowdown_trigger: int = 4, stop_trigger: int = 8,
                 slowdown_penalty_us: float = 200.0,
                 metrics: MetricsRegistry | None = None) -> None:
        self._disk = disk
        self.background_threads = int(background_threads)
        self.slowdown_trigger = slowdown_trigger
        self.stop_trigger = stop_trigger
        self.slowdown_penalty_us = slowdown_penalty_us
        #: where the job and stall counts live (the store's registry, or
        #: a private one); never does I/O, so scheduling is unaffected
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: foreground stalls injected by backpressure: count = stall
        #: events, sum = stall seconds (part of the virtual clock)
        self.stalls = self.metrics.histogram("write_stall_seconds")
        self._queue_high_water = self.metrics.gauge("maintenance_queue_depth_high_water")
        self._job_seconds: dict[str, LogHistogram] = {}
        self._stall_counters: dict[tuple[str, str], Counter] = {}
        #: I/O already attributed to background lanes (subtracted from the
        #: disk totals to obtain the foreground-only counters); its
        #: ``seconds`` is the background share of the disk's running total
        self.background_io = IOStats()
        self._lanes: list[float] = [0.0] * max(0, self.background_threads)
        self._inflight: list[float] = []  # heap of virtual job-end times

    # -- mode ---------------------------------------------------------------------

    @property
    def overlapped(self) -> bool:
        return self.background_threads > 0

    # -- virtual clock ------------------------------------------------------------

    def foreground_clock(self) -> float:
        """Virtual now: foreground device seconds + accumulated stalls.

        O(1): both device terms are running totals kept as I/O lands.
        """
        return (self._disk.stats.seconds - self.background_io.seconds
                + self.stalls.sum)

    def backlog_seconds(self) -> float:
        """How far the busiest background lane runs past the clock."""
        if not self._lanes:
            return 0.0
        return max(0.0, max(self._lanes) - self.foreground_clock())

    def queue_depth(self) -> int:
        """Background jobs still running at the current virtual clock."""
        if self._inflight:
            self._prune_finished(self.foreground_clock())
        return len(self._inflight)

    # -- submission ---------------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Run ``job`` now (if its trigger holds) and account its time.

        Returns the job with ``ran``/``result``/``duration_seconds`` filled
        in, so call sites can chain on the outcome (e.g. GC only after a
        merge actually ran).  Exceptions from ``fn`` propagate — crash
        injection relies on that.
        """
        if job.trigger is not None and not job.trigger():
            return job
        disk_io, background_io = self._disk.stats, self.background_io
        if self.overlapped:
            # Only background lanes need the job's records, not just its time.
            before = disk_io.snapshot()
            nested_before = background_io.snapshot()
        disk_start, nested_start = disk_io.seconds, background_io.seconds
        job.result = job.fn()
        job.ran = True
        # I/O that nested job submissions already attributed to the
        # background is not this job's own traffic.
        job.duration_seconds = ((disk_io.seconds - disk_start)
                                - (background_io.seconds - nested_start))
        hist = self._job_seconds.get(job.kind)
        if hist is None:
            hist = self._job_seconds[job.kind] = self.metrics.histogram(
                "maintenance_job_seconds", kind=job.kind)
        hist.record(job.duration_seconds)
        if self.overlapped:
            # Same arithmetic as the duration above, so own.seconds equals it.
            own = disk_io.delta_since(before).delta_since(
                background_io.delta_since(nested_before))
            self._account_background(job, own)
        return job

    # -- overlap accounting ----------------------------------------------------------

    def _account_background(self, job: Job, own: IOStats) -> None:
        self.background_io.merge(own)
        clock = self.foreground_clock()
        lane = min(range(len(self._lanes)), key=self._lanes.__getitem__)
        start = max(clock, self._lanes[lane])
        end = start + job.duration_seconds
        self._lanes[lane] = end
        heapq.heappush(self._inflight, end)
        self._apply_backpressure(clock, cause=job.kind)

    def _prune_finished(self, clock: float) -> None:
        while self._inflight and self._inflight[0] <= clock:
            heapq.heappop(self._inflight)

    def _apply_backpressure(self, clock: float, cause: str) -> None:
        self._prune_finished(clock)
        depth = len(self._inflight)
        if depth > self._queue_high_water.value:
            self._queue_high_water.set(depth)
        stall = 0.0
        kind = ""
        if depth >= self.stop_trigger:
            # Write stop: the foreground waits until enough background jobs
            # finish; the clock jumps to the relevant job-end time.
            target = clock
            while len(self._inflight) >= self.stop_trigger:
                target = heapq.heappop(self._inflight)
            stall = max(0.0, target - clock)
            kind = "stop"
        elif depth >= self.slowdown_trigger:
            # Delayed write: a fixed penalty per excess in-flight job.
            excess = depth - self.slowdown_trigger + 1
            stall = excess * self.slowdown_penalty_us * 1e-6
            kind = "slowdown"
        if stall > 0.0:
            self.stalls.record(stall)
            # Attribution: the stall is charged to the job whose submission
            # pushed the queue over the trigger — the cause a tail-latency
            # investigation needs, not just "a stall happened".
            counter = self._stall_counters.get((kind, cause))
            if counter is None:
                counter = self._stall_counters[kind, cause] = self.metrics.counter(
                    "write_stalls_total", type=kind, cause=cause)
            counter.inc()

    # -- introspection ----------------------------------------------------------------

    def describe(self) -> dict:
        return {**write_stall_view(self.metrics.snapshot()),
                "background_threads": self.background_threads,
                "queue_depth": self.queue_depth(),
                "backlog_seconds": self.backlog_seconds()}
