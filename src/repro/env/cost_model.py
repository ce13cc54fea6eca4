"""Parametric SSD device cost model.

Turns the I/O counters accumulated by a :class:`~repro.env.iostats.IOStats`
into modelled device time.  The defaults approximate the SATA SSD class used
in the paper's testbed (hundreds of MB/s sequential, ~10k-100k IOPS random):

* sequential read        ~ 500 MB/s
* sequential write       ~ 400 MB/s
* random read            ~ 80 us setup per op + streaming at seq-read rate
* random write (unused by the log-structured engines here, kept for
  completeness) ~ 100 us per op + streaming at seq-write rate

Background work (compaction, GC, flush) and batched parallel reads (UniKV's
32-thread scan value fetch, RocksDB's multi-threaded compaction) are modelled
by dividing a tag's time by a parallelism factor, mirroring how those designs
overlap device time in the real systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.env.iostats import IOStats, RAND, READ

_MB = 1024 * 1024


@dataclass
class TimeBreakdown:
    """Modelled time split by tag, in seconds.

    ``by_tag`` holds foreground device time.  When a store runs its
    maintenance scheduler in overlapped mode the runner additionally fills
    ``stall_seconds`` (backpressure stalls injected into the foreground —
    part of the phase's elapsed time) and ``background_seconds`` (device
    time spent on background lanes — overlapped, informational only).
    """

    by_tag: dict[str, float] = field(default_factory=dict)
    stall_seconds: float = 0.0
    background_seconds: float = 0.0

    @property
    def foreground(self) -> float:
        return sum(self.by_tag.values())

    @property
    def total(self) -> float:
        return self.foreground + self.stall_seconds

    def tag(self, tag: str) -> float:
        return self.by_tag.get(tag, 0.0)


@dataclass
class DeviceCostModel:
    """Maps accounted I/O to modelled seconds of device time."""

    seq_read_mb_s: float = 500.0
    seq_write_mb_s: float = 400.0
    rand_read_op_us: float = 80.0
    rand_write_op_us: float = 100.0
    #: per-tag parallelism: a tag's time is divided by this factor.
    parallelism: dict[str, float] = field(default_factory=dict)

    def _op_time(self, op: str, pattern: str, ops: int, nbytes: int) -> float:
        if op == READ:
            stream = nbytes / (self.seq_read_mb_s * _MB)
            if pattern == RAND:
                return stream + ops * self.rand_read_op_us * 1e-6
            return stream
        stream = nbytes / (self.seq_write_mb_s * _MB)
        if pattern == RAND:
            return stream + ops * self.rand_write_op_us * 1e-6
        return stream

    def coefficients(self, op: str, pattern: str, tag: str) -> tuple[float, float]:
        """(seconds per op, seconds per byte) of one (op, pattern, tag).

        The model is linear in both, which is what lets
        :class:`~repro.env.iostats.IOStats` keep a running total.
        """
        par = self.parallelism.get(tag, 1.0)
        return (self._op_time(op, pattern, 1, 0) / par,
                self._op_time(op, pattern, 0, 1) / par)

    def breakdown(self, stats: IOStats) -> TimeBreakdown:
        """Modelled time per tag, after applying parallelism factors."""
        out = TimeBreakdown()
        for (op, pattern, tag), rec in stats.records.items():
            t = self._op_time(op, pattern, rec.ops, rec.bytes)
            t /= self.parallelism.get(tag, 1.0)
            out.by_tag[tag] = out.by_tag.get(tag, 0.0) + t
        return out

    def seconds(self, stats: IOStats) -> float:
        """Total modelled device seconds for the accounted I/O."""
        return self.breakdown(stats).total

    def with_parallelism(self, **factors: float) -> "DeviceCostModel":
        """A copy of this model with extra per-tag parallelism factors."""
        merged = dict(self.parallelism)
        merged.update(factors)
        return DeviceCostModel(
            seq_read_mb_s=self.seq_read_mb_s,
            seq_write_mb_s=self.seq_write_mb_s,
            rand_read_op_us=self.rand_read_op_us,
            rand_write_op_us=self.rand_write_op_us,
            parallelism=merged,
        )
