"""Parametric SSD device cost model.

Turns the I/O counters accumulated by a :class:`~repro.env.iostats.IOStats`
into modelled device time.  The defaults approximate the SATA SSD class used
in the paper's testbed (hundreds of MB/s sequential, ~10k-100k IOPS random):

* sequential read        ~ 500 MB/s
* sequential write       ~ 400 MB/s
* random read            ~ 80 us setup per op + streaming at seq-read rate
* random write (unused by the log-structured engines here, kept for
  completeness) ~ 100 us per op + streaming at seq-write rate

Multi-threaded background work (RocksDB's compaction) is modelled by the
disk's :attr:`IOStats.divisors <repro.env.iostats.IOStats.divisors>`, which
divide a tag's time by a parallelism factor as each I/O is priced.  UniKV's
parallel scan value fetch is not a factor: it issues fewer, larger reads
(readahead runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.env.iostats import IOStats, RAND, READ

_MB = 1024 * 1024


@dataclass
class DeviceCostModel:
    """Maps accounted I/O to modelled seconds of device time."""

    seq_read_mb_s: float = 500.0
    seq_write_mb_s: float = 400.0
    rand_read_op_us: float = 80.0
    rand_write_op_us: float = 100.0

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

    def coefficients(self, op: str, pattern: str) -> tuple[float, float]:
        """(seconds per op, seconds per byte) of one (op, pattern).

        The model is linear in both, which is what lets
        :class:`~repro.env.iostats.IOStats` keep a running total.
        """
        return self._op_time(op, pattern, 1, 0), self._op_time(op, pattern, 0, 1)

    def seconds(self, stats: IOStats) -> float:
        """Total modelled device seconds for the accounted I/O.

        A walk over the records, without any per-tag divisor: the reference
        that ``IOStats.seconds``, the running total, is checked against.
        """
        return sum(self._op_time(op, pattern, rec.ops, rec.bytes)
                   for (op, pattern, _), rec in stats.records.items())
