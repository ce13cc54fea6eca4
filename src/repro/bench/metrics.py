"""Run metrics derived from I/O accounting + the store's virtual clock."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.env.iostats import IOStats
from repro.obs import LogHistogram


@dataclass
class RunMetrics:
    """Everything the paper reports about one workload phase on one engine.

    Throughput is ops divided by *modelled* time: the store's virtual clock
    over the phase plus a small constant CPU cost per operation (so phases
    that never touch the device — e.g. memtable hits — don't divide by
    zero).
    """

    engine: str
    phase: str
    num_ops: int
    user_write_bytes: int
    modelled_seconds: float
    io: IOStats
    #: backpressure stall time injected into this phase's foreground (part
    #: of ``modelled_seconds``)
    stall_seconds: float = 0.0
    index_memory_bytes: int = 0
    #: per-op modelled seconds, keyed by op kind.  Log-bucketed histograms,
    #: not raw sample lists: memory stays O(buckets) however long the run,
    #: and percentiles carry the histogram's bounded relative error.
    latencies: dict[str, LogHistogram] = field(default_factory=dict)

    @property
    def throughput_kops(self) -> float:
        if self.modelled_seconds <= 0:
            return float("inf")
        return self.num_ops / self.modelled_seconds / 1000.0

    @property
    def device_write_bytes(self) -> int:
        return self.io.write_bytes

    @property
    def device_read_bytes(self) -> int:
        return self.io.read_bytes

    @property
    def write_amplification(self) -> float:
        """Total device writes per byte the user wrote (paper's WA)."""
        if self.user_write_bytes <= 0:
            return 0.0
        return self.io.write_bytes / self.user_write_bytes

    @property
    def read_ops_per_op(self) -> float:
        """Device read operations per workload operation (read amp proxy)."""
        if self.num_ops <= 0:
            return 0.0
        return self.io.read_ops / self.num_ops

    def latency_us(self, op_kind: str, percentile: float) -> float:
        """Modelled per-op latency percentile in microseconds.

        ``percentile`` in [0, 100].
        """
        hist = self.latencies.get(op_kind)
        if not hist:
            raise ValueError(f"no latency samples for op kind {op_kind!r}")
        if not 0 <= percentile <= 100:
            raise ValueError("percentile must be within [0, 100]")
        return hist.quantile(percentile / 100.0) * 1e6

    def as_row(self) -> dict:
        return {
            "engine": self.engine,
            "phase": self.phase,
            "kops": round(self.throughput_kops, 2),
            "write_amp": round(self.write_amplification, 2),
            "reads/op": round(self.read_ops_per_op, 2),
            "dev_write_MB": round(self.device_write_bytes / 1048576, 2),
            "dev_read_MB": round(self.device_read_bytes / 1048576, 2),
            "index_KB": round(self.index_memory_bytes / 1024, 1),
            "stall_ms": round(self.stall_seconds * 1000, 2),
        }
