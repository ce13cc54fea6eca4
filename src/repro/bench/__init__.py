"""Benchmark harness.

Drives workloads against the engines, reads each phase off the store's
virtual clock and I/O counters, and turns them into paper-style metrics
(throughput on the modelled device, write/read amplification, index memory)
and formatted tables.
"""

from repro.bench.metrics import RunMetrics
from repro.bench.report import format_series, format_table
from repro.bench.runner import apply_op, run_workload

__all__ = [
    "RunMetrics",
    "run_workload",
    "apply_op",
    "format_table",
    "format_series",
]
