"""Simulated storage environment.

The paper evaluates UniKV on real SSDs with 100 GB datasets.  A pure-Python
reimplementation cannot produce meaningful wall-clock storage numbers at that
scale, so every engine in this repository performs its I/O against a
:class:`SimulatedDisk` — an in-memory file namespace that records each
operation's byte count and access pattern — and throughput is derived from
the device time a parametric :class:`DeviceCostModel` gives those records.
:class:`IOStats` prices each I/O as it lands, so its ``seconds`` is a running
total: the store's virtual clock.  The I/O *pattern* each engine produces is
real (actual encoded bytes, actual block reads), only the device underneath
is modelled.
"""

from repro.env.cost_model import DeviceCostModel
from repro.env.iostats import IOStats, IORecord
from repro.env.storage import (
    DiskCrashed,
    FileNotFound,
    RandomAccessFile,
    ReadFault,
    SequentialWriter,
    SimulatedDisk,
)

__all__ = [
    "DeviceCostModel",
    "IOStats",
    "IORecord",
    "SimulatedDisk",
    "SequentialWriter",
    "RandomAccessFile",
    "FileNotFound",
    "DiskCrashed",
    "ReadFault",
]
