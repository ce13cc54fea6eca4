"""Workload generators.

Deterministic, seedable reimplementations of the request streams the paper
evaluates with: YCSB core workloads A–F, load phases, mixed read/write-ratio
workloads and value-size sweeps, on scrambled-Zipfian / uniform / latest key
distributions.
"""

from repro.workloads.distributions import (
    LatestChooser,
    ScrambledZipfianChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workloads.mixed import (
    load_phase,
    mixed_read_write,
    scan_phase,
    update_phase,
)
from repro.workloads.ycsb import YCSB_WORKLOADS, make_key, make_value, ycsb_run

__all__ = [
    "ZipfianChooser",
    "ScrambledZipfianChooser",
    "UniformChooser",
    "LatestChooser",
    "load_phase",
    "mixed_read_write",
    "update_phase",
    "scan_phase",
    "YCSB_WORKLOADS",
    "ycsb_run",
    "make_key",
    "make_value",
]
