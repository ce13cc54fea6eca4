"""Deterministic fault-injection simulation (chaos harness + oracle).

Everything in this package is driven by one integer seed: the chaos
transport (:mod:`repro.sim.faults`), the consistency oracle
(:mod:`repro.sim.oracle`) and the full-stack harness
(:mod:`repro.sim.harness`).  ``python -m repro sim --seed N`` runs it from
the command line; any failure report names the seed, and re-running with
that seed reproduces the schedule bit for bit.
"""

from repro.sim.faults import NO_FAULTS, ChaosConnection, ChaosPipe, FaultConfig
from repro.sim.harness import (
    SimConfig,
    SimHarness,
    SimResult,
    run_sim,
    sim_store_config,
)
from repro.sim.oracle import ABSENT, History, OpRecord, Violation, check

__all__ = [
    "ABSENT",
    "ChaosConnection",
    "ChaosPipe",
    "FaultConfig",
    "History",
    "NO_FAULTS",
    "OpRecord",
    "SimConfig",
    "SimHarness",
    "SimResult",
    "Violation",
    "check",
    "run_sim",
    "sim_store_config",
]
