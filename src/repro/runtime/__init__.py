"""Maintenance-scheduler runtime shared by every engine.

All background work in this repository — UniKV's flush/merge/GC/scan-merge/
split and the baselines' compactions and value-log GC — is expressed as
:class:`Job` objects submitted to a per-store :class:`MaintenanceScheduler`.
The scheduler decides *when the modelled device time of a job is charged*:
synchronously in the foreground (``background_threads=0``, the default), or
overlapped on a fixed number of background lanes with RocksDB-style
slowdown/stop backpressure stalls injected into the foreground path.
"""

from repro.runtime.scheduler import Job, MaintenanceScheduler

__all__ = [
    "Job",
    "MaintenanceScheduler",
]
