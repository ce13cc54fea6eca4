"""repro.obs — live observability: metrics registry + latency histograms.

See :mod:`repro.obs.registry` for the registry design and the spans-off
guarantee, :mod:`repro.obs.histogram` for the log-bucketed quantile sketch,
:mod:`repro.obs.view` for the STATS/DESCRIBE dicts read off snapshots, and
:mod:`repro.obs.render` for the ``python -m repro stats`` rendering.
"""

from repro.obs.histogram import DEFAULT_RELATIVE_ERROR, LogHistogram
from repro.obs.registry import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    MetricsRegistry,
    merge_snapshots,
    snapshot_to_prometheus,
)
from repro.obs.view import core_view, counter_total, server_view, write_stall_view

__all__ = [
    "Counter",
    "DEFAULT_QUANTILES",
    "DEFAULT_RELATIVE_ERROR",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "core_view",
    "counter_total",
    "merge_snapshots",
    "server_view",
    "snapshot_to_prometheus",
    "write_stall_view",
]
