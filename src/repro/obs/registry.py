"""Unified metrics registry: counters, gauges, log-bucketed histograms.

One :class:`MetricsRegistry` instance lives per instrumented component —
each UniKV store carries one (on its :class:`~repro.core.context.StoreContext`,
clocked by the maintenance scheduler's deterministic virtual clock) and the
serving layer's :class:`~repro.service.server.KVServer` carries another
(wall-clocked).  Metrics are identified by name plus a sorted label set,
Prometheus-style; snapshots are plain JSON-able structures that merge
exactly (counter/gauge addition, bucket-wise histogram merge), which is
how the shard router aggregates per-shard registries into one STATS view.

**Always real.**  Every count a store, scheduler, cache, value log or
server keeps lives in a registry — there is no separate stats struct and
no no-op registry.  Components bind their metric objects once at
construction, so a hot-path increment is one attribute access.  A
store's ``config.metrics_enabled`` gates only its per-operation span
clock reads (``unikv_op_seconds``).  Nothing in this module ever touches
the simulated device or mutates store state, so store behaviour is
bit-identical with spans on or off — the equivalence test suite
(``tests/test_obs_equivalence.py``) pins that guarantee.

**Clocks.**  ``registry.clock`` is any zero-argument callable returning
seconds.  Store registries are wired to
``MaintenanceScheduler.foreground_clock`` — modelled device seconds plus
stall seconds — so span measurements are deterministic and tests can
assert exact snapshots; the server uses ``time.perf_counter``.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.histogram import DEFAULT_RELATIVE_ERROR, LogHistogram

#: quantile fractions exported in snapshots (p50/p95/p99 per the paper's
#: tail-latency reporting, plus p99.9 for the stall tails E15 measures)
DEFAULT_QUANTILES = (0.5, 0.95, 0.99, 0.999)

LabelKey = tuple[str, tuple[tuple[str, str], ...]]


class Counter:
    """Monotonic counter (float increments allowed)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    """Last-written value (queue depths, cache occupancy)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n


class HistogramFamily(dict):
    """One histogram per value of one label: ``family[value]``.

    A series is created on first use, through the registry, so a snapshot
    lists exactly the series that were recorded; after that, a lookup is
    a plain dict subscript with no label key to build.
    """

    __slots__ = ("_create",)

    def __init__(self, create: Callable[[str], LogHistogram]) -> None:
        super().__init__()
        self._create = create

    def __missing__(self, value: str) -> LogHistogram:
        hist = self[value] = self._create(value)
        return hist


class MetricsRegistry:
    """Names + labels -> live metric objects, with snapshot/merge/export."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        #: span clock; components with a virtual clock override this
        self.clock = clock if clock is not None else time.perf_counter
        self._counters: dict[LabelKey, Counter] = {}
        self._gauges: dict[LabelKey, Gauge] = {}
        self._histograms: dict[LabelKey, LogHistogram] = {}

    @staticmethod
    def _key(name: str, labels: dict[str, str]) -> LabelKey:
        return (name, tuple(sorted(labels.items())))

    # -- metric accessors (get-or-create) ----------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = self._key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = self._key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str,
                  relative_error: float = DEFAULT_RELATIVE_ERROR,
                  **labels: str) -> LogHistogram:
        key = self._key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = LogHistogram(relative_error)
        return metric

    def histogram_family(self, name: str, label: str,
                         **labels: str) -> HistogramFamily:
        """The ``name`` histograms with ``labels`` plus ``label``, one per
        value of ``label``, bound once by a hot path that records often."""
        return HistogramFamily(
            lambda value: self.histogram(name, **labels, **{label: value}))

    # -- snapshot -----------------------------------------------------------------------

    def snapshot(self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> dict:
        """JSON-able view of every metric, deterministically ordered.

        Histogram entries carry their raw buckets (so snapshots merge
        exactly) *and* rendered quantile estimates (so consumers need no
        histogram math).
        """
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": metric.value}
                for (name, labels), metric in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": metric.value}
                for (name, labels), metric in sorted(self._gauges.items())
            ],
            "histograms": [
                {"name": name, "labels": dict(labels),
                 **hist.to_dict(),
                 "quantiles": hist.quantiles(quantiles)}
                for (name, labels), hist in sorted(self._histograms.items())
            ],
        }

    def to_prometheus(self,
                      quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> str:
        """Prometheus text exposition of the current state."""
        return snapshot_to_prometheus(self.snapshot(quantiles))


# -- snapshot algebra -------------------------------------------------------------------


def _entry_key(entry: dict) -> LabelKey:
    return (entry["name"], tuple(sorted(entry["labels"].items())))


def merge_snapshots(snapshots: list[dict],
                    quantiles: tuple[float, ...] = DEFAULT_QUANTILES) -> dict:
    """Aggregate registry snapshots (e.g. one per shard) into one.

    Counters and gauges with equal (name, labels) are summed, except
    ``*_high_water`` gauges, which take the max (a deployment's high-water
    mark is its busiest shard's, not their total); histograms are merged
    bucket-wise and their quantiles recomputed from the merged
    distribution — the aggregation the shard router applies for STATS.
    """
    counters: dict[LabelKey, dict] = {}
    gauges: dict[LabelKey, dict] = {}
    histograms: dict[LabelKey, dict] = {}
    for snap in snapshots:
        for entry in snap.get("counters", ()):
            key = _entry_key(entry)
            if key in counters:
                counters[key]["value"] += entry["value"]
            else:
                counters[key] = {"name": entry["name"],
                                 "labels": dict(entry["labels"]),
                                 "value": entry["value"]}
        for entry in snap.get("gauges", ()):
            key = _entry_key(entry)
            if key in gauges:
                merged = gauges[key]
                if entry["name"].endswith("_high_water"):
                    merged["value"] = max(merged["value"], entry["value"])
                else:
                    merged["value"] += entry["value"]
            else:
                gauges[key] = {"name": entry["name"],
                               "labels": dict(entry["labels"]),
                               "value": entry["value"]}
        for entry in snap.get("histograms", ()):
            key = _entry_key(entry)
            hist = LogHistogram.from_dict(entry)
            if key in histograms:
                histograms[key]["_hist"].merge(hist)
            else:
                histograms[key] = {"name": entry["name"],
                                   "labels": dict(entry["labels"]),
                                   "_hist": hist}
    return {
        "counters": [counters[key] for key in sorted(counters)],
        "gauges": [gauges[key] for key in sorted(gauges)],
        "histograms": [
            {"name": entry["name"], "labels": entry["labels"],
             **entry["_hist"].to_dict(),
             "quantiles": entry["_hist"].quantiles(quantiles)}
            for key, entry in sorted(histograms.items())
        ],
    }


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(sorted(labels.items()))
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in merged.items())
    return "{%s}" % inner


def snapshot_to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Histograms are exported summary-style (``quantile`` label plus
    ``_count``/``_sum`` series) — the shape that keeps log-bucketed
    quantile estimates intact without a fixed ``le`` bucket schema.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for entry in snapshot.get("counters", ()):
        if entry["name"] not in typed:
            lines.append(f"# TYPE {entry['name']} counter")
            typed.add(entry["name"])
        lines.append(f"{entry['name']}{_prom_labels(entry['labels'])} "
                     f"{entry['value']}")
    for entry in snapshot.get("gauges", ()):
        if entry["name"] not in typed:
            lines.append(f"# TYPE {entry['name']} gauge")
            typed.add(entry["name"])
        lines.append(f"{entry['name']}{_prom_labels(entry['labels'])} "
                     f"{entry['value']}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        if name not in typed:
            lines.append(f"# TYPE {name} summary")
            typed.add(name)
        for label, value in entry.get("quantiles", {}).items():
            q = float(label[1:]) / 100.0
            lines.append(f"{name}{_prom_labels(entry['labels'], {'quantile': f'{q:g}'})} "
                         f"{value:.9g}")
        lines.append(f"{name}_count{_prom_labels(entry['labels'])} "
                     f"{entry['count']}")
        lines.append(f"{name}_sum{_prom_labels(entry['labels'])} "
                     f"{entry['sum']:.9g}")
    return "\n".join(lines) + ("\n" if lines else "")
