"""``python -m repro serve`` with outside-in spans around every layer.

Usage (same arguments as ``python -m repro serve``)::

    PYTHONPATH=src python3 perfbench/traced_server.py serve --port 0 --shards 4

Before the server builds its stores, this script replaces the entry points
of each layer with wrappers that time every call.  The program itself is
not changed.  Spans nest on one stack, because the server runs requests on
one thread and ``KVServer._respond`` does not suspend while admission
control is idle (no background maintenance lanes).  A layer's self time is
the time of its spans minus the time of the spans they called.  Iterators
such as the scan merge are timed on every ``next()``.

STATS replies gain a ``perfbench`` section: per-layer calls, self seconds
and top-level seconds, the process CPU time, and the shards' device I/O
totals.  The benchmark diffs two replies to get per-layer costs over its
measurement window.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from repro.core import merge as core_merge
from repro.core import split as core_split
from repro.core import store as core_store
from repro.core.store import UniKV
from repro.engine import iterators
from repro.engine.block_cache import BlockCache
from repro.engine.memtable import MemTable
from repro.engine.sstable import SSTableBuilder, SSTableReader
from repro.engine.table_cache import TableCache
from repro.engine.vlog import VLogReader, VLogWriter
from repro.engine.wal import WalWriter
from repro.env.storage import RandomAccessFile, SequentialWriter, SimulatedDisk
from repro.obs.histogram import LogHistogram
from repro.obs.registry import Counter, MetricsRegistry
from repro.runtime.scheduler import MaintenanceScheduler
from repro.service import protocol
from repro.service.router import ShardRouter
from repro.service.server import KVServer

perf_counter = time.perf_counter


class Tracer:
    """Per-layer call counts, self time and top-level time on one stack."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_s: dict[str, float] = defaultdict(float)

    def enter(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child = self.stack.pop()
        elapsed = perf_counter() - start
        self.calls[layer] += 1
        self.self_s[layer] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed
        else:
            self.top_s[layer] += elapsed

    def totals(self) -> dict:
        return {layer: [self.calls[layer], self.self_s[layer], self.top_s[layer]]
                for layer in self.calls}


def _sync(tracer: Tracer, layer: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()
    return traced


def _async(tracer: Tracer, layer: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        enter(layer)
        try:
            return await fn(*args, **kwargs)
        finally:
            exit_()
    return traced


def _items(tracer: Tracer, layer: str, it):
    enter, exit_ = tracer.enter, tracer.exit
    while True:
        enter(layer)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            exit_()
        yield item


def _iter(tracer: Tracer, layer: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(layer)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            exit_()
        return _items(tracer, layer, it)
    return traced


#: layer -> (wrapper kind, owner, attribute names)
LAYERS = {
    "protocol": [
        (_sync, protocol, ["decode_request", "encode_response", "encode_value_body",
                           "encode_pairs_body"]),
        (_sync, protocol.FrameDecoder, ["feed"]),
    ],
    "server": [(_async, KVServer, ["_respond"])],
    "router": [(_sync, ShardRouter, ["get", "put", "delete", "scan", "write_batch",
                                     "split_batch", "pressure"])],
    "store": [(_sync, UniKV, ["get", "put", "delete", "scan", "write_batch"])],
    "maintenance": [(_sync, MaintenanceScheduler, ["submit"])],
    "clock": [(_sync, MaintenanceScheduler, ["foreground_clock"])],
    "engine": [
        (_sync, MemTable, ["put", "delete", "get"]),
        (_iter, MemTable, ["entries", "entries_from"]),
        (_sync, WalWriter, ["append", "append_batch"]),
        (_sync, SSTableBuilder, ["add", "finish"]),
        (_sync, SSTableReader, ["get", "_read_block"]),
        (_iter, SSTableReader, ["entries", "entries_from"]),
        (_sync, VLogReader, ["read_value"]),
        (_sync, VLogWriter, ["append"]),
        (_sync, BlockCache, ["get", "put"]),
        (_sync, TableCache, ["get"]),
        (_iter, iterators, ["merge_sorted"]),
        (_iter, core_store, ["merge_sorted"]),
        (_iter, core_merge, ["merge_sorted"]),
        (_iter, core_split, ["merge_sorted"]),
    ],
    "device": [
        (_sync, SimulatedDisk, ["create", "append_writer", "open", "delete", "read_full"]),
        (_sync, SequentialWriter, ["append"]),
        (_sync, RandomAccessFile, ["read"]),
    ],
    "obs": [
        (_sync, MetricsRegistry, ["histogram", "counter", "gauge"]),
        (_sync, LogHistogram, ["record"]),
        (_sync, Counter, ["inc"]),
    ],
}


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` and extend STATS replies."""
    for layer, targets in LAYERS.items():
        for wrap, owner, names in targets:
            for name in names:
                setattr(owner, name, wrap(tracer, layer, getattr(owner, name)))

    untraced_stats = KVServer.stats_payload

    def stats_payload(self: KVServer) -> dict:
        payload = untraced_stats(self)
        io = [store.disk.stats for store in self.router.stores]
        payload["perfbench"] = {
            "spans": tracer.totals(),
            "io": {
                "read_ops": sum(s.read_ops for s in io),
                "read_bytes": sum(s.read_bytes for s in io),
                "write_ops": sum(s.write_ops for s in io),
                "write_bytes": sum(s.write_bytes for s in io),
            },
        }
        return payload

    KVServer.stats_payload = stats_payload


if __name__ == "__main__":
    install(Tracer())
    from repro.__main__ import main
    raise SystemExit(main(sys.argv[1:]))
