"""Range-sharded routing across independent UniKV instances.

UniKV scales a single node by dynamic range partitioning; the router
applies the same idea one level up: the keyspace is cut into N contiguous
ranges, each served by its own :class:`~repro.core.store.UniKV` store on
its own simulated device.  Routing is the identical boundary-key bisect
the store uses for its partitions (``core/store.py``): shard ``i`` owns
``[boundaries[i-1], boundaries[i])`` with the first shard anchored at
``b""``.

Shards are fully independent — separate memtables, WALs, schedulers,
write-stall accounting — which is what lets the server apply per-shard
admission control and a future PR rebalance or replicate shards without
touching the store.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.config import UniKVConfig
from repro.core.store import UniKV
from repro.obs import core_view, merge_snapshots, write_stall_view


@dataclass(frozen=True)
class ShardPressure:
    """Snapshot of one shard's maintenance backpressure.

    ``queue_depth`` is the *instantaneous* in-flight background job count;
    ``stall_events`` is the count of the scheduler's cumulative
    ``write_stall_seconds`` histogram — the durable record that
    slowdown/stop backpressure fired.  Admission control diffs the
    cumulative count between probes (on the virtual clock, depth>0 windows
    can be shorter than one request gap, but every stall is counted).
    """

    shard: int
    queue_depth: int
    stall_events: int
    slowdown_trigger: int
    stop_trigger: int

    @property
    def state(self) -> str:
        """``"ok"`` | ``"slowdown"`` | ``"stop"`` (RocksDB's write states)."""
        if self.queue_depth >= self.stop_trigger:
            return "stop"
        if self.queue_depth >= self.slowdown_trigger:
            return "slowdown"
        return "ok"


def default_boundaries(num_shards: int) -> list[bytes]:
    """Evenly spaced single-byte split points over the full keyspace.

    A reasonable default for opaque binary keys; deployments with a known
    key shape (e.g. YCSB's ``user<digits>`` keys) should pass explicit
    boundaries instead.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return [bytes([(i * 256) // num_shards]) for i in range(1, num_shards)]


class ShardRouter:
    """N independent UniKV stores behind one KV interface.

    The router exposes the same ``put/get/delete/scan/write_batch`` surface
    as a single store, plus aggregation (:meth:`stats`, :meth:`describe`)
    and the per-shard :meth:`pressure` probe the server's admission control
    reads.
    """

    def __init__(self, stores: list[UniKV], boundaries: list[bytes]) -> None:
        if len(boundaries) != len(stores) - 1:
            raise ValueError("need exactly len(stores) - 1 boundaries")
        if sorted(boundaries) != list(boundaries) or len(set(boundaries)) != len(boundaries):
            raise ValueError("boundaries must be strictly increasing")
        self.stores = list(stores)
        self.boundaries = list(boundaries)
        self._lowers = [b""] + self.boundaries
        self._closed = False

    @classmethod
    def create(cls, num_shards: int, boundaries: list[bytes] | None = None,
               config: UniKVConfig | None = None) -> "ShardRouter":
        """Build ``num_shards`` fresh stores, each on its own disk.

        Every shard gets its *own* config instance (configs are mutable
        dataclasses; sharing one across schedulers would be a trap).
        """
        if boundaries is None:
            boundaries = default_boundaries(num_shards)
        stores = [UniKV(config=replace_config(config)) for __ in range(num_shards)]
        return cls(stores, boundaries)

    # -- routing (the store's partition bisect, one level up) -------------------------

    def shard_index(self, key: bytes) -> int:
        return bisect_right(self.boundaries, key)

    def shard_for(self, key: bytes) -> UniKV:
        return self.stores[self.shard_index(key)]

    @property
    def num_shards(self) -> int:
        return len(self.stores)

    # -- KV surface -------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self.shard_for(key).put(key, value)

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        return self.shard_for(key).get(key)

    def delete(self, key: bytes) -> None:
        self._check_open()
        self.shard_for(key).delete(key)

    def split_batch(self, ops: list[tuple]) -> dict[int, list[tuple]]:
        """Group batch ops by owning shard, preserving per-shard op order."""
        groups: dict[int, list[tuple]] = {}
        for op in ops:
            groups.setdefault(self.shard_index(op[1]), []).append(op)
        return groups

    def write_batch(self, ops: list[tuple]) -> None:
        """Apply a batch, split by shard.

        Each shard's group keeps the store's per-partition atomicity; like
        a store batch spanning partitions, a batch spanning shards is
        atomic per shard, never partially applied within one.
        """
        self._check_open()
        for shard_index, group in sorted(self.split_batch(ops).items()):
            self.stores[shard_index].write_batch(group)

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Range scan across shards, consumed in boundary order."""
        self._check_open()
        out: list[tuple[bytes, bytes]] = []
        if count <= 0:
            return out
        for shard_index in range(self.shard_index(start), len(self.stores)):
            lo = max(start, self._lowers[shard_index])
            out.extend(self.stores[shard_index].scan(lo, count - len(out)))
            if len(out) >= count:
                break
        return out

    def flush(self) -> None:
        self._check_open()
        for store in self.stores:
            store.flush()

    def close(self) -> None:
        """Shut every shard down cleanly (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for store in self.stores:
            store.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def reattach(self, shard_index: int, store: UniKV) -> UniKV:
        """Swap a crashed shard's store for a recovered replacement.

        The chaos harness kills a shard (its disk raises
        :class:`~repro.env.storage.DiskCrashed`), recovers a fresh
        :class:`UniKV` from a crash-consistent clone of the device, and
        re-attaches it here; requests route to the replacement from the
        next operation on.  Returns the store that was replaced.
        """
        if not 0 <= shard_index < len(self.stores):
            raise IndexError(f"no shard {shard_index}")
        old = self.stores[shard_index]
        self.stores[shard_index] = store
        return old

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("router is closed")

    # -- backpressure -----------------------------------------------------------------

    def pressure(self, shard_index: int) -> ShardPressure:
        scheduler = self.stores[shard_index].scheduler
        return ShardPressure(
            shard=shard_index,
            queue_depth=scheduler.queue_depth(),
            stall_events=scheduler.stalls.count,
            slowdown_trigger=scheduler.slowdown_trigger,
            stop_trigger=scheduler.stop_trigger,
        )

    # -- aggregation ------------------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard and aggregate ``core``/``write_stall`` views: each
        shard's registry snapshot, and :func:`merge_snapshots` of them all,
        read through the same :mod:`repro.obs.view` functions."""
        snapshots = [store.metrics_snapshot() for store in self.stores]
        shards = [{
            "shard": i,
            "lower": self._lowers[i].hex(),
            "partitions": store.num_partitions(),
            **_store_view(snapshot),
        } for i, (store, snapshot) in enumerate(zip(self.stores, snapshots))]
        return {"shards": shards, "aggregate": {
            "partitions": sum(store.num_partitions() for store in self.stores),
            **_store_view(merge_snapshots(snapshots)),
        }}

    def metrics_snapshot(self) -> dict:
        """One obs snapshot for the whole deployment.

        Histograms merge bucket-by-bucket (quantiles are recomputed over
        the union, not averaged — averaging per-shard p99s is wrong) and
        counters/gauges sum, so the result reads like one store's snapshot.
        """
        return merge_snapshots([store.metrics_snapshot() for store in self.stores])

    def describe(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "boundaries": [b.hex() for b in self.boundaries],
            "shards": [{
                "shard": i,
                "lower": self._lowers[i].hex(),
                **store.describe(),
            } for i, store in enumerate(self.stores)],
        }


def replace_config(config: UniKVConfig | None) -> UniKVConfig:
    """A fresh config per shard (copy of the template, or defaults)."""
    if config is None:
        return UniKVConfig()
    return UniKVConfig(**config.__dict__)


def _store_view(snapshot: dict) -> dict:
    return {"core": core_view(snapshot), "write_stall": write_stall_view(snapshot)}
