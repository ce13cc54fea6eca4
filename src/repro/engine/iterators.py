"""Merging-iterator machinery.

Both compaction and scans need a k-way merge of sorted record streams where
newer sources shadow older ones.  Sources are plain iterators of
``(key, kind, value)`` in ascending key order; each is assigned a priority
(lower = newer).  The merge yields exactly one record per distinct key — the
one from the newest source — in ascending key order.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.engine.keys import KIND_TOMBSTONE

Record = tuple[bytes, int, bytes]


def merge_sorted(sources: Iterable[Iterator[Record]],
                 drop_tombstones: bool = False) -> Iterator[Record]:
    """Merge sorted record streams, newest-source-wins per key.

    ``sources`` are ordered newest first (index = priority).  With
    ``drop_tombstones`` the surviving record is suppressed when it is a
    deletion — used by bottommost compactions and merges into an empty run.
    """
    # Heap items are (key, priority, source, record): keys tie only across
    # sources, and priorities never tie, so sources are never compared.
    heap: list[tuple[bytes, int, Iterator[Record], Record]] = []
    for priority, source in enumerate(sources):
        it = iter(source)
        first = next(it, None)
        if first is not None:
            heap.append((first[0], priority, it, first))
    heapq.heapify(heap)

    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    prev_key: bytes | None = None
    while len(heap) > 1:
        key, priority, it, record = heap[0]
        # Refill from the source just consumed before emitting: a refill
        # can read a block, and a scan must keep its reads in this order.
        nxt = next(it, None)
        if nxt is None:
            heappop(heap)
        else:
            heapreplace(heap, (nxt[0], priority, it, nxt))
        if key == prev_key:
            continue  # an older version of a key we already emitted
        prev_key = key
        if drop_tombstones and record[1] == KIND_TOMBSTONE:
            continue
        yield record
    if not heap:
        return
    # One source left: it passes straight through.  Only its first key can
    # repeat the last one emitted (an older version, skipped), and each
    # record is still emitted after the next one is pulled.
    key, __, it, record = heap[0]
    if key == prev_key:
        record = next(it, None)
        if record is None:
            return
    for nxt in it:
        if not drop_tombstones or record[1] != KIND_TOMBSTONE:
            yield record
        record = nxt
    if not drop_tombstones or record[1] != KIND_TOMBSTONE:
        yield record
