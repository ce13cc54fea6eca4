"""SortedStore: the cold, fully-sorted, KV-separated second layer.

One partition's SortedStore is a single sorted run of SSTables holding only
keys and encoded value pointers (:func:`~repro.engine.vlog.unpack_pointer`);
values live in append-only value-log files.  Because the run is fully
sorted and its boundary keys are in memory, a point lookup touches exactly
one SSTable (even for absent keys — the paper's replacement for Bloom
filters), plus one value-log read on a hit.

Merge, GC and split each end by writing a partition's new run, and all
three do it through :func:`write_run`, which owns the separation policy;
they differ only in the records they feed it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator

from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_VALUE, KIND_VPTR
from repro.engine.sstable import TableMeta, write_tables
from repro.engine.vlog import VLogWriter, unpack_pointer
from repro.core.context import StoreContext

Record = tuple[bytes, int, bytes]
#: (log number, offset) -> (key, record length, value) of value-log records
LogRecords = dict[tuple[int, int], tuple[bytes, int, bytes]]


class SortedStore:
    """Sorted, non-overlapping run of key+pointer tables for one partition."""

    def __init__(self, ctx: StoreContext, partition_id: int) -> None:
        self._ctx = ctx
        self.partition_id = partition_id
        self.tables: list[TableMeta] = []  # sorted by smallest, disjoint
        #: ``smallest`` of each table, for the in-memory binary searches
        self._smallest: list[bytes] = []
        #: bytes of live value-log records owned by this partition's keys
        self.live_value_bytes = 0

    # -- structure ------------------------------------------------------------------

    def replace_tables(self, tables: list[TableMeta]) -> None:
        self.tables = sorted(tables, key=lambda m: m.smallest)
        self._smallest = [m.smallest for m in self.tables]
        self._check_invariants()

    def _check_invariants(self) -> None:
        for a, b in zip(self.tables, self.tables[1:]):
            if a.largest >= b.smallest:
                raise CorruptionError(
                    f"SortedStore run overlap: {a.name} .. {b.name}")

    # -- reads -----------------------------------------------------------------------

    def _table_for_key(self, key: bytes) -> TableMeta | None:
        if not self.tables:
            return None
        i = bisect_left(self._smallest, key)
        if i < len(self.tables) and self.tables[i].smallest == key:
            return self.tables[i]
        if i == 0:
            return None
        meta = self.tables[i - 1]
        return meta if meta.largest >= key else None

    def get(self, key: bytes) -> bytes | None:
        """Resolve ``key`` to its value via pointer, or None.

        Costs at most one SSTable block read (the binary search over
        boundary keys is in memory) plus one value-log read.
        """
        meta = self._table_for_key(key)
        if meta is None:
            return None
        found = self._ctx.table_reader(meta.name).get(key, tag="lookup")
        if found is None:
            return None
        kind, payload = found
        if kind == KIND_VALUE:
            # Selective KV separation keeps small values inline.
            return payload
        if kind != KIND_VPTR:
            raise CorruptionError(f"SortedStore record of kind {kind} for {key!r}")
        return self.resolve_pointer(key, payload, tag="lookup_value")

    def resolve_pointer(self, key: bytes, ptr_bytes: bytes, tag: str) -> bytes:
        """The value a pointer record of ``key`` points at (one value-log
        read); the value log must hold it under ``key``."""
        __, log_number, offset, length = unpack_pointer(ptr_bytes)
        stored_key, value = self._ctx.log_reader(log_number).read_value(
            offset, length, tag=tag)
        if stored_key != key:
            raise CorruptionError(
                f"value-log key mismatch: wanted {key!r}, found {stored_key!r}")
        return value

    # -- iteration ---------------------------------------------------------------------

    def entries_from(self, start: bytes, tag: str = "scan") -> Iterator[Record]:
        """Records with key >= start, sorted: ``(key, KIND_VPTR, pointer
        bytes)``, and with ``inline_value_threshold > 0`` also
        ``(key, KIND_VALUE, value)`` for values kept inline."""
        return chain.from_iterable(self._tables_from(start, tag))

    def _tables_from(self, start: bytes, tag: str) -> Iterator[Iterator[Record]]:
        # One table at a time: a table is opened only once the scan
        # reaches it.
        if not self.tables:
            return
        i = max(0, bisect_left(self._smallest, start) - 1) if start else 0
        for meta in self.tables[i:]:
            if meta.largest < start:
                continue
            reader = self._ctx.table_reader(meta.name)
            if start > meta.smallest:
                yield reader.entries_from(start, tag=tag)
            else:
                yield reader.entries(tag=tag)

    def all_entries(self, tag: str) -> Iterator[Record]:
        """Full sequential pass over the run (merge/GC/split input); a
        table is opened only once the pass reaches it."""
        table_reader = self._ctx.table_reader
        return chain.from_iterable(
            table_reader(meta.name, streaming=True).entries(tag=tag)
            for meta in self.tables)

    # -- introspection ------------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def total_key_bytes(self) -> int:
        return sum(m.file_size for m in self.tables)

    def num_entries(self) -> int:
        return sum(m.num_entries for m in self.tables)


# -- writing a run -----------------------------------------------------------------------

def read_log_records(ctx: StoreContext, log_numbers: Iterable[int],
                     tag: str) -> LogRecords:
    """Every record of the given value logs, one sequential pass per log
    (the ``old_values`` of :func:`write_run`)."""
    return {(log_number, offset): (key, length, value)
            for log_number in log_numbers
            for key, value, offset, length in ctx.log_reader(log_number).scan(tag=tag)}


def write_run(ctx: StoreContext, partition_id: int, records: Iterable[Record],
              tag: str, old_values: LogRecords | None = None,
              ) -> tuple[list[TableMeta], int | None, int]:
    """Write a partition's new SortedStore run from sorted ``records``
    (values and pointers, no tombstones).

    * An inline value of at least ``inline_value_threshold`` bytes is
      separated into one fresh value log, created at the first such value;
      a smaller one stays inline (selective KV separation).
    * A pointer is carried as is: its value stays where it is (partial KV
      separation, lazy value split).
    * With ``old_values`` (GC, and the merge's full re-separation), the
      value a pointer names is rewritten into the new log instead.  The
      pointer must name the start of a record stored under its key with
      its length, as the read path checks.

    Returns the tables, the new log's number (None if nothing was
    separated) and the run's live value-log bytes.
    """
    inline_below = ctx.config.inline_value_threshold
    writer: VLogWriter | None = None
    carried_bytes = 0

    def separated() -> Iterator[Record]:
        nonlocal writer, carried_bytes
        append = None
        old_record = None if old_values is None else old_values.get
        for record in records:
            key, kind, payload = record
            if kind == KIND_VALUE:
                if len(payload) < inline_below:
                    yield record
                    continue
                value = payload
            else:
                __, old_log, offset, length = unpack_pointer(payload)
                if old_record is None:
                    carried_bytes += length
                    yield record
                    continue
                found = old_record((old_log, offset))
                if found is None or found[0] != key or found[1] != length:
                    raise CorruptionError(
                        f"value pointer of {key!r} does not name its record "
                        f"(log {old_log} @{offset}, {length} bytes)")
                value = found[2]
            if append is None:
                log_number = ctx.alloc_log_number()
                writer = VLogWriter(ctx.disk, ctx.log_name(log_number),
                                    partition=partition_id,
                                    log_number=log_number, tag=tag)
                append = writer.append
            yield key, KIND_VPTR, append(key, value)

    tables = write_tables(separated(), lambda: ctx.new_table(tag),
                          ctx.config.sstable_size)
    ctx.load_tables(tables)
    if writer is None:
        return tables, None, carried_bytes
    # Every record of the new log is live.
    live_value_bytes = carried_bytes + writer.size()
    writer.close()
    return tables, writer.log_number, live_value_bytes
