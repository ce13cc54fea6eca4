"""A SkimpyStash-like hash-directory log store.

The paper's motivation experiment (our E1) compares a pure hash-indexed
store against LevelDB as the dataset grows: the hash store is very fast when
small, then degrades because each lookup walks an on-disk bucket chain whose
length grows with the dataset (SkimpyStash keeps only ~1 byte/key of memory
by leaving the chains on flash).

Record layout in the append-only log::

    [kind (1B)] [key length (4B)] [value length (4B)] [prev offset (8B)] [key] [value]

``prev offset`` links records of the same bucket into a chain; the in-memory
directory holds only each bucket's head offset.  Lookups read whole 4 KB
pages (as the real system reads flash pages), one random read per hop.

The directory lives only in memory, so the store cannot recover: opening
it over a disk that already holds its log raises
:class:`~repro.engine.errors.InvalidArgument`.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict

from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.env.storage import SimulatedDisk
from repro.lsm.base import KVStore, refuse_reopen

_HDR = struct.Struct("<BIIQ")
_NIL = 0xFFFFFFFFFFFFFFFF
_PAGE = 4096


class SkimpyStashStore(KVStore):
    """Hash-directory store with on-disk bucket chains."""

    name = "SkimpyStash"

    def __init__(self, disk: SimulatedDisk | None = None,
                 num_buckets: int = 1024, prefix: str = "",
                 page_cache_bytes: int = 32 * 1024,
                 write_buffer_bytes: int = 16 * 1024) -> None:
        self._disk = disk if disk is not None else SimulatedDisk()
        self.num_buckets = num_buckets
        self._heads = [_NIL] * num_buckets
        self._log_name = f"{prefix}stash-log"
        refuse_reopen(self._disk, self.name, (self._log_name,))
        self._writer = self._disk.create(self._log_name)
        self.num_records = 0
        # RAM write buffer (the real system batches records into flash
        # pages through RAM); recent keys are served from here for free.
        self._buffer: dict[bytes, tuple[int, bytes]] = {}
        self._buffer_bytes = 0
        self._write_buffer_capacity = write_buffer_bytes
        # LRU of recently read flash pages (the OS page cache the real
        # system reads through); comparable in size to the other engines'
        # block caches.
        self._page_cache: OrderedDict[int, bytes] = OrderedDict()
        self._page_cache_capacity = max(1, page_cache_bytes // _PAGE)

    # -- public API --------------------------------------------------------------

    @property
    def disk(self) -> SimulatedDisk:
        return self._disk

    def _bucket(self, key: bytes) -> int:
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little") % self.num_buckets

    def _append(self, key: bytes, kind: int, value: bytes) -> None:
        bucket = self._bucket(key)
        record = _HDR.pack(kind, len(key), len(value), self._heads[bucket]) + key + value
        offset = self._writer.append(record, tag="write")
        self._heads[bucket] = offset
        self.num_records += 1

    def _buffer_record(self, key: bytes, kind: int, value: bytes) -> None:
        prior = self._buffer.get(key)
        if prior is not None:
            self._buffer_bytes -= len(key) + len(prior[1])
        self._buffer[key] = (kind, value)
        self._buffer_bytes += len(key) + len(value)
        if self._buffer_bytes >= self._write_buffer_capacity:
            self.flush()

    def flush(self) -> None:
        """Drain the RAM buffer into the on-disk chains."""
        for key, (kind, value) in self._buffer.items():
            self._append(key, kind, value)
        self._buffer.clear()
        self._buffer_bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        self._buffer_record(key, KIND_VALUE, value)

    def delete(self, key: bytes) -> None:
        self._buffer_record(key, KIND_TOMBSTONE, b"")

    def _read_from(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset`` through the page cache.

        Cache granularity is one aligned flash page; a miss costs one
        random page read.  The mutable log tail is never cached (it is
        still being appended to).
        """
        size = self._disk.size(self._log_name)
        out = bytearray()
        page_no = offset // _PAGE
        while len(out) < length and page_no * _PAGE < size:
            page = self._page_cache.get(page_no)
            if page is not None:
                self._page_cache.move_to_end(page_no)
            else:
                start = page_no * _PAGE
                page = self._disk.open(self._log_name).read(
                    start, min(_PAGE, size - start), tag="lookup")
                if len(page) == _PAGE:  # full (immutable) pages only
                    self._page_cache[page_no] = page
                    while len(self._page_cache) > self._page_cache_capacity:
                        self._page_cache.popitem(last=False)
            skip = offset + len(out) - page_no * _PAGE
            out.extend(page[skip:])
            page_no += 1
        return bytes(out[:length])

    def get(self, key: bytes) -> bytes | None:
        buffered = self._buffer.get(key)
        if buffered is not None:
            kind, value = buffered
            return None if kind == KIND_TOMBSTONE else value
        offset = self._heads[self._bucket(key)]
        while offset != _NIL:
            header = self._read_from(offset, _HDR.size)
            kind, klen, vlen, prev = _HDR.unpack_from(header, 0)
            body = self._read_from(offset + _HDR.size, klen + vlen)
            rec_key = body[:klen]
            if rec_key == key:
                if kind == KIND_TOMBSTONE:
                    return None
                return body[klen:]
            offset = prev
        return None

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        raise NotImplementedError(
            "hash indexing does not support range queries (the paper's point)")

    # -- introspection ---------------------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Directory memory: 8 bytes per bucket head."""
        return 8 * self.num_buckets

    def average_chain_length(self) -> float:
        occupied = sum(1 for h in self._heads if h != _NIL)
        return self.num_records / occupied if occupied else 0.0
