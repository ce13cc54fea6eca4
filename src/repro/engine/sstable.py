"""SSTable writer/reader.

File layout::

    [data block 0] ... [data block N-1]
    [bloom filter]          (optional; baselines only — UniKV omits it)
    [index block]           (per data block: last_key, offset, length)
    [properties]            (smallest key, largest key, entry count)
    [footer]                (fixed-size locators + magic)

The index block and properties are read once at open time and kept in
memory, mirroring LevelDB's cached index/metadata blocks; lookups then cost
at most one data-block read (plus a Bloom probe for engines that use one).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from itertools import chain
from typing import Callable, Iterable, Iterator

from repro.engine.block import DEFAULT_BLOCK_SIZE, FORMAT_PLAIN, Block
from repro.engine.block_cache import BlockCache
from repro.engine.bloom import BloomFilter
from repro.engine.errors import CorruptionError
from repro.engine.keys import ENTRY_HEADER, KINDS, pack_u32
from repro.env.iostats import RAND, SEQ
from repro.env.storage import SimulatedDisk

_FOOTER = struct.Struct("<QIQIQIIQ")  # index/bloom/props locators, metadata CRC, magic
_MAGIC = 0x554E494B565F5353  # "UNIKV_SS"
_IDX_ENTRY = struct.Struct("<IQI")   # key length, block offset, block length
_PROPS = struct.Struct("<III")       # smallest len, largest len, entry count
_BLOCK_TRAILER = 8                   # record count and CRC32 of a data block
_pack_entry = ENTRY_HEADER.pack
#: the format byte every data block starts with
_FORMAT = bytes([FORMAT_PLAIN])

FOOTER_SIZE = _FOOTER.size


class SSTableBuilder:
    """Writes records (strictly increasing keys) into a new table file.

    Each record is encoded straight into the open data block (see
    :mod:`repro.engine.block`); a block is written once its encoded size
    reaches ``block_size``.
    """

    def __init__(self, disk: SimulatedDisk, name: str, tag: str,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 bloom_bits_per_key: int = 0) -> None:
        self._disk = disk
        self._writer = disk.create(name)
        self._tag = tag
        #: the open block: format byte and records so far
        self._block = bytearray(_FORMAT)
        self._block_count = 0
        #: a block is cut once it and its count trailer and CRC reach block_size
        self._cut_at = block_size - _BLOCK_TRAILER
        #: bytes written to the file so far
        self._written = 0
        self._index: list[tuple[bytes, int, int]] = []  # last_key, offset, length
        self._keys_for_bloom: list[bytes] | None = [] if bloom_bits_per_key else None
        self._bloom_bits = bloom_bits_per_key
        self.name = name
        #: records in the blocks written so far
        self._flushed_entries = 0
        self.smallest: bytes | None = None
        self.largest: bytes | None = None

    def add(self, key: bytes, kind: int, value: bytes) -> None:
        last = self.largest
        if last is None:
            self.smallest = key
        elif key <= last:
            raise ValueError("SSTable keys must be strictly increasing")
        if kind not in KINDS:
            raise ValueError(f"unknown record kind {kind}")
        block = self._block
        block += _pack_entry(len(key), len(value), kind)
        block += key
        block += value
        self.largest = key
        self._block_count += 1
        if self._keys_for_bloom is not None:
            self._keys_for_bloom.append(key)
        if len(block) >= self._cut_at:
            self._flush_block()

    def _flush_block(self) -> None:
        if not self._block_count:
            return
        block = self._block
        block += pack_u32(self._block_count)
        block += pack_u32(zlib.crc32(block))
        self._writer.append(bytes(block), tag=self._tag)
        self._index.append((self.largest, self._written, len(block)))
        self._written += len(block)
        self._flushed_entries += self._block_count
        self._block = bytearray(_FORMAT)
        self._block_count = 0

    @property
    def num_entries(self) -> int:
        return self._flushed_entries + self._block_count

    @property
    def estimated_size(self) -> int:
        """Bytes written so far plus the open block's encoded size."""
        return self._written + len(self._block) + _BLOCK_TRAILER

    def finish(self) -> "TableMeta":
        """Flush remaining data and write metadata; returns the table's meta."""
        if self.num_entries == 0:
            raise ValueError("cannot finish an empty SSTable")
        self._flush_block()
        bloom_off = bloom_len = 0
        if self._keys_for_bloom is not None:
            bloom = BloomFilter(len(self._keys_for_bloom), self._bloom_bits)
            for key in self._keys_for_bloom:
                bloom.add(key)
            encoded = bloom.encode()
            bloom_off = self._writer.append(encoded, tag=self._tag)
            bloom_len = len(encoded)
        index_buf = b"".join(
            _IDX_ENTRY.pack(len(k), off, length) + k for k, off, length in self._index
        )
        index_off = self._writer.append(index_buf, tag=self._tag)
        props_buf = (
            _PROPS.pack(len(self.smallest), len(self.largest), self.num_entries)
            + self.smallest + self.largest
        )
        props_off = self._writer.append(props_buf, tag=self._tag)
        # CRC over the whole metadata region (bloom + index + props) AND
        # the footer's locator fields: a flipped byte anywhere in table
        # metadata is detected at open, like data blocks' checksums.
        locators = struct.pack("<QIQIQI", index_off, len(index_buf),
                               bloom_off, bloom_len, props_off, len(props_buf))
        meta_crc = zlib.crc32((encoded if bloom_len else b"")
                              + index_buf + props_buf + locators)
        self._writer.append(
            _FOOTER.pack(index_off, len(index_buf), bloom_off, bloom_len,
                         props_off, len(props_buf), meta_crc, _MAGIC),
            tag=self._tag,
        )
        self._writer.close()
        return TableMeta(
            name=self.name,
            smallest=self.smallest,
            largest=self.largest,
            num_entries=self.num_entries,
            file_size=self._disk.size(self.name),
        )


class TableMeta:
    """Lightweight descriptor of a finished table (lives in engine manifests)."""

    __slots__ = ("name", "smallest", "largest", "num_entries", "file_size")

    def __init__(self, name: str, smallest: bytes, largest: bytes,
                 num_entries: int, file_size: int) -> None:
        self.name = name
        self.smallest = smallest
        self.largest = largest
        self.num_entries = num_entries
        self.file_size = file_size

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """Whether [smallest, largest] intersects [lo, hi] (inclusive)."""
        return not (self.largest < lo or self.smallest > hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TableMeta({self.name!r}, [{self.smallest!r}..{self.largest!r}], "
                f"n={self.num_entries})")


def write_tables(records: Iterable[tuple[bytes, int, bytes]],
                 new_builder: Callable[[], SSTableBuilder],
                 table_size: int) -> list[TableMeta]:
    """Write ``records`` (strictly increasing keys) as a run of tables.

    Each table's builder is created just before its first record is added,
    so whatever pulling that record does (say, appending its value to a
    log) happens first; a table is cut once it reaches ``table_size``
    bytes.  An empty stream creates no table.
    """
    tables: list[TableMeta] = []
    builder: SSTableBuilder | None = None
    for key, kind, value in records:
        if builder is None:
            builder = new_builder()
            add = builder.add
        add(key, kind, value)
        if builder.estimated_size >= table_size:
            tables.append(builder.finish())
            builder = None
    if builder is not None:
        tables.append(builder.finish())
    return tables


class SSTableReader:
    """Reads one table file; index/properties cached in memory after open."""

    def __init__(self, disk: SimulatedDisk, name: str, cache: BlockCache | None = None,
                 open_tag: str = "table_open", open_pattern: str = "rand") -> None:
        self._disk = disk
        self._file = disk.open(name)
        self._cache = cache
        self.name = name
        size = self._file.size()
        if size < FOOTER_SIZE:
            raise CorruptionError(f"{name}: too small for a footer")
        footer = self._file.read(size - FOOTER_SIZE, FOOTER_SIZE, tag=open_tag,
                                 pattern=open_pattern)
        (index_off, index_len, bloom_off, bloom_len,
         props_off, props_len, meta_crc, magic) = _FOOTER.unpack(footer)
        if magic != _MAGIC:
            raise CorruptionError(f"{name}: bad magic")
        # Bloom, index and properties are laid out contiguously before the
        # footer; read the whole metadata region in one I/O, as real table
        # opens do.
        meta_start = bloom_off if bloom_len else index_off
        if not 0 <= meta_start <= size - FOOTER_SIZE:
            raise CorruptionError(f"{name}: metadata locators out of range")
        meta = self._file.read(meta_start, size - FOOTER_SIZE - meta_start,
                               tag=open_tag, pattern=open_pattern)
        locators = struct.pack("<QIQIQI", index_off, index_len, bloom_off,
                               bloom_len, props_off, props_len)
        if zlib.crc32(meta + locators) != meta_crc:
            raise CorruptionError(f"{name}: table metadata checksum mismatch")
        index_buf = meta[index_off - meta_start:index_off - meta_start + index_len]
        self._block_last_keys: list[bytes] = []
        self._block_locs: list[tuple[int, int]] = []
        try:
            pos = 0
            while pos < len(index_buf):
                klen, off, length = _IDX_ENTRY.unpack_from(index_buf, pos)
                pos += _IDX_ENTRY.size
                self._block_last_keys.append(bytes(index_buf[pos:pos + klen]))
                self._block_locs.append((off, length))
                pos += klen
            props_buf = meta[props_off - meta_start:props_off - meta_start + props_len]
            slen, llen, count = _PROPS.unpack_from(props_buf, 0)
        except struct.error as exc:
            raise CorruptionError(f"{name}: malformed table metadata: {exc}") from exc
        base = _PROPS.size
        self.smallest = bytes(props_buf[base:base + slen])
        self.largest = bytes(props_buf[base + slen:base + slen + llen])
        self.num_entries = count
        self.bloom: BloomFilter | None = None
        if bloom_len:
            self.bloom = BloomFilter.decode(meta[0:bloom_len])
        self.file_size = size

    @property
    def num_blocks(self) -> int:
        return len(self._block_locs)

    def metadata_bytes(self) -> int:
        """Resident metadata footprint: per-block separator keys (each with
        an offset/length slot) plus the table's key bounds and counters."""
        total = sum(len(key) + 12 for key in self._block_last_keys)
        return total + len(self.smallest) + len(self.largest) + 24

    def _read_block(self, block_index: int, tag: str, pattern: str = RAND) -> Block:
        """One data block, from the block cache when it is there.

        Only a block read at random (a point lookup, a scan's seek) is
        inserted on a miss: re-reading it would cost another random read.
        A block streamed with ``SEQ`` (a scan's follow-on blocks, every
        merge, compaction and rebuild pass) is served from the cache if
        present but not inserted, as LevelDB's ``fill_cache = false`` keeps
        compaction input out; it would only evict the blocks that are
        expensive to read again.
        """
        off, length = self._block_locs[block_index]
        if self._cache is not None:
            cached = self._cache.get(self.name, off)
            if cached is not None:
                return cached
        block = Block.decode(self._file.read(off, length, tag=tag, pattern=pattern))
        if self._cache is not None and pattern == RAND:
            self._cache.put(self.name, off, block)
        return block

    def get(self, key: bytes, tag: str, use_bloom: bool = True) -> tuple[int, bytes] | None:
        """(kind, value) for ``key`` or None.  Costs at most one block read."""
        if key < self.smallest or key > self.largest:
            return None
        if use_bloom and self.bloom is not None and not self.bloom.may_contain(key):
            return None
        i = bisect_left(self._block_last_keys, key)
        if i >= len(self._block_locs):
            return None
        return self._read_block(i, tag=tag).get(key)

    def entries(self, tag: str) -> Iterator[tuple[bytes, int, bytes]]:
        """All records in key order (sequential block reads)."""
        return chain.from_iterable(
            self._read_block(i, tag=tag, pattern=SEQ).entries()
            for i in range(len(self._block_locs)))

    def entries_from(self, start: bytes, tag: str) -> Iterator[tuple[bytes, int, bytes]]:
        """Records with key >= start, in key order."""
        return chain.from_iterable(self._blocks_from(start, tag))

    def _blocks_from(self, start: bytes, tag: str) -> Iterator[Iterator[tuple[bytes, int, bytes]]]:
        # Blocks are read one at a time, as the consumer reaches them: the
        # first (a seek) when the first record is pulled, each later one
        # (sequential) when the previous block runs out.
        if start > self.largest:
            return
        i = bisect_left(self._block_last_keys, start)
        if i >= len(self._block_locs):
            return
        first = self._read_block(i, tag=tag)
        yield first.entries(first.lower_bound(start))
        for j in range(i + 1, len(self._block_locs)):
            yield self._read_block(j, tag=tag, pattern=SEQ).entries()

    def meta(self) -> TableMeta:
        return TableMeta(self.name, self.smallest, self.largest,
                         self.num_entries, self.file_size)
