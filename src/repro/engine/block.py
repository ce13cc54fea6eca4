"""Data blocks: the unit of SSTable I/O (4 KB by default).

A block is a format byte, a concatenation of encoded (key, kind, value)
records, a record-count trailer and a CRC32 of everything before it (as in
LevelDB's per-block checksums: a flipped bit on the device surfaces as a
:class:`~repro.engine.errors.CorruptionError`, never as a wrong value).
Blocks are decoded whole — matching the paper's observation that one
data-block read (typically 4 KB) answers a lookup once the in-memory index
block has pinned down the block.

Records are self-contained (``[klen][vlen][kind][key][value]``); the
format byte is always ``FORMAT_PLAIN`` (0), and a block with any other
format byte is rejected as corrupt.

Blocks are encoded by :class:`~repro.engine.sstable.SSTableBuilder`, which
appends each record straight into the table's open block; this module
holds the format and the decoder.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from typing import Iterator

from repro.engine.errors import CorruptionError
from repro.engine.keys import ENTRY_HEADER, ENTRY_HEADER_SIZE, unpack_u32

DEFAULT_BLOCK_SIZE = 4096

FORMAT_PLAIN = 0


class Block:
    """A decoded data block supporting binary search and iteration.

    ``nbytes`` is the decoded size the block cache charges: the payload
    length, which is the sum of ``len(key) + len(value) + 9`` over the
    records.
    """

    __slots__ = ("keys", "kinds", "values", "nbytes")

    def __init__(self, keys: list[bytes], kinds: list[int], values: list[bytes],
                 nbytes: int) -> None:
        self.keys = keys
        self.kinds = kinds
        self.values = values
        self.nbytes = nbytes

    @classmethod
    def decode(cls, buf: bytes) -> "Block":
        size = len(buf)
        if size < 9:
            raise CorruptionError("block too small")
        if zlib.crc32(memoryview(buf)[:size - 4]) != unpack_u32(buf, size - 4):
            raise CorruptionError("block checksum mismatch")
        if buf[0] != FORMAT_PLAIN:
            raise CorruptionError(f"unknown block format {buf[0]}")
        return cls._decode_plain(buf[1:size - 8], unpack_u32(buf, size - 8))

    @classmethod
    def _decode_plain(cls, buf: bytes, count: int) -> "Block":
        keys: list[bytes] = []
        kinds: list[int] = []
        values: list[bytes] = []
        add_key, add_kind, add_value = keys.append, kinds.append, values.append
        unpack = ENTRY_HEADER.unpack_from
        pos = 0
        end = len(buf)
        for __ in range(count):
            if pos + ENTRY_HEADER_SIZE > end:
                raise CorruptionError("block record count exceeds body")
            klen, vlen, kind = unpack(buf, pos)
            key_end = pos + ENTRY_HEADER_SIZE + klen
            add_key(buf[pos + ENTRY_HEADER_SIZE:key_end])
            pos = key_end + vlen
            add_value(buf[key_end:pos])
            add_kind(kind)
        if pos != end:
            raise CorruptionError("block body has trailing bytes")
        return cls(keys, kinds, values, end)

    def get(self, key: bytes) -> tuple[int, bytes] | None:
        """(kind, value) for ``key``, or None."""
        i = bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return self.kinds[i], self.values[i]
        return None

    def __len__(self) -> int:
        return len(self.keys)

    def entries(self, start_index: int = 0) -> Iterator[tuple[bytes, int, bytes]]:
        """(key, kind, value) records from ``start_index`` on, in key order."""
        if start_index:
            return zip(self.keys[start_index:], self.kinds[start_index:],
                       self.values[start_index:])
        return zip(self.keys, self.kinds, self.values)

    def lower_bound(self, key: bytes) -> int:
        """Index of the first record with record.key >= key."""
        return bisect_left(self.keys, key)
