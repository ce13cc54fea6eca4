"""Data blocks: the unit of SSTable I/O (4 KB by default).

A block is a format byte, a concatenation of encoded (key, kind, value)
records, a record-count trailer and a CRC32 of everything before it (as in
LevelDB's per-block checksums: a flipped bit on the device surfaces as a
:class:`~repro.engine.errors.CorruptionError`, never as a wrong value).
Blocks are decoded whole — matching the paper's observation that one
data-block read (typically 4 KB) answers a lookup once the in-memory index
block has pinned down the block.

Two record encodings exist, selected by the format byte:

* **plain** (format 0): each record is self-contained
  (``[klen][vlen][kind][key][value]``);
* **prefix-compressed** (format 1, LevelDB-style): each record stores only
  the suffix of its key beyond the prefix shared with the previous key
  (``[shared u16][non_shared u32][vlen u32][kind u8][suffix][value]``),
  with a full key restated every :data:`RESTART_INTERVAL` records.

Compression is opt-in per engine (``block_prefix_compression`` in the
configs); it shrinks key-dense blocks (UniKV's SortedStore key+pointer
tables especially) at a small CPU cost.

Blocks are encoded by :class:`~repro.engine.sstable.SSTableBuilder`, which
appends each record straight into the table's open block; this module
holds the format and the decoder.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from typing import Iterator

from repro.engine.errors import CorruptionError
from repro.engine.keys import ENTRY_HEADER, ENTRY_HEADER_SIZE, unpack_u32

DEFAULT_BLOCK_SIZE = 4096

FORMAT_PLAIN = 0
FORMAT_PREFIX = 1

#: a full key is restated every this many prefix-compressed records
RESTART_INTERVAL = 16

#: header of one prefix-compressed record: shared, non_shared, value len, kind
PREFIX_HEADER = struct.Struct("<HIIB")


def shared_prefix_len(a: bytes, b: bytes) -> int:
    """Length of the common prefix of ``a`` and ``b``, at most 0xFFFF."""
    n = min(len(a), len(b), 0xFFFF)
    diff = int.from_bytes(a[:n], "big") ^ int.from_bytes(b[:n], "big")
    # The first differing byte is the highest nonzero byte of ``diff``.
    return n - (diff.bit_length() + 7) // 8


class Block:
    """A decoded data block supporting binary search and iteration.

    ``nbytes`` is the decoded size the block cache charges: the sum of
    ``len(key) + len(value) + 9`` over the records, fixed at decode (for
    the plain format it is exactly the payload length).
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
        fmt = buf[0]
        count = unpack_u32(buf, size - 8)
        payload = buf[1:size - 8]
        if fmt == FORMAT_PLAIN:
            return cls._decode_plain(payload, count)
        if fmt == FORMAT_PREFIX:
            return cls._decode_prefix(payload, count)
        raise CorruptionError(f"unknown block format {fmt}")

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

    @classmethod
    def _decode_prefix(cls, buf: bytes, count: int) -> "Block":
        keys: list[bytes] = []
        kinds: list[int] = []
        values: list[bytes] = []
        pos = 0
        end = len(buf)
        prev = b""
        nbytes = 0
        for __ in range(count):
            if pos + PREFIX_HEADER.size > end:
                raise CorruptionError("block record count exceeds body")
            shared, non_shared, vlen, kind = PREFIX_HEADER.unpack_from(buf, pos)
            pos += PREFIX_HEADER.size
            if shared > len(prev) or pos + non_shared + vlen > end:
                raise CorruptionError("prefix-compressed record out of range")
            key = prev[:shared] + buf[pos:pos + non_shared]
            pos += non_shared
            value = buf[pos:pos + vlen]
            pos += vlen
            keys.append(key)
            kinds.append(kind)
            values.append(value)
            nbytes += len(key) + vlen + ENTRY_HEADER_SIZE
            prev = key
        if pos != end:
            raise CorruptionError("block body has trailing bytes")
        return cls(keys, kinds, values, nbytes)

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
