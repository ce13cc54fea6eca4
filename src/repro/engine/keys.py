"""Key/value encoding conventions shared by all engines.

Keys and values are ``bytes``.  Deletions are represented internally by the
``KIND_TOMBSTONE`` record kind; the :data:`TOMBSTONE` sentinel is used by
in-memory structures that carry a value slot for every key.

KV-separated stores (UniKV's SortedStore, WiscKey) carry ``KIND_VPTR``
records whose value bytes are an encoded value pointer (see
:func:`~repro.engine.vlog.unpack_pointer`).
"""

from __future__ import annotations

import struct

KIND_VALUE = 0
KIND_TOMBSTONE = 1
KIND_VPTR = 2

#: every valid record kind
KINDS = (KIND_VALUE, KIND_TOMBSTONE, KIND_VPTR)

#: Sentinel object marking a deletion in in-memory maps.
TOMBSTONE = object()

_U32 = struct.Struct("<I")
#: header of one encoded record: key length, value length, kind
ENTRY_HEADER = struct.Struct("<IIB")


def encode_entry(key: bytes, kind: int, value: bytes) -> bytes:
    """Serialize one (key, kind, value) record."""
    if kind not in KINDS:
        raise ValueError(f"unknown record kind {kind}")
    return ENTRY_HEADER.pack(len(key), len(value), kind) + key + value


def decode_entry(buf: bytes, offset: int = 0) -> tuple[bytes, int, bytes, int]:
    """Decode one record; returns (key, kind, value, next_offset)."""
    klen, vlen, kind = ENTRY_HEADER.unpack_from(buf, offset)
    start = offset + ENTRY_HEADER.size
    key = bytes(buf[start:start + klen])
    value = bytes(buf[start + klen:start + klen + vlen])
    return key, kind, value, start + klen + vlen


ENTRY_HEADER_SIZE = ENTRY_HEADER.size


def entry_size(key: bytes, value: bytes) -> int:
    """On-disk size of one encoded record."""
    return ENTRY_HEADER_SIZE + len(key) + len(value)


def pack_u32(n: int) -> bytes:
    return _U32.pack(n)


def unpack_u32(buf: bytes, offset: int = 0) -> int:
    return _U32.unpack_from(buf, offset)[0]
