"""UniKV's lightweight two-level in-memory hash index.

One index per partition covers that partition's UnsortedStore.  Each index
entry is conceptually ``<keyTag (2B), sstableID (2B), pointer (4B)>`` — 8
bytes — exactly the paper's layout; :meth:`memory_bytes` reports that cost.

* **Cuckoo placement**: insertion tries the ``n`` candidate buckets
  ``h_1(key)..h_n(key) % N`` and takes the first empty primary slot.
* **Chained overflow**: if all candidates' primary slots are taken, the
  entry is appended to bucket ``h_n(key) % N``'s overflow chain.
* **keyTag filtering**: the top 2 bytes of an independent hash
  ``h_{n+1}(key)`` are stored with each entry; lookups compare tags first
  and only touch disk for tag matches.  Tag collisions are possible — the
  store resolves them by comparing the key stored on disk, so a false
  positive costs one extra table probe, never a wrong answer.

Old versions of a key leave stale entries behind (newest wins because
candidates are probed in descending SSTable id); the whole index is cleared
when the UnsortedStore merges into the SortedStore, and rebuilt table-by-
table after a scan-triggered size-based merge.

A checkpoint (:meth:`HashIndex.encode`) ends in a CRC32; a damaged one
fails :meth:`HashIndex.decode` with a ``CorruptionError``, and recovery then
rebuilds the index from the tables.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

from repro.engine.errors import CorruptionError

_ENTRY_BYTES = 8  # keyTag(2) + sstableID(2) + pointer(4), as in the paper

# checkpoint layout: header, then per non-empty bucket its index and entry
# count followed by its entries, then a CRC32 of all of that
_HEADER = struct.Struct("<III")  # num_buckets, num_hashes, num_entries
_BUCKET = struct.Struct("<IH")   # bucket index, entry count
_ENTRY = struct.Struct("<HI")    # keyTag, sstable id
_CRC = struct.Struct("<I")


class HashIndex:
    """In-memory index from key to UnsortedStore SSTable id."""

    #: maximum cuckoo displacement chain before giving up and chaining
    MAX_KICKS = 16

    def __init__(self, num_buckets: int, num_hashes: int = 4) -> None:
        self.num_buckets = num_buckets
        self.num_hashes = num_hashes
        # bucket -> list of (key_tag, sstable_id); index 0 is the cuckoo
        # primary slot, the rest are the overflow chain (appended newest-last).
        self._buckets: list[list[tuple[int, int]]] = [[] for __ in range(num_buckets)]
        # primary-slot occupants remember their alternate candidate buckets
        # so they can be displaced (cuckoo-style) by later insertions;
        # this costs nothing in the modelled 8B/entry budget because the
        # candidates are recomputable from the key — we cache them only to
        # keep the simulation O(1), as the real system recomputes hashes.
        self._alternates: dict[int, list[int]] = {}
        self._kick_rotor = 0
        self._num_entries = 0
        # ``num_hashes + 1`` independent 64-bit hashes of a key: blake2b
        # salted with the hash's number.  The first ``num_hashes`` choose
        # candidate buckets; the last supplies the keyTag.  Each hasher is
        # salted once here and copied per key.
        hashers = [hashlib.blake2b(digest_size=8, salt=seed.to_bytes(2, "little"))
                   for seed in range(num_hashes + 1)]
        self._bucket_hashers = hashers[:-1]
        self._tag_hasher = hashers[-1]

    # -- key hashing -----------------------------------------------------------------

    def _candidates_and_tag(self, key: bytes) -> tuple[list[int], int]:
        num_buckets = self.num_buckets
        buckets: list[int] = []
        for hasher in self._bucket_hashers:
            h = hasher.copy()
            h.update(key)
            buckets.append(int.from_bytes(h.digest(), "little") % num_buckets)
        h = self._tag_hasher.copy()
        h.update(key)
        return buckets, int.from_bytes(h.digest(), "little") >> 48  # high 2 bytes

    # -- operations --------------------------------------------------------------------

    def insert(self, key: bytes, sstable_id: int) -> None:
        """Record that the newest version of ``key`` lives in ``sstable_id``.

        Placement is cuckoo-style: the entry takes the first empty candidate
        bucket; if all are occupied, occupants are displaced along their own
        candidate lists for up to :attr:`MAX_KICKS` hops before falling back
        to the overflow chain.  Every entry always resides in one of its own
        candidate buckets, so lookups never miss.
        """
        candidates, key_tag = self._candidates_and_tag(key)
        entry = (key_tag, sstable_id)
        self._num_entries += 1
        if self._try_place(entry, candidates):
            return
        self._insert_with_kicks(entry, candidates)

    def _try_place(self, entry: tuple[int, int], candidates: list[int]) -> bool:
        for b in candidates:
            if not self._buckets[b]:
                self._buckets[b].append(entry)
                self._alternates[b] = candidates
                return True
        return False

    def _insert_with_kicks(self, entry: tuple[int, int],
                           candidates: list[int]) -> None:
        bucket = candidates[self._kick_rotor % len(candidates)]
        self._kick_rotor += 1
        for __ in range(self.MAX_KICKS):
            bucket_list = self._buckets[bucket]
            victim = bucket_list[0]
            victim_candidates = self._alternates.get(bucket)
            bucket_list[0] = entry
            self._alternates[bucket] = candidates
            if victim_candidates is None:
                # Occupant restored from a checkpoint (alternates are not
                # persisted): it cannot be relocated, chain it here — its
                # residing bucket is already one of its candidates.
                bucket_list.append(victim)
                return
            entry, candidates = victim, victim_candidates
            if self._try_place(entry, candidates):
                return
            choices = [b for b in candidates if b != bucket] or candidates
            bucket = choices[self._kick_rotor % len(choices)]
            self._kick_rotor += 1
        # Displacement budget exhausted: chain onto a candidate bucket.
        self._buckets[candidates[-1]].append(entry)

    def lookup(self, key: bytes) -> list[int]:
        """Candidate SSTable ids for ``key``, newest (highest id) first.

        May contain false positives (keyTag collisions); never misses a
        table that holds the key.
        """
        buckets, key_tag = self._candidates_and_tag(key)
        matches: list[int] = []
        for b in buckets:
            for tag, sstable_id in self._buckets[b]:
                if tag == key_tag:
                    matches.append(sstable_id)
        # Descending table id == newest first (ids grow monotonically).
        return sorted(set(matches), reverse=True)

    def clear(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._alternates.clear()
        self._kick_rotor = 0
        self._num_entries = 0

    # -- introspection ---------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._num_entries

    def memory_bytes(self) -> int:
        """Modelled memory cost: 8 bytes per entry, as in the paper."""
        return self._num_entries * _ENTRY_BYTES

    def bucket_utilization(self) -> float:
        """Fraction of buckets whose primary slot is occupied."""
        occupied = sum(1 for b in self._buckets if b)
        return occupied / self.num_buckets

    def overflow_entries(self) -> int:
        """Entries living in overflow chains rather than primary slots."""
        return sum(max(0, len(b) - 1) for b in self._buckets)

    # -- checkpointing (crash consistency) ----------------------------------------------------

    def encode(self) -> bytes:
        """Serialize for an on-disk checkpoint, ending in a CRC32 of
        everything before it."""
        pack_bucket, pack_entry = _BUCKET.pack, _ENTRY.pack
        parts = [_HEADER.pack(self.num_buckets, self.num_hashes, self._num_entries)]
        append = parts.append
        for bi, bucket in enumerate(self._buckets):
            if bucket:
                append(pack_bucket(bi, len(bucket)))
                for tag, sstable_id in bucket:
                    append(pack_entry(tag, sstable_id))
        body = b"".join(parts)
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def decode(cls, buf: bytes) -> "HashIndex":
        end = len(buf) - _CRC.size
        if end < _HEADER.size:
            raise CorruptionError("hash-index checkpoint too small")
        if zlib.crc32(memoryview(buf)[:end]) != _CRC.unpack_from(buf, end)[0]:
            raise CorruptionError("hash-index checkpoint checksum mismatch")
        num_buckets, num_hashes, num_entries = _HEADER.unpack_from(buf, 0)
        index = cls(num_buckets, num_hashes)
        pos = _HEADER.size
        loaded = 0
        while pos < end:
            bi, count = _BUCKET.unpack_from(buf, pos)
            pos += _BUCKET.size
            if bi >= num_buckets or pos + count * _ENTRY.size > end:
                raise CorruptionError("hash-index checkpoint bucket out of range or truncated")
            bucket = index._buckets[bi]
            for __ in range(count):
                bucket.append(_ENTRY.unpack_from(buf, pos))
                pos += _ENTRY.size
            loaded += count
        if loaded != num_entries:
            raise CorruptionError("hash-index checkpoint entry count mismatch")
        index._num_entries = loaded
        return index
