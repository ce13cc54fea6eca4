"""Unit + property tests for UniKV's two-level hash index."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hash_index import HashIndex
from repro.engine.errors import CorruptionError


def test_insert_and_lookup_single():
    idx = HashIndex(num_buckets=64, num_hashes=4)
    idx.insert(b"key", 7)
    assert 7 in idx.lookup(b"key")


def test_lookup_missing_usually_empty():
    idx = HashIndex(num_buckets=1024, num_hashes=4)
    for i in range(100):
        idx.insert(f"in-{i}".encode(), i)
    false_hits = sum(bool(idx.lookup(f"out-{i}".encode())) for i in range(500))
    # 2-byte keyTags make false positives rare (not impossible).
    assert false_hits < 10


def test_never_misses_inserted_key():
    idx = HashIndex(num_buckets=128, num_hashes=4)
    for i in range(1000):  # heavy overflow chaining
        idx.insert(f"key-{i:04d}".encode(), i % 50)
    for i in range(1000):
        assert (i % 50) in idx.lookup(f"key-{i:04d}".encode())


def test_newest_table_listed_first():
    idx = HashIndex(num_buckets=256, num_hashes=4)
    idx.insert(b"k", 3)
    idx.insert(b"k", 9)   # newer version, higher table id
    idx.insert(b"k", 5)
    assert idx.lookup(b"k") == [9, 5, 3]


def test_clear():
    idx = HashIndex(num_buckets=32, num_hashes=2)
    idx.insert(b"a", 1)
    idx.clear()
    assert idx.num_entries == 0
    assert idx.lookup(b"a") == []


def test_memory_bytes_is_8_per_entry():
    idx = HashIndex(num_buckets=512, num_hashes=4)
    for i in range(100):
        idx.insert(str(i).encode(), i)
    assert idx.memory_bytes() == 100 * 8


def test_bucket_utilization_and_overflow():
    idx = HashIndex(num_buckets=16, num_hashes=2)
    assert idx.bucket_utilization() == 0.0
    for i in range(64):
        idx.insert(f"k{i}".encode(), i)
    assert idx.bucket_utilization() == 1.0  # 64 entries into 16 buckets
    assert idx.overflow_entries() == 64 - 16


def test_cuckoo_spreads_before_chaining():
    # With many candidate buckets and few keys, no chains should form.
    idx = HashIndex(num_buckets=4096, num_hashes=4)
    for i in range(200):
        idx.insert(f"key-{i}".encode(), i)
    assert idx.overflow_entries() <= 2


def test_checkpoint_roundtrip():
    idx = HashIndex(num_buckets=64, num_hashes=3)
    for i in range(300):
        idx.insert(f"key-{i:04d}".encode(), i)
    restored = HashIndex.decode(idx.encode())
    assert restored.num_entries == idx.num_entries
    for i in range(300):
        assert restored.lookup(f"key-{i:04d}".encode()) == \
            idx.lookup(f"key-{i:04d}".encode())


def test_checkpoint_decode_rejects_garbage():
    with pytest.raises(CorruptionError):
        HashIndex.decode(b"abc")
    idx = HashIndex(num_buckets=8, num_hashes=2)
    idx.insert(b"k", 1)
    buf = bytearray(idx.encode())
    buf[8] = 0xFF  # corrupt the entry count
    with pytest.raises(CorruptionError):
        HashIndex.decode(bytes(buf))


@settings(max_examples=30)
@given(st.dictionaries(st.binary(min_size=1, max_size=12),
                       st.integers(min_value=0, max_value=2000), max_size=200))
def test_lookup_contains_inserted_id_property(model):
    idx = HashIndex(num_buckets=256, num_hashes=4)
    for key, table_id in model.items():
        idx.insert(key, table_id)
    for key, table_id in model.items():
        assert table_id in idx.lookup(key)


@settings(max_examples=20)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.integers(min_value=0, max_value=100)),
                max_size=150))
def test_checkpoint_roundtrip_property(entries):
    idx = HashIndex(num_buckets=64, num_hashes=4)
    for key, table_id in entries:
        idx.insert(key, table_id)
    restored = HashIndex.decode(idx.encode())
    for key, table_id in entries:
        assert table_id in restored.lookup(key)


def test_cuckoo_displacement_raises_primary_utilization():
    """With displacement, a 4-hash table fills far past what first-fit
    placement achieves before chaining."""
    idx = HashIndex(num_buckets=256, num_hashes=4)
    for i in range(230):  # 90% load factor
        idx.insert(f"key-{i:04d}".encode(), i)
    # At 90% load, cuckoo displacement keeps nearly everything in primary
    # slots; the paper quotes ~80% utilization as the design point.
    assert idx.bucket_utilization() > 0.8
    assert idx.overflow_entries() < 230 * 0.1
    for i in range(230):
        assert i in idx.lookup(f"key-{i:04d}".encode())


def test_displaced_entries_remain_findable_under_churn():
    idx = HashIndex(num_buckets=64, num_hashes=3)
    for round_no in range(5):
        for i in range(60):
            idx.insert(f"k{i:03d}".encode(), round_no * 100 + i)
    for i in range(60):
        hits = idx.lookup(f"k{i:03d}".encode())
        assert 400 + i in hits            # newest version present
        assert hits[0] >= 400             # and listed first


def test_kicks_after_checkpoint_restore_fall_back_to_chaining():
    idx = HashIndex(num_buckets=32, num_hashes=2)
    for i in range(30):
        idx.insert(f"a{i:03d}".encode(), i)
    restored = HashIndex.decode(idx.encode())  # alternates not persisted
    for i in range(40):
        restored.insert(f"b{i:03d}".encode(), 100 + i)
    for i in range(30):
        assert i in restored.lookup(f"a{i:03d}".encode())
    for i in range(40):
        assert 100 + i in restored.lookup(f"b{i:03d}".encode())


#: sha256 over ``repr((buckets, tag))`` of HASH_PIN_KEYS for every
#: (num_hashes, num_buckets) below.  Checkpoint bytes and false-positive
#: probes depend on these values: a rewrite of the hashing must keep them.
HASH_PIN_DIGEST = "6dcb27dc8ce67f688de656532acc731a8978e0bb9f10dbec145bfa9b9ba41afe"
HASH_PIN_KEYS = [b""] + [b"user%016x" % (i * 0x9E3779B97F4A7C15 % (1 << 64))
                         for i in range(40)] + [b"key-%05d" % (i * 7) for i in range(23)]


def test_candidate_buckets_and_tags_are_pinned():
    digest = hashlib.sha256()
    for num_hashes in (2, 3, 4):
        for num_buckets in (64, 2048, 4096):
            idx = HashIndex(num_buckets=num_buckets, num_hashes=num_hashes)
            for key in HASH_PIN_KEYS:
                buckets, tag = idx._candidates_and_tag(key)
                digest.update(repr((list(buckets), tag)).encode())
    assert len(HASH_PIN_KEYS) == 64
    assert digest.hexdigest() == HASH_PIN_DIGEST
