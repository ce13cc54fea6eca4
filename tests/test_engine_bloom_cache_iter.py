"""Unit + property tests for Bloom filters, the block cache, and merging."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BloomFilter, BlockCache
from repro.engine.block import Block
from repro.engine.iterators import merge_sorted
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.obs import MetricsRegistry
from tests.conftest import encode_block


# -- bloom ----------------------------------------------------------------------

def test_bloom_no_false_negatives():
    bloom = BloomFilter(num_keys=100, bits_per_key=10)
    keys = [f"key-{i}".encode() for i in range(100)]
    for key in keys:
        bloom.add(key)
    assert all(bloom.may_contain(k) for k in keys)


def test_bloom_false_positive_rate_reasonable():
    bloom = BloomFilter(num_keys=1000, bits_per_key=10)
    for i in range(1000):
        bloom.add(f"in-{i}".encode())
    fp = sum(bloom.may_contain(f"out-{i}".encode()) for i in range(2000))
    # ~1% expected at 10 bits/key; allow generous slack.
    assert fp / 2000 < 0.05


def test_bloom_encode_decode():
    bloom = BloomFilter(num_keys=50, bits_per_key=8)
    for i in range(50):
        bloom.add(str(i).encode())
    restored = BloomFilter.decode(bloom.encode())
    assert all(restored.may_contain(str(i).encode()) for i in range(50))


@settings(max_examples=25)
@given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=100))
def test_bloom_membership_property(keys):
    bloom = BloomFilter(num_keys=len(keys), bits_per_key=10)
    for key in keys:
        bloom.add(key)
    assert all(bloom.may_contain(k) for k in keys)


# -- block cache ------------------------------------------------------------------

def _block(n):
    return Block.decode(encode_block([(f"{i:04d}".encode(), KIND_VALUE, b"x" * 10)
                                      for i in range(n)]))


def test_cache_put_get_and_stats():
    metrics = MetricsRegistry()
    cache = BlockCache(capacity_bytes=1 << 20, metrics=metrics)
    blk = _block(5)
    assert cache.get("f", 0) is None
    cache.put("f", 0, blk)
    assert cache.get("f", 0) is blk
    assert (metrics.counter("block_cache_hits_total").value,
            metrics.counter("block_cache_misses_total").value) == (1, 1)


def test_cache_evicts_lru():
    blk = _block(10)
    cache = BlockCache(capacity_bytes=blk.nbytes * 2 + 1)
    cache.put("f", 0, blk)
    cache.put("f", 1, blk)
    cache.get("f", 0)            # touch 0 so 1 is LRU
    cache.put("f", 2, _block(10))
    assert cache.get("f", 1) is None
    assert cache.get("f", 0) is not None


def test_cache_rejects_oversized_block():
    cache = BlockCache(capacity_bytes=10)
    cache.put("f", 0, _block(100))
    assert len(cache) == 0


def test_cache_evict_file():
    cache = BlockCache()
    cache.put("a", 0, _block(2))
    cache.put("a", 1, _block(2))
    cache.put("b", 0, _block(2))
    cache.evict_file("a")
    assert cache.get("a", 0) is None and cache.get("b", 0) is not None


def test_cache_replace_same_key_updates_usage():
    small, large = _block(2), _block(20)
    cache = BlockCache(capacity_bytes=small.nbytes + large.nbytes)
    cache.put("f", 0, small)
    cache.put("f", 0, large)
    assert len(cache) == 1
    # The replaced block's bytes were released: a second small block fits
    # beside the large one without evicting it.
    cache.put("g", 0, small)
    assert cache.get("f", 0) is large and cache.get("g", 0) is small


# -- merging iterator ---------------------------------------------------------------

def test_merge_newest_wins():
    newer = iter([(b"a", KIND_VALUE, b"new"), (b"c", KIND_VALUE, b"c1")])
    older = iter([(b"a", KIND_VALUE, b"old"), (b"b", KIND_VALUE, b"b1")])
    out = list(merge_sorted([newer, older]))
    assert out == [(b"a", KIND_VALUE, b"new"),
                   (b"b", KIND_VALUE, b"b1"),
                   (b"c", KIND_VALUE, b"c1")]


def test_merge_drop_tombstones():
    newer = iter([(b"a", KIND_TOMBSTONE, b"")])
    older = iter([(b"a", KIND_VALUE, b"old"), (b"b", KIND_VALUE, b"b")])
    assert list(merge_sorted([newer, older], drop_tombstones=True)) == \
        [(b"b", KIND_VALUE, b"b")]


def test_merge_keeps_tombstones_by_default():
    newer = iter([(b"a", KIND_TOMBSTONE, b"")])
    older = iter([(b"a", KIND_VALUE, b"old")])
    assert list(merge_sorted([newer, older])) == [(b"a", KIND_TOMBSTONE, b"")]


def test_merge_empty_sources():
    assert list(merge_sorted([])) == []
    assert list(merge_sorted([iter([]), iter([])])) == []


@settings(max_examples=30)
@given(st.lists(st.dictionaries(st.binary(min_size=1, max_size=4),
                                st.binary(max_size=8), max_size=30),
                min_size=1, max_size=5))
def test_merge_matches_dict_union(layers):
    # layers[0] is newest; dict-union semantics with newest-first precedence.
    expected = {}
    for layer in reversed(layers):
        expected.update(layer)
    sources = [iter(sorted((k, KIND_VALUE, v) for k, v in layer.items()))
               for layer in layers]
    merged = {k: v for k, __, v in merge_sorted(sources)}
    assert merged == expected
