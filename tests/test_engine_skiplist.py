"""Unit + property tests for the skiplist."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.skiplist import SkipList


def test_insert_and_get():
    sl = SkipList()
    sl.insert(b"b", 2)
    sl.insert(b"a", 1)
    sl.insert(b"c", 3)
    assert sl.get(b"a") == 1
    assert sl.get(b"b") == 2
    assert sl.get(b"c") == 3
    assert sl.get(b"d") is None
    assert sl.get(b"d", default="x") == "x"


def test_overwrite_keeps_length():
    sl = SkipList()
    sl.insert(b"k", 1)
    sl.insert(b"k", 2)
    assert len(sl) == 1
    assert sl.get(b"k") == 2


def test_contains():
    sl = SkipList()
    sl.insert(b"x", 0)
    assert b"x" in sl
    assert b"y" not in sl


def test_items_sorted():
    sl = SkipList()
    for key in (b"m", b"a", b"z", b"c"):
        sl.insert(key, key.decode())
    assert list(sl.values()) == ["a", "c", "m", "z"]


def test_items_from_seeks_to_lower_bound():
    sl = SkipList()
    for key in (b"a", b"c", b"e"):
        sl.insert(key, key)
    assert list(sl.values_from(b"b")) == [b"c", b"e"]
    assert list(sl.values_from(b"c")) == [b"c", b"e"]
    assert list(sl.values_from(b"f")) == []


def test_insert_returns_replaced_value():
    sl = SkipList()
    assert sl.insert(b"k", 1) is None
    assert sl.insert(b"k", 2) == 1
    assert sl.insert(b"j", 3) is None
    assert sl.get(b"k") == 2


def test_empty_iteration():
    assert list(SkipList().values()) == []
    assert list(SkipList().values_from(b"a")) == []


@settings(max_examples=50)
@given(st.dictionaries(st.binary(min_size=1, max_size=8), st.integers(), max_size=200))
def test_matches_dict_model(model):
    sl = SkipList()
    for key, value in model.items():
        sl.insert(key, (key, value))
    assert len(sl) == len(model)
    assert [k for k, __ in sl.values()] == sorted(model)
    for key, value in model.items():
        assert sl.get(key) == (key, value)


@settings(max_examples=25)
@given(st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=100),
       st.binary(min_size=1, max_size=6))
def test_items_from_matches_sorted_slice(keys, start):
    sl = SkipList()
    for key in keys:
        sl.insert(key, key)
    expected = sorted(k for k in set(keys) if k >= start)
    assert list(sl.values_from(start)) == expected
