"""Unit tests for the leveled-LSM level metadata (LevelState)."""

from repro.engine.sstable import TableMeta
from repro.lsm.version import LevelState


def meta(name, lo, hi, size=100):
    return TableMeta(name, lo, hi, num_entries=10, file_size=size)


def test_l0_is_newest_first():
    state = LevelState(4)
    state.add_l0(meta("a", b"a", b"m"))
    state.add_l0(meta("b", b"c", b"z"))
    assert [f.name for f in state.levels[0]] == ["b", "a"]


def test_deeper_levels_sorted_by_smallest():
    state = LevelState(4)
    state.add(1, meta("mid", b"m", b"p"))
    state.add(1, meta("lo", b"a", b"c"))
    state.add(1, meta("hi", b"q", b"z"))
    assert [f.name for f in state.levels[1]] == ["lo", "mid", "hi"]


def test_files_for_key_l0_returns_all_covering():
    state = LevelState(4)
    state.add_l0(meta("a", b"a", b"m"))
    state.add_l0(meta("b", b"c", b"z"))
    assert [f.name for f in state.files_for_key(0, b"d")] == ["b", "a"]
    assert [f.name for f in state.files_for_key(0, b"b")] == ["a"]
    assert state.files_for_key(0, b"zz") == []


def test_files_for_key_deep_level_binary_search():
    state = LevelState(4)
    state.add(1, meta("lo", b"a", b"c"))
    state.add(1, meta("hi", b"f", b"j"))
    assert [f.name for f in state.files_for_key(1, b"b")] == ["lo"]
    assert [f.name for f in state.files_for_key(1, b"f")] == ["hi"]
    assert state.files_for_key(1, b"d") == []     # gap between files
    assert state.files_for_key(1, b"k") == []     # past the end
    assert state.files_for_key(2, b"a") == []     # empty level


def test_overlapping():
    state = LevelState(4)
    state.add(1, meta("a", b"a", b"c"))
    state.add(1, meta("b", b"e", b"g"))
    state.add(1, meta("c", b"i", b"k"))
    assert [f.name for f in state.overlapping(1, b"b", b"f")] == ["a", "b"]
    assert state.overlapping(1, b"l", b"z") == []


def test_pick_compaction_file_round_robin():
    state = LevelState(4)
    state.add(1, meta("a", b"a", b"c"))
    state.add(1, meta("b", b"e", b"g"))
    first = state.pick_compaction_file(1)
    state.compact_cursor[1] = first.largest
    second = state.pick_compaction_file(1)
    assert {first.name, second.name} == {"a", "b"}
    # Cursor past the last file wraps around.
    state.compact_cursor[1] = b"zz"
    assert state.pick_compaction_file(1).name == "a"
    assert state.pick_compaction_file(2) is None


def test_pick_min_overlap_file():
    state = LevelState(4)
    state.add(1, meta("heavy", b"a", b"m"))
    state.add(1, meta("light", b"n", b"p"))
    state.add(2, meta("x", b"a", b"f", size=500))
    state.add(2, meta("y", b"g", b"l", size=500))
    assert state.pick_min_overlap_file(1).name == "light"


def test_remove_and_counters():
    state = LevelState(4)
    state.add(1, meta("a", b"a", b"c", size=10))
    state.add(1, meta("b", b"e", b"g", size=20))
    assert state.level_bytes(1) == 30
    assert len(state.all_files()) == 2
    assert [state.level_bytes(level) for level in range(4)] == [0, 30, 0, 0]
    state.remove(1, {"a"})
    assert [f.name for f in state.levels[1]] == ["b"]


def test_deepest_nonempty_level():
    state = LevelState(5)
    assert state.deepest_nonempty_level() == 0
    state.add(3, meta("d", b"a", b"b"))
    assert state.deepest_nonempty_level() == 3
