"""Unit tests for the write-ahead log."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import WalReader, WalWriter
from repro.engine.keys import KIND_TOMBSTONE, KIND_VALUE
from repro.env import SimulatedDisk


def test_roundtrip():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    w.append(b"a", KIND_VALUE, b"1")
    w.append(b"b", KIND_TOMBSTONE, b"")
    w.append(b"c", KIND_VALUE, b"3")
    records = list(WalReader(disk, "wal").replay())
    assert records == [
        (b"a", KIND_VALUE, b"1"),
        (b"b", KIND_TOMBSTONE, b""),
        (b"c", KIND_VALUE, b"3"),
    ]


def test_empty_log():
    disk = SimulatedDisk()
    WalWriter(disk, "wal")
    reader = WalReader(disk, "wal")
    assert list(reader.replay()) == []
    assert not reader.tail_corrupt


def test_torn_tail_is_dropped():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    w.append(b"good", KIND_VALUE, b"v")
    # Simulate a crash mid-append: write a partial header.
    disk.append_writer("wal").append(b"\x01\x02", tag="wal")
    reader = WalReader(disk, "wal")
    assert [k for k, __, ___ in reader.replay()] == [b"good"]
    assert reader.tail_corrupt


def test_corrupt_crc_stops_replay():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    w.append(b"a", KIND_VALUE, b"1")
    w.append(b"b", KIND_VALUE, b"2")
    # Flip a byte inside the second record's payload.
    buf = bytearray(disk.read_full("wal", tag="test"))
    buf[-1] ^= 0xFF
    disk.create("wal").append(bytes(buf), tag="test")
    reader = WalReader(disk, "wal")
    assert [k for k, __, ___ in reader.replay()] == [b"a"]
    assert reader.tail_corrupt


def test_size_reflects_appends():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    assert w.size() == 0
    w.append(b"a", KIND_VALUE, b"1")
    assert w.size() == disk.size("wal") > 0


def test_large_values_roundtrip():
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    big = bytes(range(256)) * 64
    w.append(b"big", KIND_VALUE, big)
    ((key, kind, value),) = list(WalReader(disk, "wal").replay())
    assert (key, kind, value) == (b"big", KIND_VALUE, big)


# -- torn-tail recovery: cut the log at EVERY byte boundary ---------------------------


def _build_log(entries):
    disk = SimulatedDisk()
    writer = WalWriter(disk, "wal")
    offsets = [0]
    for key, kind, value in entries:
        writer.append(key, kind, value)
        offsets.append(writer.size())
    return disk.read_full("wal", tag="test"), offsets


def test_torn_tail_at_every_byte_boundary():
    """A crash can cut the final record at any byte; replay must return
    the intact prefix of records and never raise."""
    entries = [(b"k1", KIND_VALUE, b"first"),
               (b"k2", KIND_TOMBSTONE, b""),
               (b"k3", KIND_VALUE, b"x" * 37)]
    buf, offsets = _build_log(entries)
    for cut in range(len(buf) + 1):
        disk = SimulatedDisk()
        disk.create("wal").append(buf[:cut], tag="test")
        reader = WalReader(disk, "wal")
        records = list(reader.replay())
        # Exactly the records whose full bytes survived the cut.
        intact = sum(1 for end in offsets[1:] if end <= cut)
        assert records == entries[:intact], f"cut at byte {cut}"
        # tail_corrupt iff the cut left a partial record behind.
        assert reader.tail_corrupt == (cut not in offsets), f"cut at byte {cut}"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=8),
                          st.sampled_from([KIND_VALUE, KIND_TOMBSTONE]),
                          st.binary(max_size=32)),
                min_size=1, max_size=6),
       st.data())
def test_torn_tail_property(entries, data):
    """Hypothesis sweep: random logs, random cut points — same contract."""
    entries = [(k, kind, b"" if kind == KIND_TOMBSTONE else v)
               for k, kind, v in entries]
    buf, offsets = _build_log(entries)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
    disk = SimulatedDisk()
    disk.create("wal").append(buf[:cut], tag="test")
    reader = WalReader(disk, "wal")
    records = list(reader.replay())
    intact = sum(1 for end in offsets[1:] if end <= cut)
    assert records == entries[:intact]
    assert reader.tail_corrupt == (cut not in offsets)
