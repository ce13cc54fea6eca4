"""Corruption fuzzing: a flipped byte must never produce a wrong answer.

Hypothesis flips random bytes in on-disk structures (SSTables, WALs, value
logs, manifests); every read path must either still return the correct
value (the flip landed in unread padding or another record's space that a
checksum covers at access time) or raise
:class:`~repro.engine.errors.CorruptionError` — silent corruption is the
one forbidden outcome.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UniKV
from repro.engine import SSTableBuilder, SSTableReader, WalReader, WalWriter
from repro.engine.errors import CorruptionError
from repro.engine.keys import KIND_VALUE
from repro.core.manifest import Manifest
from repro.env import SimulatedDisk
from repro.env.storage import ReadFault
from tests.conftest import tiny_unikv_config


def flip(disk, name, position, bit):
    buf = bytearray(disk.read_full(name, tag="fuzz"))
    buf[position % len(buf)] ^= (1 << bit)
    disk.create(name).append(bytes(buf), tag="fuzz")


@settings(max_examples=40, deadline=None)
@given(position=st.integers(0, 10_000), bit=st.integers(0, 7))
def test_sstable_never_returns_wrong_value(position, bit):
    disk = SimulatedDisk()
    items = [(f"key-{i:03d}".encode(), KIND_VALUE, f"value-{i}".encode())
             for i in range(120)]
    builder = SSTableBuilder(disk, "t", tag="flush", block_size=256)
    for record in items:
        builder.add(*record)
    builder.finish()
    flip(disk, "t", position, bit)
    try:
        reader = SSTableReader(disk, "t")
    except CorruptionError:
        return  # detected at open: fine
    for key, __, value in items:
        try:
            found = reader.get(key, tag="lookup")
        except CorruptionError:
            continue  # detected at read: fine
        if found is not None:
            # Whatever survives the checksums must be the true value...
            assert found == (KIND_VALUE, value)
        # ...or the flip corrupted index metadata so the key wasn't found;
        # a miss is only acceptable if the metadata was what got hit, which
        # we can't distinguish cheaply — but a *wrong value* never is.


@settings(max_examples=40, deadline=None)
@given(position=st.integers(0, 10_000), bit=st.integers(0, 7))
def test_wal_replay_never_yields_corrupt_records(position, bit):
    disk = SimulatedDisk()
    w = WalWriter(disk, "wal")
    originals = [(f"k{i:03d}".encode(), KIND_VALUE, f"v{i}".encode())
                 for i in range(80)]
    for record in originals:
        w.append(*record)
    flip(disk, "wal", position, bit)
    replayed = list(WalReader(disk, "wal").replay())
    # Replay is a prefix of the original stream: the CRC stops it at the
    # damaged record, and nothing after (or altered) leaks through.
    assert replayed == originals[:len(replayed)]


@settings(max_examples=30, deadline=None)
@given(position=st.integers(0, 10_000), bit=st.integers(0, 7))
def test_manifest_replay_never_yields_corrupt_records(position, bit):
    disk = SimulatedDisk()
    m = Manifest(disk)
    originals = [{"type": "flush", "partition": 0, "table_id": i}
                 for i in range(60)]
    for record in originals:
        m.append(record)
    flip(disk, "MANIFEST", position, bit)
    replayed = list(Manifest(disk, create=False).replay())
    assert replayed == originals[:len(replayed)]


def _store_with_flipped_data_byte(position: int, bit: int,
                                  file_index: int) -> tuple[UniKV, dict]:
    """A flushed tiny store and its model, with one byte flipped in one
    table or value log and every cache of decoded data dropped."""
    db = UniKV(config=tiny_unikv_config())
    model = {}
    for i in range(600):
        key, value = f"key-{i:04d}".encode(), f"value-{i:04d}".encode() * 2
        db.put(key, value)
        model[key] = value
    db.flush()
    # Flip one byte in one data file (tables or logs).
    data_files = db.disk.list("sst-") + db.disk.list("vlog-")
    target = data_files[file_index % len(data_files)]
    flip(db.disk, target, position, bit)
    db.ctx._tables._lru.clear()
    db.ctx._log_readers.clear()
    db.ctx.cache._entries.clear()
    return db, model


@settings(max_examples=15, deadline=None)
@given(position=st.integers(0, 100_000), bit=st.integers(0, 7),
       file_index=st.integers(0, 1_000))
def test_unikv_reads_never_silently_corrupt(position, bit, file_index):
    db, model = _store_with_flipped_data_byte(position, bit, file_index)
    wrong = 0
    for key, value in model.items():
        try:
            got = db.get(key)
        except CorruptionError:
            continue
        if got != value:  # None for an acked key is a wrong answer too
            wrong += 1
    assert wrong == 0, "silent corruption leaked through the checksums"


@settings(max_examples=15, deadline=None)
@given(position=st.integers(0, 100_000), bit=st.integers(0, 7),
       file_index=st.integers(0, 1_000), start=st.integers(0, 650),
       count=st.integers(1, 700))
def test_unikv_scans_never_silently_corrupt(position, bit, file_index, start, count):
    db, model = _store_with_flipped_data_byte(position, bit, file_index)
    start_key = f"key-{start:04d}".encode()
    reads = [lambda: db.scan(start_key, count), lambda: list(db.items(start_key)),
             lambda: list(db.items(b"", start_key))]
    for read in reads:
        try:
            pairs = read()
        except CorruptionError:
            continue
        # Whatever a scan returns must be true pairs, in key order.
        assert all(model.get(key) == value for key, value in pairs), \
            "silent corruption leaked through the checksums"
        assert [key for key, __ in pairs] == sorted({key for key, __ in pairs})


def _store_with_values_in_logs() -> UniKV:
    db = UniKV(config=tiny_unikv_config())
    for i in range(400):
        db.put(f"key-{i:04d}".encode(), f"value-{i:04d}".encode() * 3)
    db.flush()
    assert db.disk.list("vlog-"), "the load must move values into value logs"
    return db


def test_read_fault_on_a_value_log_fails_the_scan():
    db = _store_with_values_in_logs()
    for name in db.disk.list("vlog-"):
        db.disk.inject_read_fault(name, 0, db.disk.size(name), mode="error")
    with pytest.raises(ReadFault):
        db.scan(b"", 1000)
    with pytest.raises(ReadFault):
        list(db.items())


def test_flipped_value_log_read_fails_the_scan_with_corruption():
    db = _store_with_values_in_logs()
    for name in db.disk.list("vlog-"):
        db.disk.inject_read_fault(name, 0, db.disk.size(name), mode="flip")
    with pytest.raises(CorruptionError):
        db.scan(b"", 1000)
    with pytest.raises(CorruptionError):
        list(db.items())
    db.disk.clear_read_faults()
    assert len(db.scan(b"", 1000)) == 400


# -- hash-index checkpoints ------------------------------------------------------------

CKPT_KEYS = [b"key-%05d" % i for i in range(300)]
#: a store whose newest versions sit in checkpointed UnsortedStore tables
#: while older versions of the same keys sit in the SortedStore: an index
#: entry lost from a checkpoint would read back the older version
CKPT_CONFIG = tiny_unikv_config(scan_merge_limit=0, unsorted_limit_bytes=8192)


def _checkpointed_disk() -> SimulatedDisk:
    db = UniKV(config=CKPT_CONFIG)
    for key in CKPT_KEYS:
        db.put(key, b"old-" + key)
    db.flush()
    for key in CKPT_KEYS:
        db.put(key, b"mid-" + key)
    db.flush()
    db.close()
    return db.disk


def _flip_checkpoint(base: SimulatedDisk, position: int, bit: int) -> SimulatedDisk:
    disk = base.clone()
    flip(disk, disk.list("ckpt-")[-1], position, bit)
    return disk


def _checkpoint_key_tags(buf: bytes) -> list[int]:
    """Offset of every entry's keyTag in an index checkpoint."""
    offsets = []
    pos = 12  # num_buckets, num_hashes, num_entries
    while pos < len(buf) - 4:  # the CRC trailer
        count = struct.unpack_from("<H", buf, pos + 4)[0]
        pos += 6
        offsets += range(pos, pos + 6 * count, 6)
        pos += 6 * count
    return offsets


def test_flipped_checkpoint_key_tag_never_reads_a_stale_value():
    base = _checkpointed_disk()
    ckpt = base.list("ckpt-")[-1]
    tags = _checkpoint_key_tags(base.read_full(ckpt, tag="fuzz"))
    victims = tags[::len(tags) // 40][:40]
    assert len(victims) == 40
    for offset in victims:
        # The top bit of the entry's keyTag: without a checksum the entry
        # no longer matches its key, and a lookup falls through to the
        # older version in the SortedStore.
        db = UniKV(disk=_flip_checkpoint(base, offset + 1, 7), config=CKPT_CONFIG)
        for key in CKPT_KEYS:
            assert db.get(key) == b"mid-" + key, (offset, key)


_CKPT_BASE: list[SimulatedDisk] = []


@settings(max_examples=25, deadline=None)
@given(position=st.integers(0, 100_000), bit=st.integers(0, 7))
def test_flipped_checkpoint_bit_is_detected_and_rebuilt(position, bit):
    if not _CKPT_BASE:
        _CKPT_BASE.append(_checkpointed_disk())
    db = UniKV(disk=_flip_checkpoint(_CKPT_BASE[0], position, bit), config=CKPT_CONFIG)
    for key in CKPT_KEYS:
        assert db.get(key) == b"mid-" + key
