"""The exact device I/O, files and reads of crash recovery, pinned.

Three cases, each reopening a store twice:

* ``unikv-torn-wal`` and ``unikv-torn-manifest`` — a sync-tracking UniKV
  store on :func:`~tests.conftest.tiny_unikv_config` loses power inside
  one put (the armed-crash shape of ``_torn_store`` in
  ``test_core_recovery``), and :meth:`SimulatedDisk.crash_clone` leaves a
  torn tail on a ``wal-`` file or on ``MANIFEST``.  Recovery re-logs the
  WAL's intact records into a fresh log, or cuts the manifest's tail.
* ``leveldb-clean`` — a loaded :class:`LevelDBStore` reopened over a
  clone, the shape E12 measures.

Each case reopens, does 30 puts, closes and reopens again.  After each
reopen, every ``disk.stats.records`` entry (ops, bytes), the ``repr`` of
``disk.stats.seconds``, a sha256 over every file on disk and a sha256
over every value then read must equal the pinned values, so a change to
how logs are framed, replayed or repaired must leave all of them as they
are.
"""

import hashlib
import random

import pytest

from repro import UniKV
from repro.core.manifest import Manifest
from repro.engine.wal import WalReader
from repro.env.storage import DiskCrashed, SimulatedDisk
from repro.lsm import LevelDBStore
from tests.conftest import disk_digest, tiny_unikv_config
from tests.test_lsm_leveldb import small_config

UNIKV_KEYS = [b"key-%03d" % i for i in range(40)]
EXTRA_KEYS = [b"extra-%02d" % i for i in range(30)]


def _snapshot(db, keys) -> dict:
    stats = db.disk.stats
    out = {
        "io": {key: (rec.ops, rec.bytes) for key, rec in sorted(stats.records.items())},
        "seconds": repr(stats.seconds),
        "files": disk_digest(db.disk),
    }
    reads = hashlib.sha256()
    for key in keys:
        reads.update(repr((key, db.get(key))).encode())
    out["reads"] = reads.hexdigest()
    return out


def _torn_unikv(seed: int, arm_at: int, clone_seed: int, torn_file: str):
    """Lose power ``arm_at`` bytes into the last 40 of 120 puts; return the
    crash clone and the acked model.  The crash must land in a file named
    ``torn_file*`` and leave that file's tail torn in the clone.

    The put that trips the crash is not acked, but its WAL record may have
    landed before a later append of the same call (a flush) crashed, so
    its value is also legal.  The model maps each key to its legal values.
    """
    disk = SimulatedDisk(sync_tracking=True)
    db = UniKV(disk=disk, config=tiny_unikv_config())
    rng = random.Random(seed)
    acked: dict[bytes, tuple] = {}
    writes = 120
    for i in range(writes):
        key = b"key-%03d" % rng.randrange(40)
        value = b"val-%d-%d" % (seed, i)
        if i == writes - 40:
            disk.arm_crash(arm_at)
        try:
            db.put(key, value)
        except DiskCrashed as exc:
            assert f"'{torn_file}" in str(exc)
            acked[key] = (acked.get(key, (None,))[0], value)
            break
        acked[key] = (value,)
    else:
        raise AssertionError("the armed crash never fired")
    clone = disk.crash_clone(clone_seed)
    probe = clone.clone()  # check the tear without touching clone's stats
    if torn_file == "MANIFEST":
        manifest = Manifest(probe, create=False)
        list(manifest.replay())
        assert manifest.valid_end < probe.size("MANIFEST")
    else:
        readers = [WalReader(probe, name) for name in probe.list("wal-")]
        for reader in readers:
            list(reader.replay())
        assert any(reader.tail_corrupt for reader in readers)
    return clone, acked


def run_unikv(seed: int, arm_at: int, clone_seed: int, torn_file: str) -> list:
    disk, acked = _torn_unikv(seed, arm_at, clone_seed, torn_file)
    db = UniKV(disk=disk, config=tiny_unikv_config())
    for key, values in acked.items():
        assert db.get(key) in values, f"lost acked {key!r}"
    first = _snapshot(db, UNIKV_KEYS)
    for i, key in enumerate(EXTRA_KEYS):
        db.put(key, b"x%d" % i)
    db.close()
    db = UniKV(disk=disk, config=tiny_unikv_config())
    for i, key in enumerate(EXTRA_KEYS):
        assert db.get(key) == b"x%d" % i
    return [first, _snapshot(db, UNIKV_KEYS + EXTRA_KEYS)]


def run_leveldb() -> list:
    db = LevelDBStore(config=small_config())
    rng = random.Random(12)
    model = {}
    for i in range(1500):
        key = b"user%06d" % rng.randrange(600)
        model[key] = b"%d:" % i + bytes([97 + i % 26]) * rng.randrange(4, 40)
        db.put(key, model[key])
    keys = sorted(model)[::7]
    disk = db.disk.clone()
    db = LevelDBStore(disk=disk, config=small_config())
    for key in keys:
        assert db.get(key) == model[key]
    first = _snapshot(db, keys)
    for i, key in enumerate(EXTRA_KEYS):
        db.put(key, b"x%d" % i)
    db.close()
    db = LevelDBStore(disk=disk, config=small_config())
    for i, key in enumerate(EXTRA_KEYS):
        assert db.get(key) == b"x%d" % i
    return [first, _snapshot(db, keys + EXTRA_KEYS)]


CASES = {
    "unikv-torn-wal": lambda: run_unikv(0, 13, 0, "wal-"),
    "unikv-torn-manifest": lambda: run_unikv(0, 1033, 0, "MANIFEST"),
    "leveldb-clean": run_leveldb,
}

#: per case, one snapshot after each of the two reopens
EXPECTED: dict = {
    "unikv-torn-wal": [
        {
            "io": {
                ("read", "rand", "lookup"): (7, 849),
                ("read", "rand", "table_open"): (4, 378),
                ("read", "seq", "index_rebuild"): (10, 1140),
                ("read", "seq", "manifest_replay"): (1, 552),
                ("read", "seq", "wal_replay"): (1, 836),
                ("write", "seq", "manifest"): (1, 56),
                ("write", "seq", "wal"): (26, 832),
            },
            "seconds": "0.0008892792510986324",
            "files": "a00f69e1d2786f2f03397ad16b290bd9cbca5e8142e26fec8559b5191135084f",
            "reads": "580aebb061903eea035dbf26f5b8abe7fe488bd727d5108e90d5e2af55e47941",
        },
        {
            "io": {
                ("read", "rand", "lookup"): (12, 1508),
                ("read", "rand", "table_open"): (8, 809),
                ("read", "seq", "checkpoint_load"): (1, 784),
                ("read", "seq", "index_rebuild"): (10, 1140),
                ("read", "seq", "manifest_replay"): (2, 1921),
                ("read", "seq", "scan_merge"): (8, 863),
                ("read", "seq", "table_open"): (6, 621),
                ("read", "seq", "wal_replay"): (2, 836),
                ("write", "seq", "checkpoint"): (1, 784),
                ("write", "seq", "flush"): (15, 1465),
                ("write", "seq", "manifest"): (7, 817),
                ("write", "seq", "scan_merge"): (11, 1240),
                ("write", "seq", "wal"): (56, 1662),
            },
            "seconds": "0.001630406951904298",
            "files": "b8e4e05e2e829b0c645f64a9e9fae11d90f61f10094b1381abb6dd27c3030a7b",
            "reads": "1a4dea1327ca22a748de8ab7c28b70def20db595e02567fff8019e8cda1b2059",
        },
    ],
    "unikv-torn-manifest": [
        {
            "io": {
                ("read", "rand", "lookup"): (7, 849),
                ("read", "rand", "table_open"): (4, 378),
                ("read", "seq", "index_rebuild"): (10, 1140),
                ("read", "seq", "manifest_repair"): (1, 564),
                ("read", "seq", "manifest_replay"): (1, 564),
                ("read", "seq", "wal_replay"): (1, 1088),
                ("write", "seq", "manifest"): (1, 552),
            },
            "seconds": "0.0008900574493408203",
            "files": "aa696399b3c2c0acdd5aecb1d9d0bd00191cb842045902dbd64ff5bff567dc29",
            "reads": "cfbcc631a4bfd8f9b5c6a8dda9922cbec48fe3ee2b0cd9b4ce7d3a76c17a879f",
        },
        {
            "io": {
                ("read", "rand", "lookup"): (12, 1532),
                ("read", "rand", "table_open"): (6, 733),
                ("read", "seq", "index_rebuild"): (22, 2677),
                ("read", "seq", "manifest_repair"): (1, 564),
                ("read", "seq", "manifest_replay"): (2, 2331),
                ("read", "seq", "scan_merge"): (21, 2429),
                ("read", "seq", "table_open"): (10, 1077),
                ("read", "seq", "wal_replay"): (2, 1088),
                ("write", "seq", "checkpoint"): (1, 772),
                ("write", "seq", "flush"): (20, 1703),
                ("write", "seq", "manifest"): (10, 1767),
                ("write", "seq", "scan_merge"): (25, 3049),
                ("write", "seq", "wal"): (30, 830),
            },
            "seconds": "0.001483072223663332",
            "files": "ed5b0d25d78454cbb90e428ec6649aeb7386562a168061c126c4cbc18dd10c6a",
            "reads": "707d050c3d7bab1263827d77bb186636f0fe0791bbdd8d9fcfe0810fa42cf587",
        },
    ],
    "leveldb-clean": [
        {
            "io": {
                ("read", "rand", "lookup"): (81, 11484),
                ("read", "rand", "table_open"): (110, 11085),
                ("read", "seq", "manifest_replay"): (1, 157827),
                ("read", "seq", "wal_replay"): (1, 0),
            },
            "seconds": "0.015624078063964828",
            "files": "a2b5a759e42e50cd5f142fb7c36cef58af719b1cf3fb8c05bbeb835a2f050442",
            "reads": "8d7f84d758394dcf2dd353b04bf671a3605e4c175681f07b439dee8a61d6edcc",
        },
        {
            "io": {
                ("read", "rand", "lookup"): (167, 23543),
                ("read", "rand", "table_open"): (220, 22202),
                ("read", "seq", "manifest_replay"): (2, 315841),
                ("read", "seq", "wal_replay"): (2, 84),
                ("write", "seq", "flush"): (9, 810),
                ("write", "seq", "manifest"): (2, 187),
                ("write", "seq", "wal"): (30, 830),
            },
            "seconds": "0.031654186687469575",
            "files": "6c3f831d34d26cbdcd7358f23afa683753c409055d2a166238256ef1ce5f441b",
            "reads": "88bfee229542bfc4fd8787134e46c6d8fdf49847ca4c3b31739df583ac3561fc",
        },
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_recovery_device_io_files_and_reads_are_pinned(name):
    assert CASES[name]() == EXPECTED[name]
