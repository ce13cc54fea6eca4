#!/usr/bin/env python3
"""Quickstart: the UniKV public API in two minutes.

Creates a store, writes/reads/deletes/scans, shows the internal structure
(partitions, hash index, merges), then demonstrates crash recovery by
reopening the store from its durable on-disk state.

Run:  python examples/quickstart.py
"""

from repro import UniKV, UniKVConfig


def main() -> None:
    # A store with default (scaled) parameters on a fresh simulated disk.
    db = UniKV()

    # -- basic operations ------------------------------------------------------
    db.put(b"user:alice", b"alice@example.com")
    db.put(b"user:bob", b"bob@example.com")
    db.put(b"user:carol", b"carol@example.com")
    print("get user:bob      ->", db.get(b"user:bob"))

    db.delete(b"user:bob")
    print("after delete      ->", db.get(b"user:bob"))

    # Range scan: up to N live pairs, key order, from a start key.
    print("scan from user:a  ->", db.scan(b"user:a", 10))

    # -- watch the structure react to volume ------------------------------------
    for i in range(20000):
        db.put(b"item:%08d" % i, b"payload-%d" % i)
    info = db.describe()
    print("\nafter 20k inserts:")
    print("  partitions        :", db.num_partitions())
    print("  flushes/merges/GCs:", info["stats"]["flushes"],
          info["stats"]["merges"], info["stats"]["gc_runs"])
    print("  splits            :", info["stats"]["splits"])
    print("  hash-index memory : %.1f KB" % (info["index_memory_bytes"] / 1024))
    print("  device bytes      : %.2f MB" % (db.disk.total_bytes() / 1048576))

    # -- crash recovery -----------------------------------------------------------
    # clone() models "everything synced so far survives a crash".
    survivor = db.disk.clone()
    db2 = UniKV(disk=survivor, config=db.config)
    print("\nrecovered store:")
    print("  item:00012345     ->", db2.get(b"item:%08d" % 12345))
    print("  partitions        :", db2.num_partitions())

    # -- custom configuration ------------------------------------------------------
    custom = UniKV(config=UniKVConfig(memtable_size=64 * 1024))
    custom.put(b"k", b"v")
    print("\ncustom-config store works:", custom.get(b"k"))

    # Shut stores down cleanly: flush memtables, sync + close WALs,
    # release cached table handles.
    for store in (db, db2, custom):
        store.close()


if __name__ == "__main__":
    main()
