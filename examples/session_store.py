#!/usr/bin/env python3
"""Scenario: a web session store under a skewed, mixed workload.

This is the workload class the paper's introduction motivates: reads and
writes are interleaved, and access is heavily skewed — a small set of active
users generates most requests.  UniKV's differentiated indexing keeps those
hot sessions in the hash-indexed UnsortedStore (fast reads and writes) while
the long tail of idle sessions settles into the KV-separated SortedStore.

The script runs the same workload against UniKV and LevelDB and prints the
modelled-device comparison.

Run:  python examples/session_store.py
"""

import random

from repro import LevelDBStore, UniKV
from repro.bench import format_table, run_workload
from repro.workloads import ScrambledZipfianChooser


def session_workload(num_users: int, num_ops: int, seed: int = 7):
    """80% session reads / 20% session updates, Zipfian over users."""
    rng = random.Random(seed)
    chooser = ScrambledZipfianChooser(num_users, seed=seed)
    for __ in range(num_ops):
        user = chooser.next()
        key = b"session:%010d" % user
        if rng.random() < 0.8:
            yield ("read", key)
        else:
            payload = rng.randbytes(120)  # refreshed session blob
            yield ("update", key, payload)


def main() -> None:
    num_users, warmup_ops, run_ops = 8000, 8000, 10000
    rows = []
    for store in (UniKV(), LevelDBStore()):
        # Warm-up: create every session once.
        rng = random.Random(1)
        for user in range(num_users):
            store.put(b"session:%010d" % user, rng.randbytes(120))
        metrics = run_workload(store, session_workload(num_users, run_ops),
                               phase="sessions")
        row = metrics.as_row()
        if isinstance(store, UniKV):
            row["notes"] = (f"{store.num_partitions()} partitions, "
                            f"{store.stats['gc_runs']} GCs")
        else:
            row["notes"] = f"levels {store.level_file_counts()}"
        rows.append(row)
        store.close()
    print(format_table("session store: 80/20 read/update, Zipfian users",
                       rows))
    ratio = rows[0]["kops"] / rows[1]["kops"]
    print(f"UniKV / LevelDB throughput: {ratio:.2f}x")
    print("(hot sessions are served out of the hash-indexed UnsortedStore;")
    print(" cold sessions cost at most one table probe + one log read)")


if __name__ == "__main__":
    main()
