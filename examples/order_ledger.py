#!/usr/bin/env python3
"""Scenario: an order ledger using atomic write batches.

Every order mutates several keys at once — the order record, the customer's
open-order set, and an inventory counter.  With `write_batch` the group is
made durable as one WAL record, so a crash can never leave a half-applied
order inside a partition.  The script demonstrates both the happy path and
the crash guarantee, plus modelled tail latency of the write path.

Run:  python examples/order_ledger.py
"""

import random

from repro import UniKV
from repro.bench import run_workload


def place_order(db, order_id, customer, item, qty):
    db.write_batch([
        ("put", b"order:%08d" % order_id,
         b"customer=%d item=%d qty=%d" % (customer, item, qty)),
        ("put", b"customer:%04d:open:%08d" % (customer, order_id), b"1"),
        ("put", b"inventory:%04d" % item, b"%d" % qty),
    ])


def main() -> None:
    db = UniKV()
    rng = random.Random(42)
    for order_id in range(5000):
        place_order(db, order_id, rng.randrange(200), rng.randrange(50),
                    rng.randrange(1, 9))

    prefix = b"customer:0007:open:"
    open_orders = [k for k, __ in db.scan(prefix, 200)
                   if k.startswith(prefix)]
    print("orders placed      :", 5000)
    print("open orders, cust 7:", len(open_orders))
    print("order 1234         :", db.get(b"order:%08d" % 1234))

    # Crash guarantee: tear the newest WAL record — the *whole* last batch
    # in that partition disappears, never a fragment of it.
    place_order(db, 999_999, 7, 3, 5)
    partition = db._partition_for(b"order:%08d" % 999_999)
    wal = partition.wal.name
    torn = db.disk.clone()
    buf = bytearray(torn.read_full(wal, tag="demo"))
    buf[-1] ^= 0xFF
    torn.create(wal).append(bytes(buf), tag="demo")
    recovered = UniKV(disk=torn, config=db.config)
    order = recovered.get(b"order:%08d" % 999_999)
    print("\nafter torn-WAL crash, order 999999:", order,
          "(the full batch vanished atomically)" if order is None else "")

    # Tail latency of the write path: the p99.9 is flush/merge/split stalls.
    metrics = run_workload(
        db, ((f"update", b"order:%08d" % rng.randrange(5000),
              rng.randbytes(40)) for __ in range(3000)),
        phase="updates")
    print("\nmodelled update latency: p50 %.1f us, p99 %.1f us, p99.9 %.1f us"
          % (metrics.latency_us("update", 50),
             metrics.latency_us("update", 99),
             metrics.latency_us("update", 99.9)))
    recovered.close()
    db.close()


if __name__ == "__main__":
    main()
