#!/usr/bin/env python3
"""Serving-layer demo: a 2-shard KV server and a pipelined client, in-process.

Starts a :class:`repro.service.server.KVServer` over two UniKV shards split
at ``user000000000500``, talks to it with the async client (single ops, a
client-side batch, a cross-shard scan), prints the aggregated per-shard
stats, then drains the server gracefully.  The same server can be run
standalone with ``python -m repro serve`` and poked with
``python -m repro.service.client``.

Run:  python examples/kv_server_demo.py
"""

import asyncio

from repro import UniKVConfig
from repro.service import AsyncKVClient, KVServer, ShardRouter


def make_key(i: int) -> bytes:
    return b"user%012d" % i


async def main() -> None:
    # -- a 2-shard deployment: keys < user...500 on shard 0, rest on shard 1 --
    router = ShardRouter.create(
        2, boundaries=[make_key(500)],
        config=UniKVConfig(memtable_size=16 * 1024))
    server = KVServer(router, port=0)      # port 0 = pick an ephemeral port
    await server.start()
    print(f"serving 2 shards on 127.0.0.1:{server.port}")

    async with AsyncKVClient(port=server.port) as client:
        # -- single operations route by key range ------------------------------
        await client.put(make_key(42), b"low-shard")
        await client.put(make_key(900), b"high-shard")
        print("get key 42        ->", await client.get(make_key(42)))
        print("get key 900       ->", await client.get(make_key(900)))

        # -- client-side batching coalesces ops into BATCH frames --------------
        async with client.batcher(max_ops=64) as batch:
            for i in range(1000):
                await batch.put(make_key(i), b"v-%06d" % i)
        print("batch flushes     ->", batch.flushes)

        # -- a scan that crosses the shard boundary ----------------------------
        pairs = await client.scan(make_key(495), 10)
        print("scan across shards->", [k.decode() for k, __ in pairs])

        # -- per-shard and aggregate stats, read off the metrics registries --
        stats = await client.stats()
        for shard in stats["shards"]:
            print(f"shard {shard['shard']}: partitions={shard['partitions']} "
                  f"flushes={shard['core']['flushes']}")
        print("server requests   ->", stats["server"]["requests"])

    await server.stop()   # graceful drain: flushes memtables, closes shards
    print("server drained; shards closed:",
          all(store.closed for store in router.stores))


if __name__ == "__main__":
    asyncio.run(main())
