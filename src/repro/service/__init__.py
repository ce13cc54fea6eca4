"""Sharded network serving layer on top of UniKV.

The service package turns the single-process store into something a client
can drive over a connection, one modular layer at a time:

* :mod:`repro.service.protocol` — a length-prefixed binary wire format
  with incremental (partial-read safe) decoding and hard frame-size limits;
* :mod:`repro.service.router` — a :class:`ShardRouter` that range-shards
  the keyspace across N independent :class:`~repro.core.store.UniKV`
  instances, the same boundary-key bisect the store uses one level down
  for its partitions;
* :mod:`repro.service.handler` — the sans-IO request handler (shared
  with the chaos simulator) with write admission control driven by each
  shard scheduler's stall count;
* :mod:`repro.service.server` — its :class:`asyncio` TCP transport, with
  per-connection pipelining and graceful drain on shutdown;
* :mod:`repro.service.client` — one sans-IO client core (calls, reply
  ordering, retry-with-backoff, client-side batching) under sync and async
  clients with connection reuse and pipelining.

Start a server from the CLI with ``python -m repro serve --shards 2`` and
poke it with ``python -m repro.service.client --port 7711 put k v``.
"""

from repro.service.client import (
    AsyncBatcher,
    AsyncKVClient,
    Batcher,
    KVClient,
    RetryPolicy,
    ServerError,
    TransientError,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    Status,
)
from repro.service.router import ShardRouter
from repro.service.server import KVServer

__all__ = [
    "AsyncBatcher",
    "AsyncKVClient",
    "Batcher",
    "FrameDecoder",
    "FrameTooLarge",
    "KVClient",
    "KVServer",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "RetryPolicy",
    "ServerError",
    "ShardRouter",
    "Status",
    "TransientError",
]
