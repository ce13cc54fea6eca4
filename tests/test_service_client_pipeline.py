"""AsyncKVClient pipelining across connects and reconnects, against a real server.

Requests issued before the client has a connection share one connect, and
the requests pending on a connection fail with it and retry on the next
one.  So every reply reaches the request it answers, the server sees one
connection per (re)connect rather than one per coroutine, and no future is
left holding an exception nobody retrieves.
"""

import asyncio
import gc

from repro.obs import server_view
from repro.service.client import AsyncKVClient
from repro.workloads import make_key
from tests.test_service_server import make_sharded_server

KEYS = 160
TRIALS = 5


def value(i: int) -> bytes:
    return b"v-%04d" % i


def connections(server) -> int:
    return server_view(server.metrics.snapshot())["connections"]


async def loaded_server():
    server = make_sharded_server(close_router_on_stop=True)
    await server.start()
    async with AsyncKVClient(port=server.port) as client:
        await client.write_batch([("put", make_key(i), value(i)) for i in range(KEYS)])
    return server


def run_without_unretrieved_exceptions(caplog, scenario) -> None:
    asyncio.run(scenario())
    gc.collect()  # an unretrieved future exception is logged when collected
    assert "exception was never retrieved" not in caplog.text


def test_gathered_gets_before_connect_share_one_connection(caplog):
    run_without_unretrieved_exceptions(caplog, _before_connect)


async def _before_connect():
    server = await loaded_server()
    for __ in range(TRIALS):
        before = connections(server)
        client = AsyncKVClient(port=server.port)  # not connected yet
        values = await asyncio.gather(*(client.get(make_key(i)) for i in range(16)))
        assert values == [value(i) for i in range(16)]
        assert connections(server) == before + 1
        await client.close()
    gc.collect()
    await server.stop()


def test_pipelined_gets_after_server_drops_connection(caplog):
    run_without_unretrieved_exceptions(caplog, _after_drop)


async def _after_drop():
    server = await loaded_server()
    async with AsyncKVClient(port=server.port) as client:
        assert await client.get(make_key(0)) == value(0)
        for __ in range(TRIALS):
            before = connections(server)
            for __, writer in list(server._connections.values()):
                writer.transport.abort()  # the server drops the connection
            values = await asyncio.gather(*(client.get(make_key(i)) for i in range(KEYS)))
            assert values == [value(i) for i in range(KEYS)]
            assert connections(server) == before + 1
    gc.collect()
    await server.stop()
