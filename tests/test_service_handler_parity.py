"""The TCP server and the chaos simulator answer with one request handler.

One scripted request sequence runs through :class:`KVServer` over TCP and
through the simulator's server tick, each on a fresh, identical 2-shard
deployment.  Every reply must match byte for byte, except STATS, whose
body carries wall-clock latency histograms: there the key sets must match.
"""

import asyncio

from repro.core.store import UniKV
from repro.env.storage import SimulatedDisk
from repro.service import protocol
from repro.service.protocol import MAX_FRAME_BYTES, Status
from repro.service.router import ShardRouter, default_boundaries, replace_config
from repro.service.server import KVServer
from repro.sim import NO_FAULTS, SimConfig, SimHarness
from repro.sim.harness import sim_store_config

SEED = 5
SCAN_CAP = 2
#: script step that power-fails shard 0's device instead of sending a frame
CRASH_SHARD_0 = None

#: (request frame, expected status); keys below 0x80 live on shard 0
SCRIPT = [
    (protocol.encode_ping(b"hello"), Status.OK),
    (protocol.encode_put(b"\x10alpha", b"one"), Status.OK),
    (protocol.encode_get(b"\x10alpha"), Status.OK),
    (protocol.encode_get(b"\x10missing"), Status.NOT_FOUND),
    (protocol.encode_delete(b"\x10alpha"), Status.OK),
    (protocol.encode_batch([("put", b"\x20low", b"a"), ("put", b"\xe0high", b"b"),
                            ("put", b"\xf0top", b"c"), ("delete", b"\x30gone")]),
     Status.OK),
    (protocol.encode_scan(b"", SCAN_CAP + 5), Status.OK),
    (protocol.encode_stats(), Status.OK),
    (protocol.encode_describe(), Status.OK),
    (protocol.frame(b"\xff\x00\x01"), Status.BAD_REQUEST),
    (protocol.frame(b"z" * (MAX_FRAME_BYTES + 1)), Status.TOO_LARGE),
    (CRASH_SHARD_0, None),
    (protocol.encode_put(b"\x00k", b"v"), Status.RETRY),
]


def _router():
    """The deployment SimHarness(SEED) builds for two shards."""
    config = sim_store_config(SEED)
    return ShardRouter([UniKV(disk=SimulatedDisk(sync_tracking=True),
                              config=replace_config(config)) for __ in range(2)],
                       default_boundaries(2))


async def _over_tcp() -> list[bytes]:
    router = _router()
    server = KVServer(router, max_scan_items=SCAN_CAP, close_router_on_stop=False)
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    decoder = protocol.FrameDecoder()
    replies = []
    for frame, __ in SCRIPT:
        if frame is CRASH_SHARD_0:
            router.stores[0].disk.crash()
            continue
        writer.write(frame)
        await writer.drain()
        expected = len(replies) + 1
        while len(replies) < expected:
            data = await reader.read(64 * 1024)
            assert data, "server closed the connection"
            replies.extend(decoder.feed(data))
    writer.close()
    await writer.wait_closed()
    await server.stop()
    return replies


def _through_sim_tick() -> list[bytes]:
    harness = SimHarness(SEED, SimConfig(num_shards=2, num_clients=1,
                                         faults=NO_FAULTS))
    harness.handler.max_scan_items = SCAN_CAP
    conn = harness.clients[0].conn
    replies = []
    now = 0
    for frame, __ in SCRIPT:
        if frame is CRASH_SHARD_0:
            harness.router.stores[0].disk.crash()
            continue
        conn.client_send(frame, now)
        for now in range(now + 1, now + 10):
            harness._server_tick(now)
            got = conn.client_recv(now)
            if got:
                replies.extend(got)
                break
        else:
            replies.append(b"<no reply>")
    return replies


def test_server_and_sim_tick_reply_identically():
    tcp = asyncio.run(_over_tcp())
    sim = _through_sim_tick()
    steps = [(frame, status) for frame, status in SCRIPT if frame is not CRASH_SHARD_0]
    assert len(tcp) == len(sim) == len(steps)
    for (frame, expected), tcp_reply, sim_reply in zip(steps, tcp, sim):
        assert protocol.decode_response(tcp_reply)[0] == expected, frame[:16]
        if frame == protocol.encode_stats():
            tcp_stats = protocol.decode_json_body(protocol.decode_response(tcp_reply)[1])
            sim_stats = protocol.decode_json_body(protocol.decode_response(sim_reply)[1])
            assert protocol.decode_response(sim_reply)[0] == expected
            assert tcp_stats.keys() == sim_stats.keys()
            assert tcp_stats["server"].keys() == sim_stats["server"].keys()
        else:
            assert sim_reply == tcp_reply, frame[:16]
