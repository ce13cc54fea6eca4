"""End-to-end serving-layer tests: server + client against a UniKV oracle."""

import asyncio
import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import threading

import pytest

from repro.core import UniKV
from repro.obs import server_view
from repro.service import protocol
from repro.service.client import AsyncKVClient, KVClient, RetryPolicy, TransientError
from repro.service.protocol import Status
from repro.service.router import ShardRouter
from repro.service.server import KVServer, run_server
from repro.workloads import load_phase, make_key, ycsb_run
from tests.conftest import tiny_unikv_config


def make_sharded_server(num_shards=2, boundary_at=500, config=None, **server_kw):
    config = config if config is not None else tiny_unikv_config()
    boundaries = [make_key(boundary_at * i) for i in range(1, num_shards)]
    router = ShardRouter.create(num_shards, boundaries=boundaries, config=config)
    return KVServer(router, port=0, **server_kw)


# -- end-to-end: mixed YCSB workload vs in-process oracle -------------------------------

def test_e2e_two_shards_byte_identical_to_oracle():
    asyncio.run(_e2e_two_shards())


async def _e2e_two_shards():
    num_records = 400
    server = make_sharded_server(num_shards=2, boundary_at=num_records // 2)
    await server.start()
    oracle = UniKV(config=tiny_unikv_config())
    async with AsyncKVClient(port=server.port) as client:
        for op in load_phase(num_records, value_size=60):
            await client.put(op[1], op[2])
            oracle.put(op[1], op[2])
        # Mixed point workload (YCSB A) + scan-heavy workload (YCSB E):
        # every GET and SCAN must be byte-identical to the oracle.
        ops = list(ycsb_run("A", num_records, 400, value_size=60, seed=3))
        ops += list(ycsb_run("E", num_records, 150, value_size=60, seed=4))
        reads = scans = 0
        for op in ops:
            if op[0] == "read":
                assert await client.get(op[1]) == oracle.get(op[1])
                reads += 1
            elif op[0] in ("update", "insert"):
                await client.put(op[1], op[2])
                oracle.put(op[1], op[2])
            elif op[0] == "scan":
                assert await client.scan(op[1], op[2]) == oracle.scan(op[1], op[2])
                scans += 1
            else:  # rmw
                assert await client.get(op[1]) == oracle.get(op[1])
                await client.put(op[1], op[2])
                oracle.put(op[1], op[2])
        assert reads > 50 and scans > 50  # the workload actually mixed
        # STATS aggregates the per-shard scheduler views correctly.
        stats = await client.stats()
        assert len(stats["shards"]) == 2
        for i, store in enumerate(server.router.stores):
            assert (stats["shards"][i]["write_stall"].items()
                    <= store.scheduler.describe().items())
        agg = stats["aggregate"]["write_stall"]
        for field in ("stall_seconds", "stall_events"):
            assert agg[field] == pytest.approx(sum(
                s["write_stall"][field] for s in stats["shards"]))
        # A high-water mark across shards is their max, not their sum.
        assert agg["queue_depth_high_water"] == max(
            s["write_stall"]["queue_depth_high_water"] for s in stats["shards"])
        # UniKV counts its flush jobs in the scheduler's job ledger.
        assert agg["job_counts"]["flush"] > 0
        for kind, count in agg["job_counts"].items():
            assert count == sum(s["write_stall"]["job_counts"].get(kind, 0)
                                for s in stats["shards"])
        assert stats["server"]["requests"] > len(ops)
    await server.stop()
    assert all(store.closed for store in server.router.stores)


# -- backpressure: delays, not drops; the client retry path -----------------------------

def stall_config():
    """Background maintenance with hair-trigger slowdown/stop thresholds."""
    return tiny_unikv_config(background_threads=1, slowdown_trigger=1,
                             stop_trigger=2)


def test_backpressure_delays_writes_without_dropping():
    asyncio.run(_backpressure_delay())


async def _backpressure_delay():
    server = make_sharded_server(num_shards=2, boundary_at=300,
                                 config=stall_config(),
                                 slowdown_delay_s=1e-5, max_delay_s=1e-4)
    await server.start()
    async with AsyncKVClient(port=server.port) as client:
        for i in range(600):
            await client.put(make_key(i), b"x" * 64)
        # Forced stalls: the store injected virtual stall time...
        stats = await client.stats()
        assert stats["aggregate"]["write_stall"]["stall_events"] > 0
        # ...and the server delayed (not dropped) writes.
        counts = server_view(server.metrics.snapshot())
        assert counts["delayed_writes"] > 0
        assert counts["shed_writes"] == 0
        assert counts["errors"] == 0
        for i in range(0, 600, 13):
            assert await client.get(make_key(i)) == b"x" * 64
    assert client.total_retries == 0  # delay mode never surfaces RETRY
    await server.stop()


def test_shed_mode_exercises_client_retry_backoff():
    asyncio.run(_backpressure_shed())


async def _backpressure_shed():
    server = make_sharded_server(num_shards=2, boundary_at=300,
                                 config=stall_config(), admission="shed",
                                 max_consecutive_sheds=2,
                                 slowdown_delay_s=1e-5, max_delay_s=1e-4)
    await server.start()
    retry = RetryPolicy(retries=5, backoff_base_s=0.001, backoff_max_s=0.01)
    async with AsyncKVClient(port=server.port, retry=retry) as client:
        for i in range(600):
            await client.put(make_key(i), b"y" * 64)
        shed = server_view(server.metrics.snapshot())["shed_writes"]
        assert shed > 0                            # RETRY responses were sent
        assert client.total_retries > 0            # and the client backed off
        for i in range(0, 600, 13):                # yet every write landed
            assert await client.get(make_key(i)) == b"y" * 64
    await server.stop()


# -- pipelining -------------------------------------------------------------------------

def test_pipelined_requests_preserve_response_order():
    asyncio.run(_pipelining())


async def _pipelining():
    server = make_sharded_server()
    await server.start()
    async with AsyncKVClient(port=server.port) as client:
        for i in range(64):
            await client.put(make_key(i), b"v-%04d" % i)
        # Fire a burst of concurrent requests over ONE connection; each
        # response must match its request (order is the only correlation).
        results = await asyncio.gather(
            *[client.get(make_key(i)) for i in range(64)])
        assert results == [b"v-%04d" % i for i in range(64)]
        mixed = await asyncio.gather(
            client.ping(b"p0"), client.get(make_key(1)),
            client.scan(make_key(0), 3), client.ping(b"p1"))
        assert mixed[0] == b"p0"
        assert mixed[1] == b"v-0001"
        assert [k for k, __ in mixed[2]] == [make_key(i) for i in range(3)]
        assert mixed[3] == b"p1"
    await server.stop()


def test_raw_socket_pipelining_and_split_frames():
    asyncio.run(_raw_pipelining())


async def _raw_pipelining():
    """Drive the wire format directly: many frames, arbitrary segmentation."""
    server = make_sharded_server()
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    frames = [protocol.encode_put(make_key(i), b"w%d" % i) for i in range(10)]
    frames += [protocol.encode_get(make_key(i)) for i in range(10)]
    stream = b"".join(frames)
    # Send in awkward 7-byte slices to split every frame across reads.
    for i in range(0, len(stream), 7):
        writer.write(stream[i:i + 7])
        await writer.drain()
    decoder = protocol.FrameDecoder()
    responses = []
    while len(responses) < 20:
        data = await reader.read(4096)
        assert data, "server closed early"
        responses.extend(decoder.feed(data))
    for payload in responses[:10]:
        status, __ = protocol.decode_response(payload)
        assert status == Status.OK
    for i, payload in enumerate(responses[10:]):
        status, body = protocol.decode_response(payload)
        assert status == Status.OK
        assert protocol.decode_value_body(body) == b"w%d" % i
    writer.close()
    await writer.wait_closed()
    await server.stop()


# -- protocol abuse over the wire -------------------------------------------------------

def test_oversized_frame_rejected_connection_survives():
    asyncio.run(_oversized_frame())


async def _oversized_frame():
    server = make_sharded_server(max_frame_bytes=1024)
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(protocol.frame(b"z" * 5000))     # over the 1 KiB limit
    writer.write(protocol.encode_ping(b"still-alive"))
    await writer.drain()
    decoder = protocol.FrameDecoder()
    responses = []
    while len(responses) < 2:
        data = await reader.read(4096)
        assert data, "server killed the connection on an oversized frame"
        responses.extend(decoder.feed(data))
    status, body = protocol.decode_response(responses[0])
    assert status == Status.TOO_LARGE
    status, body = protocol.decode_response(responses[1])
    assert status == Status.OK
    assert protocol.decode_value_body(body) == b"still-alive"
    assert server_view(server.metrics.snapshot())["too_large_frames"] == 1
    writer.close()
    await writer.wait_closed()
    await server.stop()


def test_bad_request_keeps_connection_usable():
    asyncio.run(_bad_request())


async def _bad_request():
    server = make_sharded_server()
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(protocol.frame(b"\xff\x00\x01"))  # unknown opcode
    writer.write(protocol.encode_ping(b"ok"))
    await writer.drain()
    decoder = protocol.FrameDecoder()
    responses = []
    while len(responses) < 2:
        data = await reader.read(4096)
        assert data
        responses.extend(decoder.feed(data))
    assert protocol.decode_response(responses[0])[0] == Status.BAD_REQUEST
    status, body = protocol.decode_response(responses[1])
    assert status == Status.OK
    assert protocol.decode_value_body(body) == b"ok"
    writer.close()
    await writer.wait_closed()
    await server.stop()


def test_zero_length_keys_over_the_wire():
    asyncio.run(_zero_length())


async def _zero_length():
    server = make_sharded_server()
    await server.start()
    async with AsyncKVClient(port=server.port) as client:
        await client.put(b"", b"")
        assert await client.get(b"") == b""
        await client.put(b"", b"nonempty")
        assert await client.get(b"") == b"nonempty"
        pairs = await client.scan(b"", 1)
        assert pairs[0] == (b"", b"nonempty")
        await client.delete(b"")
        assert await client.get(b"") is None
    await server.stop()


# -- graceful shutdown ------------------------------------------------------------------

def test_graceful_stop_drains_and_closes_shards():
    asyncio.run(_graceful_stop())


async def _graceful_stop():
    server = make_sharded_server()
    await server.start()
    client = AsyncKVClient(port=server.port)
    await client.put(make_key(1), b"v")
    assert await client.get(make_key(1)) == b"v"
    await server.stop()
    await server.stop()  # idempotent
    assert server.router.closed
    assert all(store.closed for store in server.router.stores)
    # Memtable contents were flushed durable by the drain.
    survivor = UniKV(disk=server.router.stores[0].disk,
                     config=server.router.stores[0].config)
    assert survivor.get(make_key(1)) == b"v"
    with pytest.raises(TransientError) as excinfo:
        probe = AsyncKVClient(port=server.port,
                              retry=RetryPolicy(retries=0))
        await probe.ping()
    assert isinstance(excinfo.value.__cause__, (ConnectionError, OSError))
    await client.close()


async def read_replies(reader, count):
    decoder = protocol.FrameDecoder()
    replies = []
    while len(replies) < count:
        data = await asyncio.wait_for(reader.read(4096), 5)
        assert data, "server closed before answering"
        replies.extend(decoder.feed(data))
    assert len(replies) == count
    return replies


def test_stop_releases_idle_connection_promptly():
    asyncio.run(_stop_releases_idle_connection())


async def _stop_releases_idle_connection():
    server = make_sharded_server()
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(protocol.encode_ping(b"hi"))
    await writer.drain()
    await read_replies(reader, 1)
    # The connection now sits idle in a socket read.
    loop = asyncio.get_running_loop()
    started = loop.time()
    await asyncio.wait_for(server.stop(), 2)
    assert loop.time() - started < 1.0
    assert await asyncio.wait_for(reader.read(4096), 2) == b""
    assert server.router.closed
    writer.close()


def test_stop_answers_requests_pipelined_before_it():
    asyncio.run(_stop_answers_pipelined())


async def _stop_answers_pipelined():
    """A request received while the connection is busy is answered by the
    drain, not dropped, and only then does the connection close."""
    server = make_sharded_server()
    await server.start()
    busy, gate = asyncio.Event(), asyncio.Event()
    respond = server._respond

    async def gated_respond(item, session):
        busy.set()
        await gate.wait()
        return await respond(item, session)

    server._respond = gated_respond
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    writer.write(protocol.encode_put(make_key(1), b"first"))
    await writer.drain()
    await asyncio.wait_for(busy.wait(), 5)
    # Pipelined while the server is busy with the first request.
    writer.write(protocol.encode_get(make_key(1)))
    await writer.drain()
    await asyncio.sleep(0.05)
    stopping = asyncio.create_task(server.stop())
    await asyncio.sleep(0.05)
    assert not stopping.done()
    gate.set()
    replies = await read_replies(reader, 2)
    assert [protocol.decode_response(r)[0] for r in replies] == [Status.OK] * 2
    assert protocol.decode_value_body(protocol.decode_response(replies[1])[1]) \
        == b"first"
    assert await asyncio.wait_for(reader.read(4096), 5) == b""
    await asyncio.wait_for(stopping, 5)
    writer.close()


def test_run_server_lifecycle_in_process(capsys):
    asyncio.run(_run_server_lifecycle())


async def _run_server_lifecycle():
    ready = asyncio.Event()
    ref: list = []
    task = asyncio.create_task(run_server(
        2, port=0, config=tiny_unikv_config(), ready=ready, server_ref=ref))
    await asyncio.wait_for(ready.wait(), 5)
    server = ref[0]
    async with AsyncKVClient(port=server.port) as client:
        await client.put(b"cli", b"smoke")
        assert await client.get(b"cli") == b"smoke"
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await task
    assert server.router.closed


def test_sigint_after_batch_traffic_exits_without_traceback():
    """A connection still closing when SIGINT arrives used to be left to
    the event loop's teardown, which cancelled it and logged the
    cancellation as a traceback (while still exiting 0)."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--shards", "4", "--port", "0",
         "--boundaries", "user4,user8,userc"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        # One CPU for the server makes the close/SIGINT race reproducible.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(proc.pid, {min(os.sched_getaffinity(0))})
        line = proc.stdout.readline()
        assert "serving 4 shard(s)" in line, line
        port = int(line.rsplit(":", 1)[1])

        async def traffic():
            async with AsyncKVClient(port=port) as client:
                for b in range(20):
                    await client.write_batch([
                        ("put", make_key(b * 128 + i), b"x" * 100)
                        for i in range(128)])

        asyncio.run(traffic())
        with KVClient(port=port, timeout=30.0) as client:
            client.stats()
        proc.send_signal(signal.SIGINT)
        out, __ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "shutdown complete" in out
    assert "Traceback" not in out, out


# -- the blocking client ----------------------------------------------------------------

class SyncServerHarness:
    """Run a KVServer on a private event loop thread for KVClient tests."""

    def __init__(self, **server_kw):
        self.server = make_sharded_server(**server_kw)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        started.wait(5)

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        self.loop.close()


def test_sync_client_round_trip_and_batching():
    harness = SyncServerHarness()
    try:
        with KVClient(port=harness.server.port, timeout=5.0) as client:
            assert client.ping(b"hello") == b"hello"
            client.put(b"k1", b"v1")
            assert client.get(b"k1") == b"v1"
            assert client.get(b"missing") is None
            with client.batcher(max_ops=4) as batch:
                for i in range(10):
                    batch.put(b"b%02d" % i, b"val%d" % i)
            assert batch.flushes == 3  # 4 + 4 + tail flush of 2
            assert client.get(b"b07") == b"val7"
            pairs = client.scan(b"b", 100)
            assert [k for k, __ in pairs][:10] == [b"b%02d" % i for i in range(10)]
            client.delete(b"k1")
            assert client.get(b"k1") is None
            stats = client.stats()
            assert stats["server"]["connections"] >= 1
            describe = client.describe()
            assert describe["num_shards"] == 2
    finally:
        harness.stop()


def test_sync_client_retries_on_shed_backpressure():
    harness = SyncServerHarness(config=stall_config(), admission="shed",
                                max_consecutive_sheds=2,
                                slowdown_delay_s=1e-5, max_delay_s=1e-4)
    try:
        retry = RetryPolicy(retries=5, backoff_base_s=0.001, backoff_max_s=0.01)
        with KVClient(port=harness.server.port, timeout=5.0,
                      retry=retry) as client:
            for i in range(400):
                client.put(make_key(i), b"z" * 64)
            assert server_view(harness.server.metrics.snapshot())["shed_writes"] > 0
            assert client.total_retries > 0
            for i in range(0, 400, 17):
                assert client.get(make_key(i)) == b"z" * 64
    finally:
        harness.stop()


# -- RetryPolicy: seeded jitter on exponential backoff ----------------------------------

def test_retry_policy_delays_grow_and_stay_bounded():
    policy = RetryPolicy(backoff_base_s=0.01, backoff_multiplier=2.0,
                         backoff_max_s=0.5, jitter=0.0)
    delays = [policy.delay(a) for a in range(10)]
    assert delays[:4] == [0.01, 0.02, 0.04, 0.08]  # exact without jitter
    assert all(a <= b for a, b in zip(delays, delays[1:]))
    assert delays[-1] == 0.5  # capped


def test_retry_policy_jitter_spreads_within_the_equal_jitter_band():
    policy = RetryPolicy(backoff_base_s=0.01, backoff_multiplier=2.0,
                         backoff_max_s=10.0, jitter=0.5, seed=1)
    for attempt in range(6):
        base = 0.01 * 2.0 ** attempt
        samples = {policy.delay(attempt) for __ in range(50)}
        assert all(base * 0.5 <= d <= base for d in samples)
        assert len(samples) > 10  # actually jittered, not constant


def test_retry_policy_is_seed_deterministic_and_varies_across_seeds():
    def schedule(seed):
        policy = RetryPolicy(jitter=0.5, seed=seed)
        return [policy.delay(a) for a in range(8)]
    assert schedule(42) == schedule(42)   # same seed: same delays
    assert schedule(42) != schedule(43)   # different seed: different delays
    # Unseeded policies draw independent streams (thundering-herd defence).
    assert (RetryPolicy(jitter=0.5).delay(3)
            != RetryPolicy(jitter=0.5).delay(3))


def test_retry_policy_rejects_bad_jitter():
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-0.1)


# -- crashed shard device surfaces as RETRY --------------------------------------------

def test_server_maps_disk_crash_to_retry_status():
    asyncio.run(_disk_crash_retry())


async def _disk_crash_retry():
    server = make_sharded_server(num_shards=2, boundary_at=300)
    await server.start()
    async with AsyncKVClient(port=server.port,
                             retry=RetryPolicy(retries=0)) as client:
        await client.put(make_key(0), b"before")
        # Power-fail shard 0's device: writes to it now raise DiskCrashed,
        # which the server must surface as transient (RETRY), not ERROR.
        server.router.stores[0].disk.crash()
        with pytest.raises(TransientError):
            await client.put(make_key(1), b"after")
        assert server_view(server.metrics.snapshot())["errors"] >= 1
        # The healthy shard keeps serving.
        await client.put(make_key(999), b"other-shard")
        assert await client.get(make_key(999)) == b"other-shard"
    await server.stop()


def test_server_disk_crash_recovers_via_reattach():
    asyncio.run(_disk_crash_reattach())


async def _disk_crash_reattach():
    from repro.core.store import UniKV as UniKVStore
    from repro.service.router import replace_config

    server = make_sharded_server(num_shards=2, boundary_at=300,
                                 close_router_on_stop=False)
    await server.start()
    router = server.router
    retry = RetryPolicy(retries=6, backoff_base_s=0.001, backoff_max_s=0.005,
                        seed=7)
    async with AsyncKVClient(port=server.port, retry=retry) as client:
        await client.put(make_key(0), b"durable")
        crashed = router.stores[0]
        crashed.disk.crash()
        # Recover from the crash-consistent clone and re-attach; the
        # client's retry loop rides through the outage.
        clone = crashed.disk.crash_clone(0)
        recovered = UniKVStore(disk=clone,
                               config=replace_config(crashed.config))
        assert router.reattach(0, recovered) is crashed
        assert await client.get(make_key(0)) == b"durable"
        await client.put(make_key(1), b"post-recovery")
        assert await client.get(make_key(1)) == b"post-recovery"
    await server.stop()
    router.close()
