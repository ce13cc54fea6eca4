"""The exact STATS and DESCRIBE content of a scripted 2-shard deployment.

A :class:`RequestHandler` over two UniKV shards runs one fixed request
script through :meth:`RequestHandler.handle_now` on a hair-trigger stall
config (one background lane, slowdown at 1 and stop at 2 jobs in flight),
so every stall field is nonzero.  Everything asserted here is on the
virtual clock or a plain count; the wall-clocked ``obs.server`` snapshot
is left out.  This pins what a refactor of the stats plumbing must keep.
"""

from repro.core.store import UniKV
from repro.service import protocol
from repro.service.handler import RequestHandler, Session
from repro.service.protocol import MAX_FRAME_BYTES
from repro.service.router import ShardRouter
from tests.conftest import tiny_unikv_config


def _run_script() -> tuple[dict, dict]:
    stores = [UniKV(config=tiny_unikv_config(
        background_threads=1, slowdown_trigger=1, stop_trigger=2,
        slowdown_penalty_us=0.5))
        for __ in range(2)]
    handler = RequestHandler(ShardRouter(stores, [b"k1"]))
    session = Session()

    def call(frame: bytes) -> bytes:
        reply = handler.handle_now(frame[4:], session)
        return protocol.decode_response(reply[4:])[1]

    for i in range(600):  # two of every three keys land on shard 0
        call(protocol.encode_put(b"k%d-%04d" % (i % 3 // 2, i), b"v" * 40))
    for i in range(0, 600, 50):
        call(protocol.encode_batch([("put", b"k%d-b%04d" % (j % 2, i + j), b"w" * 30)
                                    for j in range(8)]))
    for i in range(0, 600, 7):
        call(protocol.encode_get(b"k%d-%04d" % (i % 2, i)))
    call(protocol.encode_delete(b"k0-0000"))
    call(protocol.encode_scan(b"k0", 20))
    call(protocol.frame(b"\xff\x00\x01"))
    handler.handle_now(protocol.FrameTooLarge(MAX_FRAME_BYTES + 1), session)
    stats = protocol.decode_json_body(call(protocol.encode_stats()))
    describe = protocol.decode_json_body(call(protocol.encode_describe()))
    return stats, describe


#: STATS ``shards``/``aggregate``/``server`` after the script
EXPECTED_STATS = {
    "aggregate": {
        "core": {
            "flushes": 68,
            "gc_runs": 4,
            "hash_false_positive_probes": 0,
            "index_checkpoints": 15,
            "merges": 8,
            "scan_merges": 21,
            "splits": 6
        },
        "partitions": 8,
        "write_stall": {
            "job_counts": {
                "flush": 68,
                "gc": 4,
                "merge": 8,
                "scan_merge": 21,
                "split": 6
            },
            "job_seconds": {
                "flush": 0.00020173501968383863,
                "gc": 0.0003052253723144629,
                "merge": 0.000312092781066903,
                "scan_merge": 0.0002570157051086433,
                "split": 0.0002665247917175355
            },
            "queue_depth_high_water": 2,
            "stall_causes": {
                "slowdown:flush": 2,
                "slowdown:merge": 8,
                "slowdown:scan_merge": 20,
                "stop:flush": 66,
                "stop:gc": 4,
                "stop:scan_merge": 1,
                "stop:split": 6
            },
            "stall_events": 107,
            "stall_seconds": 0.0012304539680481228
        }
    },
    "server": {
        "bad_requests": 1,
        "connections": 0,
        "crashed_rejections": 0,
        "delayed_writes": 593,
        "errors": 0,
        "requests": 703,
        "shed_writes": 0,
        "too_large_frames": 1
    },
    "shards": [
        {
            "core": {
                "flushes": 44,
                "gc_runs": 3,
                "hash_false_positive_probes": 0,
                "index_checkpoints": 10,
                "merges": 5,
                "scan_merges": 13,
                "splits": 4
            },
            "lower": "",
            "partitions": 5,
            "shard": 0,
            "write_stall": {
                "job_counts": {
                    "flush": 44,
                    "gc": 3,
                    "merge": 5,
                    "scan_merge": 13,
                    "split": 4
                },
                "job_seconds": {
                    "flush": 0.00013055181503295987,
                    "gc": 0.00022891044616700496,
                    "merge": 0.000199543952941904,
                    "scan_merge": 0.000158029556274415,
                    "split": 0.0001739058494567947
                },
                "queue_depth_high_water": 2,
                "stall_causes": {
                    "slowdown:flush": 1,
                    "slowdown:merge": 5,
                    "slowdown:scan_merge": 13,
                    "stop:flush": 43,
                    "stop:gc": 3,
                    "stop:split": 4
                },
                "stall_events": 69,
                "stall_seconds": 0.0008420262336731285
            }
        },
        {
            "core": {
                "flushes": 24,
                "gc_runs": 1,
                "hash_false_positive_probes": 0,
                "index_checkpoints": 5,
                "merges": 3,
                "scan_merges": 8,
                "splits": 2
            },
            "lower": "6b31",
            "partitions": 3,
            "shard": 1,
            "write_stall": {
                "job_counts": {
                    "flush": 24,
                    "gc": 1,
                    "merge": 3,
                    "scan_merge": 8,
                    "split": 2
                },
                "job_seconds": {
                    "flush": 7.118320465087876e-05,
                    "gc": 7.631492614745795e-05,
                    "merge": 0.00011254882812499896,
                    "scan_merge": 9.898614883422831e-05,
                    "split": 9.261894226074083e-05
                },
                "queue_depth_high_water": 2,
                "stall_causes": {
                    "slowdown:flush": 1,
                    "slowdown:merge": 3,
                    "slowdown:scan_merge": 7,
                    "stop:flush": 23,
                    "stop:gc": 1,
                    "stop:scan_merge": 1,
                    "stop:split": 2
                },
                "stall_events": 38,
                "stall_seconds": 0.00038842773437499435
            }
        }
    ]
}

#: DESCRIBE ``stats``/``runtime`` per shard after the script
EXPECTED_DESCRIBE = [
    {
        "runtime": {
            "background_threads": 1,
            "backlog_seconds": 0.0,
            "job_counts": {
                "flush": 44,
                "gc": 3,
                "merge": 5,
                "scan_merge": 13,
                "split": 4
            },
            "job_seconds": {
                "flush": 0.00013055181503295987,
                "gc": 0.00022891044616700496,
                "merge": 0.000199543952941904,
                "scan_merge": 0.000158029556274415,
                "split": 0.0001739058494567947
            },
            "queue_depth": 0,
            "queue_depth_high_water": 2,
            "stall_causes": {
                "slowdown:flush": 1,
                "slowdown:merge": 5,
                "slowdown:scan_merge": 13,
                "stop:flush": 43,
                "stop:gc": 3,
                "stop:split": 4
            },
            "stall_events": 69,
            "stall_seconds": 0.0008420262336731285
        },
        "stats": {
            "flushes": 44,
            "gc_runs": 3,
            "hash_false_positive_probes": 0,
            "index_checkpoints": 10,
            "merges": 5,
            "scan_merges": 13,
            "splits": 4
        }
    },
    {
        "runtime": {
            "background_threads": 1,
            "backlog_seconds": 0.0,
            "job_counts": {
                "flush": 24,
                "gc": 1,
                "merge": 3,
                "scan_merge": 8,
                "split": 2
            },
            "job_seconds": {
                "flush": 7.118320465087876e-05,
                "gc": 7.631492614745795e-05,
                "merge": 0.00011254882812499896,
                "scan_merge": 9.898614883422831e-05,
                "split": 9.261894226074083e-05
            },
            "queue_depth": 0,
            "queue_depth_high_water": 2,
            "stall_causes": {
                "slowdown:flush": 1,
                "slowdown:merge": 3,
                "slowdown:scan_merge": 7,
                "stop:flush": 23,
                "stop:gc": 1,
                "stop:scan_merge": 1,
                "stop:split": 2
            },
            "stall_events": 38,
            "stall_seconds": 0.00038842773437499435
        },
        "stats": {
            "flushes": 24,
            "gc_runs": 1,
            "hash_false_positive_probes": 0,
            "index_checkpoints": 5,
            "merges": 3,
            "scan_merges": 8,
            "splits": 2
        }
    }
]


def test_stats_and_describe_content_is_pinned():
    stats, describe = _run_script()
    assert {key: stats[key] for key in ("shards", "aggregate", "server")} == EXPECTED_STATS
    assert [{"stats": shard["stats"], "runtime": shard["runtime"]}
            for shard in describe["shards"]] == EXPECTED_DESCRIBE
