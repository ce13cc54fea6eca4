"""Unit tests for IOStats aggregation and the device cost model."""

import pytest

from repro.env import DeviceCostModel, IOStats
from repro.env.iostats import RAND, READ, SEQ, WRITE

_MB = 1024 * 1024


def test_iostats_delta_and_merge():
    s = IOStats()
    s.record(WRITE, SEQ, "a", 100)
    before = s.snapshot()
    s.record(WRITE, SEQ, "a", 50)
    s.record(READ, RAND, "b", 10)
    d = s.delta_since(before)
    assert d.bytes_for(tag="a") == 50
    assert d.bytes_for(tag="b") == 10
    merged = IOStats()
    merged.merge(before)
    merged.merge(d)
    assert merged.bytes_for(tag="a") == s.bytes_for(tag="a")


def test_iostats_reset():
    s = IOStats()
    s.record(READ, SEQ, "x", 5)
    s.reset()
    assert s.read_bytes == 0 and not s.records


def test_seq_write_time_matches_bandwidth():
    model = DeviceCostModel(seq_write_mb_s=400.0)
    s = IOStats()
    s.record(WRITE, SEQ, "flush", 400 * _MB)
    assert model.seconds(s) == pytest.approx(1.0)


def test_seq_read_time_matches_bandwidth():
    model = DeviceCostModel(seq_read_mb_s=500.0)
    s = IOStats()
    s.record(READ, SEQ, "compaction", 500 * _MB)
    assert model.seconds(s) == pytest.approx(1.0)


def test_rand_read_pays_per_op_latency():
    model = DeviceCostModel(seq_read_mb_s=500.0, rand_read_op_us=80.0)
    s = IOStats()
    for _ in range(1000):
        s.record(READ, RAND, "lookup", 4096)
    t = model.seconds(s)
    stream = 1000 * 4096 / (500.0 * _MB)
    assert t == pytest.approx(stream + 1000 * 80e-6)


def test_rand_write_pays_per_op_latency():
    model = DeviceCostModel(seq_write_mb_s=400.0, rand_write_op_us=100.0)
    s = IOStats()
    s.record(WRITE, RAND, "inplace", 4096)
    assert model.seconds(s) == pytest.approx(4096 / (400.0 * _MB) + 100e-6)


def test_parallelism_divides_tag_time():
    # An IOStats divisor prices only its own tag's records below the
    # default model; every other tag keeps the full price.
    plain, divided = IOStats(), IOStats(divisors={"compaction": 4.0})
    for stats in (plain, divided):
        stats.record(WRITE, SEQ, "compaction", 100 * _MB)
        stats.record(WRITE, SEQ, "wal", 100 * _MB)
        stats.record(READ, RAND, "lookup", 4096)
    full = DeviceCostModel().seconds(plain)
    compaction = 100 * _MB / (400.0 * _MB)  # the default sequential write rate
    assert plain.seconds == pytest.approx(full)
    assert divided.seconds == pytest.approx(full - compaction + compaction / 4.0)
