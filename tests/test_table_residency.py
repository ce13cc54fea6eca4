"""Every table a UniKV store writes is resident before its job commits.

UniKV keeps table metadata in memory instead of Bloom filters, so a
SortedStore lookup touches exactly one table with at most one data-block
read.  That holds only if no foreground GET or SCAN has to open a table:
the job that writes a table (flush, scan-merge, merge, GC, split) loads it
into the table cache before its manifest commit, and dropping a table
evicts it.  A seeded workload on :func:`~tests.conftest.tiny_unikv_config`
reaches every job kind with GETs and SCANs between the jobs, and after
every op checks that no random ``table_open`` read was ever recorded and
that the open readers are exactly the live tables.
"""

import importlib
import random

import pytest

from repro.core.store import UniKV
from repro.engine.errors import CorruptionError
from tests.conftest import tiny_unikv_config

FOREGROUND_OPEN = ("read", "rand", "table_open")


def live_tables(db: UniKV) -> set[str]:
    names: set[str] = set()
    for partition in db.partitions:
        names.update(meta.name for meta in partition.unsorted.tables.values())
        names.update(meta.name for meta in partition.sorted.tables)
    return names


def resident_tables(db: UniKV) -> set[str]:
    return {reader.name for reader in db.ctx._tables.open_readers()}


ALL_JOBS = ("flushes", "scan_merges", "merges", "gc_runs", "splits")


@pytest.mark.parametrize("overrides, jobs", [
    ({}, ALL_JOBS),
    ({"inline_value_threshold": 24}, ALL_JOBS),
    # Full re-separation releases every old log at each merge, so nothing
    # is left for GC to collect.
    ({"partial_kv_separation": False},
     tuple(job for job in ALL_JOBS if job != "gc_runs")),
], ids=["plain", "inline", "no_partial"])
def test_foreground_ops_never_open_a_table(overrides, jobs):
    db = UniKV(config=tiny_unikv_config(**overrides))
    rng = random.Random(20261019)
    model: dict[bytes, bytes] = {}
    for i in range(2400):
        roll = rng.random()
        key = b"key-%05d" % rng.randrange(0, 40000, 7)
        if roll < 0.55:
            value = b"%d:" % i + bytes([97 + i % 26]) * rng.randrange(6, 48)
            db.put(key, value)
            model[key] = value
        elif roll < 0.62:
            db.delete(key)
            model.pop(key, None)
        elif roll < 0.9:
            if model and rng.random() < 0.7:
                key = rng.choice(sorted(model))
            assert db.get(key) == model.get(key), key
        else:
            count = rng.choice([1, 9, 60])
            expected = [(k, model[k]) for k in sorted(model) if k >= key][:count]
            assert db.scan(key, count) == expected, (key, count)
        assert FOREGROUND_OPEN not in db.disk.stats.records, i
        assert resident_tables(db) == live_tables(db), i
    stats = db.stats
    for job in jobs:
        assert stats[job] > 0, (job, stats)


def test_a_table_that_reads_back_damaged_fails_its_job_before_the_commit():
    db = UniKV(config=tiny_unikv_config())
    # The next table name the flush will write; its footer reads back
    # flipped, so the verify-on-build open rejects it.
    name = f"sst-{db.ctx.next_table:06d}"
    db.disk.inject_read_fault(name, 0, 1 << 20)
    with pytest.raises(CorruptionError):
        for i in range(200):
            db.put(b"key-%05d" % i, b"v" * 40)
    assert not db.disk.exists(name)
    assert name not in db.disk.read_full("MANIFEST", tag="test").decode("latin-1")


@pytest.mark.parametrize("job, damaged_call", [("merge", 1), ("gc", 1), ("split", 2)])
def test_a_job_whose_table_reads_back_damaged_deletes_every_file_it_wrote(
        monkeypatch, job, damaged_call):
    """The first table of the job's ``damaged_call``-th run reads back
    flipped.  A split writes one run per half, so its second run's failure
    must also delete the first half's tables and value log."""
    db = UniKV(config=tiny_unikv_config())
    module = importlib.import_module(f"repro.core.{job}")
    real_write_run = module.write_run
    calls = []

    def write_run(ctx, *args, **kwargs):
        calls.append(ctx.next_table)
        if len(calls) == damaged_call:
            db.disk.inject_read_fault(f"sst-{ctx.next_table:06d}", 0, 1 << 20)
        return real_write_run(ctx, *args, **kwargs)

    monkeypatch.setattr(module, "write_run", write_run)
    with pytest.raises(CorruptionError):
        for i in range(3000):
            db.put(b"key-%05d" % (i * 7919 % 3000), b"v" * 40)
    assert len(calls) == damaged_call
    assert set(db.disk.list("sst-")) == live_tables(db)
    assert set(db.disk.list("vlog-")) == {db.ctx.log_name(n) for n in db.ctx.log_refs}
