"""A maintenance job that fails before its commit leaves no file behind.

Every UniKV merge, GC, split and scan-merge, and every LevelDB compaction,
ends with one manifest commit; a file no commit names is an orphan.  A
PebblesDB compaction has no manifest: its outputs enter the guards only
once it has written them all, and a table no guard names is an orphan.  When
a job fails on damaged input (a data block that reads back flipped, or a
read that errors), the files it already wrote are deleted before the error
reaches the caller, so the disk holds exactly what the store's committed
state names.  Each case damages the last data block of one input table
just before the job runs, so a streaming job has already created its
outputs when it reaches the fault.
"""

import pytest

import repro.core.store as store_module
from repro.core.store import UniKV
from repro.engine.errors import CorruptionError
from repro.env.storage import ReadFault
from repro.lsm import LevelDBStore, LSMConfig, PebblesDBStore
from tests.conftest import tiny_unikv_config

FAULT_MODES = ("flip", "error")

#: job -> (owner, attribute of the job function, its input tables)
UNIKV_JOBS = {
    "scan_merge": (UniKV, "_scan_merge",
                   lambda p: list(p.unsorted.tables.values())),
    "merge": (store_module, "merge_partition",
              lambda p: [*p.unsorted.tables.values(), *p.sorted.tables]),
    "gc": (store_module, "run_gc", lambda p: list(p.sorted.tables)),
    "split": (store_module, "split_partition",
              lambda p: [*p.unsorted.tables.values(), *p.sorted.tables]),
}


def fault_last_block(disk, reader, mode: str) -> None:
    off, length = reader._block_locs[-1]
    disk.inject_read_fault(reader.name, off, length, mode=mode)


def named_files(db: UniKV) -> set[str]:
    """Every file the store's committed state names."""
    names = {"MANIFEST"}
    names.update(file for file, __ in db._checkpoints.values())
    for partition in db.partitions:
        names.update(meta.name for meta in partition.unsorted.tables.values())
        names.update(meta.name for meta in partition.sorted.tables)
        names.update(db.ctx.log_name(n) for n in partition.log_numbers)
        names.add(partition.wal.name)
    return names


def fail_one_job(monkeypatch, db, job: str, mode: str) -> list:
    """Damage one input table of the first run of ``job`` that has an
    input of at least two data blocks; returns ``[(partition, table)]``
    once it has."""
    owner, attr, inputs = UNIKV_JOBS[job]
    real = getattr(owner, attr)
    faulted = []

    def run(first, partition):
        if not faulted:
            for meta in inputs(partition):
                reader = db.ctx.table_reader(meta.name)
                if reader.num_blocks >= 2:
                    fault_last_block(db.disk, reader, mode)
                    faulted.append((partition, meta.name))
                    break
        return real(first, partition)

    monkeypatch.setattr(owner, attr, run)
    return faulted


def put(db, model: dict, i: int) -> None:
    key, value = b"key-%05d" % (i * 7919 % 3000), b"v%05d" % i * 8
    model[key] = value
    db.put(key, value)


def put_until_failure(db, model: dict, faulted: list, limit: int = 6000) -> int:
    for i in range(limit):
        try:
            put(db, model, i)
        except (CorruptionError, ReadFault):
            assert faulted
            return i + 1
    pytest.fail(f"no job failed in {limit} puts (faulted: {faulted})")


def assert_reads_back(db, model: dict) -> None:
    for key, value in model.items():
        assert db.get(key) == value, key


@pytest.mark.parametrize("mode", FAULT_MODES)
@pytest.mark.parametrize("job", sorted(UNIKV_JOBS))
def test_a_failed_unikv_job_leaves_only_named_files(monkeypatch, job, mode):
    db = UniKV(config=tiny_unikv_config())
    faulted = fail_one_job(monkeypatch, db, job, mode)
    model: dict[bytes, bytes] = {}
    done = put_until_failure(db, model, faulted)
    assert set(db.disk.list()) == named_files(db)

    # The damaged table is still live; once its fault clears, the store
    # carries on and every acked write reads back, before and after a
    # reopen.
    db.disk.clear_read_faults()
    for i in range(done, done + 1500):
        put(db, model, i)
    assert set(db.disk.list()) == named_files(db)
    assert_reads_back(db, model)
    assert_reads_back(UniKV(disk=db.disk.clone(), config=db.config), model)


def test_a_merge_failing_inside_a_flush_keeps_the_flushed_table(monkeypatch):
    """A merge runs inside the flush that triggered it, after the flush's
    commit: the merge's failure must not take the flushed table with it."""
    db = UniKV(config=tiny_unikv_config())
    faulted = fail_one_job(monkeypatch, db, "merge", "flip")
    flushed = []
    real_merge = store_module.merge_partition

    def merge(ctx, partition):
        if not faulted:
            flushed.append(partition.unsorted.tables[max(partition.unsorted.tables)].name)
        return real_merge(ctx, partition)

    monkeypatch.setattr(store_module, "merge_partition", merge)
    model: dict[bytes, bytes] = {}
    put_until_failure(db, model, faulted)
    partition, __ = faulted[0]
    table = flushed[-1]
    assert table in {meta.name for meta in partition.unsorted.tables.values()}
    assert db.disk.exists(table)
    assert set(db.disk.list()) == named_files(db)

    db.disk.clear_read_faults()
    assert_reads_back(db, model)
    db.flush()
    assert_reads_back(db, model)
    assert_reads_back(UniKV(disk=db.disk.clone(), config=db.config), model)


# -- LevelDB ---------------------------------------------------------------------

def small_lsm_config() -> LSMConfig:
    return LSMConfig(memtable_size=512, sstable_size=512, block_size=128,
                     base_level_bytes=2048, level_size_multiplier=4,
                     block_cache_bytes=4096)


def fail_one_compaction(monkeypatch, db, wanted) -> list:
    """Damage the last data block of the last lower-level input of the
    first compaction for which ``wanted(level, inputs, lower)`` holds."""
    real = LevelDBStore._run_compaction
    faulted = []

    def run(self, level, inputs, next_inputs, upper_sources):
        if not faulted and wanted(level, inputs, next_inputs):
            reader = self._compaction_reader(next_inputs[-1].name)
            fault_last_block(self._disk, reader, "flip")
            faulted.append((level, inputs[0]))
        return real(self, level, inputs, next_inputs, upper_sources)

    monkeypatch.setattr(LevelDBStore, "_run_compaction", run)
    return faulted


def test_a_failed_leveldb_compaction_leaves_only_named_tables(monkeypatch):
    db = LevelDBStore(config=small_lsm_config())
    faulted = fail_one_compaction(
        monkeypatch, db,
        lambda level, inputs, lower: lower and db._reader(lower[-1].name).num_blocks >= 2)
    model: dict[bytes, bytes] = {}
    done = put_until_failure(db, model, faulted)
    assert set(db.disk.list("sst-")) == {meta.name for meta in db._state.all_files()}

    db.disk.clear_read_faults()
    for i in range(done, done + 1500):
        put(db, model, i)
    assert_reads_back(db, model)
    assert_reads_back(LevelDBStore(disk=db.disk.clone(), config=db.config), model)


def test_a_failed_compaction_does_not_advance_the_round_robin_pick(monkeypatch):
    db = LevelDBStore(config=small_lsm_config())
    faulted = fail_one_compaction(
        monkeypatch, db,
        lambda level, inputs, lower: (level >= 1 and lower
                                      and len(db._state.levels[level]) >= 2))
    put_until_failure(db, {}, faulted)
    level, picked = faulted[0]
    assert db._state.pick_compaction_file(level) == picked


# -- PebblesDB -------------------------------------------------------------------

def pebbles_guards(db: PebblesDBStore) -> list:
    return [[(guard.key, [meta.name for meta in guard.files]) for guard in guards]
            for guards in db._levels]


def test_a_failed_pebblesdb_compaction_leaves_its_guards_and_no_file(monkeypatch):
    """Damage one L0 input once level 1 has three guards: the L0
    compaction fails after it has finished some fragments and while it is
    writing another."""
    db = PebblesDBStore(config=small_lsm_config())
    real = PebblesDBStore._compact_l0
    faulted, guards_before = [], []

    def compact_l0(self):
        if not faulted and len(self._levels[0]) >= 3:
            for meta in self._l0:
                reader = self._compaction_reader(meta.name)
                if reader.num_blocks >= 2:
                    fault_last_block(self._disk, reader, "flip")
                    faulted.append(meta.name)
                    guards_before.append(pebbles_guards(self))
                    break
        return real(self)

    monkeypatch.setattr(PebblesDBStore, "_compact_l0", compact_l0)
    model: dict[bytes, bytes] = {}
    done = put_until_failure(db, model, faulted)
    assert pebbles_guards(db) == guards_before[0]
    named = {meta.name for meta in db._l0}
    named.update(name for guards in pebbles_guards(db)
                 for __, names in guards for name in names)
    assert set(db.disk.list("sst-")) == named

    db.disk.clear_read_faults()
    for i in range(done, done + 1500):
        put(db, model, i)
    assert_reads_back(db, model)
    assert db.scan(b"", len(model) + 1) == sorted(model.items())
