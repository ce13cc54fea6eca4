"""Tests for the bench harness: runner, metrics, reporting, experiments."""

import pytest

from repro import LevelDBStore, RocksDBStore, UniKV
from repro.bench import (
    effective_cost_model,
    execute_ops,
    format_series,
    format_table,
    run_workload,
)
from repro.bench.experiments import PAPER_ENGINES, make_engine
from repro.env.cost_model import DeviceCostModel
from repro.workloads import load_phase
from tests.conftest import tiny_unikv_config
from tests.test_lsm_leveldb import small_config


def test_execute_ops_dispatch():
    db = LevelDBStore(config=small_config())
    ops = [
        ("insert", b"a", b"1"),
        ("update", b"a", b"2"),
        ("read", b"a"),
        ("scan", b"a", 5),
        ("rmw", b"a", b"3"),
        ("delete", b"a"),
    ]
    num_ops, user_bytes = execute_ops(db, ops)
    assert num_ops == 6
    assert user_bytes == 3 * (1 + 1)
    assert db.get(b"a") is None


def test_execute_ops_rejects_unknown():
    db = LevelDBStore(config=small_config())
    with pytest.raises(ValueError):
        execute_ops(db, [("frobnicate", b"x")])


def test_run_workload_metrics_sane():
    db = LevelDBStore(config=small_config())
    metrics = run_workload(db, load_phase(300, 50), phase="load")
    assert metrics.engine == "LevelDB"
    assert metrics.num_ops == 300
    assert metrics.user_write_bytes == 300 * (len(b"user%012d" % 0) + 50)
    assert metrics.modelled_seconds > 0
    assert metrics.throughput_kops > 0
    assert metrics.write_amplification > 1.0  # WAL + flush at minimum
    row = metrics.as_row()
    assert set(row) >= {"engine", "kops", "write_amp"}


def test_run_workload_isolates_phases():
    db = LevelDBStore(config=small_config())
    run_workload(db, load_phase(300, 50), phase="load")
    read_metrics = run_workload(db, [("read", b"user%012d" % 5)], phase="read")
    assert read_metrics.device_write_bytes == 0
    assert read_metrics.num_ops == 1


def test_overlapped_store_rejects_a_model_its_lanes_do_not_use():
    db = UniKV(config=tiny_unikv_config(background_threads=1))
    with pytest.raises(ValueError):
        run_workload(db, load_phase(10, 50),
                     cost_model=DeviceCostModel(seq_write_mb_s=100.0))
    assert run_workload(db, load_phase(10, 50),
                        cost_model=DeviceCostModel()).num_ops == 10


def test_cpu_cost_prevents_zero_division():
    db = LevelDBStore(config=small_config())
    db.put(b"k", b"v")
    metrics = run_workload(db, [("read", b"k")], phase="read")  # memtable hit
    assert metrics.modelled_seconds > 0
    assert metrics.throughput_kops < float("inf")


def test_effective_cost_model_rocksdb_compaction():
    db = RocksDBStore(config=small_config())
    model = effective_cost_model(db, DeviceCostModel())
    assert model.parallelism["compaction"] == db.compaction_parallelism


def test_effective_cost_model_applies_no_scan_value_divisor():
    # Scan value fetches are readahead I/O priced by the device, so the
    # bench and the store's own clock charge them alike.
    db = UniKV(config=tiny_unikv_config())
    model = effective_cost_model(db, DeviceCostModel())
    assert "scan_value" not in model.parallelism
    assert model == DeviceCostModel()


def test_effective_cost_model_plain_leveldb_unchanged():
    db = LevelDBStore(config=small_config())
    model = effective_cost_model(db, DeviceCostModel())
    assert model.parallelism == {}


# -- reporting -------------------------------------------------------------------------

def test_format_table_alignment_and_title():
    text = format_table("T", [{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.125}])
    lines = text.splitlines()
    assert lines[0] == "== T =="
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.50" in text and "0.12" in text


def test_format_table_empty():
    assert "(no rows)" in format_table("T", [])


def test_format_series_columns():
    text = format_series("S", "x", [1, 2], {"e1": [10, 20], "e2": [30, 40]})
    assert "e1" in text and "e2" in text and "40" in text


# -- experiment registry -------------------------------------------------------------------

def test_make_engine_produces_each_paper_engine():
    for name in PAPER_ENGINES + ("WiscKey", "SkimpyStash"):
        store = make_engine(name)
        assert store.name == name
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"


def test_make_engine_overrides_config():
    store = make_engine("UniKV", memtable_size=2048)
    assert store.config.memtable_size == 2048


def test_experiment_registry_is_complete():
    from repro.bench.experiments import ALL_EXPERIMENTS
    assert set(ALL_EXPERIMENTS) == {
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
        "E9", "E10", "E11", "E11b", "E12", "E13", "E14", "E15", "E16",
    }


def test_small_experiment_runs_end_to_end():
    from repro.bench.experiments import run_e3_load
    result = run_e3_load(engines=("LevelDB", "UniKV"), num_records=600)
    assert "UniKV" in result.text and "LevelDB" in result.text
    assert result.data["UniKV"]["kops"] > 0
