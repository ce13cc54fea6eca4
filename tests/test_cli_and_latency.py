"""Tests for the CLI entry point and latency-percentile collection."""

import pytest

from repro import LevelDBStore, UniKV
from repro.__main__ import main
from repro.bench import run_workload
from repro.workloads import load_phase
from tests.conftest import tiny_unikv_config
from tests.test_lsm_leveldb import small_config


# -- CLI -----------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "E3" in out and "E14" in out


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "Available experiments" in capsys.readouterr().out


def test_cli_unknown_experiment(capsys):
    assert main(["E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_runs_experiment_with_records_override(capsys):
    assert main(["E12", "--records", "600"]) == 0
    out = capsys.readouterr().out
    assert "E12 crash-recovery cost" in out
    assert "600" in out


def test_cli_rejects_non_positive_records(capsys):
    for bad in ("0", "-5"):
        assert main(["E12", "--records", bad]) == 2
        assert "positive integer" in capsys.readouterr().err


def test_cli_serve_rejects_bad_arguments(capsys):
    assert main(["serve", "--shards", "0"]) == 2
    assert "--shards" in capsys.readouterr().err
    assert main(["serve", "--background-threads", "-1"]) == 2
    assert "--background-threads" in capsys.readouterr().err
    # Boundary count must be shards - 1 and strictly increasing.
    assert main(["serve", "--shards", "3", "--boundaries", "m"]) == 2
    assert "exactly 2" in capsys.readouterr().err
    assert main(["serve", "--shards", "3", "--boundaries", "z,a"]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_client_cli_validates_arguments(capsys):
    from repro.service.client import main as client_main

    assert client_main(["get"]) == 2            # missing key
    assert "get: expected" in capsys.readouterr().err
    assert client_main(["put", "k"]) == 2       # missing value
    assert "put: expected" in capsys.readouterr().err


# -- latency percentiles -------------------------------------------------------------

def test_latencies_collected_per_op_kind():
    db = LevelDBStore(config=small_config())
    ops = list(load_phase(200, 40)) + [("read", b"user%012d" % 7)]
    metrics = run_workload(db, ops, phase="mixed")
    assert len(metrics.latencies["insert"]) == 200
    assert len(metrics.latencies["read"]) == 1
    assert metrics.latencies["insert"].min > 0


def test_latency_percentile_math():
    db = LevelDBStore(config=small_config())
    metrics = run_workload(db, load_phase(300, 40), phase="load")
    p50 = metrics.latency_us("insert", 50)
    p99 = metrics.latency_us("insert", 99)
    assert 0 < p50 <= p99
    with pytest.raises(ValueError):
        metrics.latency_us("insert", 150)
    with pytest.raises(ValueError):
        metrics.latency_us("scan", 50)  # no samples for scans


def test_tail_latency_reflects_foreground_maintenance():
    """Write tails come from ops that trigger flush+merge stalls."""
    db = UniKV(config=tiny_unikv_config())
    metrics = run_workload(db, load_phase(1500, 60), phase="load")
    p50 = metrics.latency_us("insert", 50)
    p999 = metrics.latency_us("insert", 99.9)
    assert p999 > p50 * 10  # flush/merge/split stalls dominate the tail


def test_latency_totals_consistent_with_phase_time():
    db = LevelDBStore(config=small_config())
    metrics = run_workload(db, load_phase(250, 40), phase="load")
    total = sum(hist.sum for hist in metrics.latencies.values())
    assert total == pytest.approx(metrics.modelled_seconds, rel=1e-9)
