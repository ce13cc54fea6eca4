"""Smoke tests: every example script must run cleanly end to end."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "recovered store" in out
    assert "partitions" in out


def test_session_store(capsys):
    out = run_example("session_store.py", capsys)
    assert "UniKV / LevelDB throughput" in out


def test_metrics_timeline(capsys):
    out = run_example("metrics_timeline.py", capsys)
    assert "metrics pipeline" in out
    assert "UniKV" in out and "PebblesDB" in out


def test_order_ledger(capsys):
    out = run_example("order_ledger.py", capsys)
    assert "the full batch vanished atomically" in out
    assert "p99.9" in out


def test_kv_server_demo(capsys):
    out = run_example("kv_server_demo.py", capsys)
    assert "serving 2 shards" in out
    assert "scan across shards" in out
    assert "server drained; shards closed: True" in out


@pytest.mark.slow
def test_engine_shootout(capsys):
    # The example's own scale (8000 records) takes tens of seconds; the
    # tables and their labels are the same at 2000.
    example = runpy.run_path(str(EXAMPLES / "engine_shootout.py"))
    example["main"](num_records=2000)
    out = capsys.readouterr().out
    for fig in ("Fig.7a", "Fig.7b", "Fig.7c", "Fig.7d"):
        assert fig in out
