"""``scripts/perf_pairs.py`` with its benchmark runs stubbed out."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perf_pairs(monkeypatch):
    """The script, with a calibration that reads 100 us unless a test
    stubs it otherwise."""
    module = load_script()
    monkeypatch.setattr(module, "calibrate", lambda: 100.0)
    return module


def make_tree(root: Path, name: str) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("")
    return tree


def stub_runs(perf_pairs, monkeypatch, results):
    """Make ``run_once`` return perfbench-shaped JSON: per side, a
    (modelled, correct, failed) triple."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        calls.append((side, seed))
        modelled, correct, failed = results[side]
        return {"metrics": {"server_cpu_us_per_op": {"value": 60.0},
                            "modelled_us_per_op": {"value": modelled},
                            "setup_s": {"value": 1.5}},
                "correct": correct, "failed": failed}

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    return calls


def run_main(perf_pairs, tmp_path, pairs=3):
    parent, change = make_tree(tmp_path, "parent"), make_tree(tmp_path, "change")
    ledger = tmp_path / "ledger.json"
    code = perf_pairs.main([
        "--parent", str(parent), "--change", str(change),
        "--workload", "batch-get", "--pairs", str(pairs), "--seconds", "1",
        "--pr", "test", "--seed", "7", "--ledger", str(ledger)])
    return code, json.loads(ledger.read_text())


def test_pairs_alternate_and_print_relative_change_beside_bound(
        perf_pairs, monkeypatch, tmp_path, capsys):
    calls = stub_runs(perf_pairs, monkeypatch,
                      {"parent": (8.0, True, 0), "change": (6.0, True, 0)})
    code, ledger = run_main(perf_pairs, tmp_path)
    assert code == 0
    assert calls == [("parent", 7), ("change", 7), ("change", 8),
                     ("parent", 8), ("parent", 9), ("change", 9)]
    assert len(ledger["rows"]) == 6
    assert set(ledger["columns"]) == set(ledger["rows"][0])
    out = capsys.readouterr().out
    assert "change median -25.0% of the parent's (regression bound +10%)" in out
    assert "change median +0.0% of the parent's (regression bound +25%)" in out
    assert "change lower in 3 of 3 pairs" in out
    assert "FAILED RUN" not in out


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 4)])
def test_a_failed_run_makes_the_exit_code_non_zero(
        perf_pairs, monkeypatch, tmp_path, capsys, correct, failed):
    stub_runs(perf_pairs, monkeypatch,
              {"parent": (8.0, True, 0), "change": (6.0, correct, failed)})
    code, ledger = run_main(perf_pairs, tmp_path, pairs=2)
    assert code == 1
    # Every run is still recorded in the ledger.
    assert len(ledger["rows"]) == 4
    out = capsys.readouterr().out
    assert out.count("FAILED RUN") == 2
    assert f"change correct {correct} failed {failed}" in out


def test_bounds_come_from_the_benchmark_declaration(perf_pairs):
    declared = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())
    bounds = perf_pairs.load_bounds()
    assert bounds == {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert set(perf_pairs.METRICS) <= set(bounds)


@pytest.mark.parametrize("offsets, verdict", [
    # lower in 10/10, medians 3.0 apart against the parent's spread of 2.0
    ([-3.0] * 10, "claim rule met: lower in 10/10"),
    # lower in 10/10, but the gain (1.5) is inside the parent's spread
    ([-1.5] * 10, "claim rule not met: lower in 10/10"),
    # a large gain, but lower in only 8 of 10 pairs
    ([-3.0] * 8 + [1.0] * 2, "claim rule not met: lower in 8/10"),
])
def test_the_claim_rule_needs_nine_of_ten_wins_and_a_gain_beyond_the_spread(
        perf_pairs, monkeypatch, tmp_path, capsys, offsets, verdict):
    parent_values = [10.0, 11.0, 12.0, 13.0, 14.0] * 2   # quartiles 11 .. 13

    def run_once(tree, workload, seed, seconds):
        modelled = parent_values[seed - 7]
        if tree.name == "change":
            modelled += offsets[seed - 7]
        return {"metrics": {"server_cpu_us_per_op": {"value": 60.0},
                            "modelled_us_per_op": {"value": modelled},
                            "setup_s": {"value": 1.5}},
                "correct": True, "failed": 0}

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    code, __ = run_main(perf_pairs, tmp_path, pairs=10)
    assert code == 0
    out = capsys.readouterr().out
    modelled = out[out.index("\nmodelled_us_per_op\n"):out.index("\nsetup_s\n")]
    assert verdict in modelled
    assert "interquartile spread 2.0000" in modelled
    # Equal runs are no gain: the unchanged metrics never meet the rule.
    assert out.count("claim rule met") == verdict.startswith("claim rule met")


def test_the_claim_rule_needs_ten_pairs(perf_pairs, monkeypatch, tmp_path, capsys):
    """Three pairs, each far lower on the change, do not meet the rule."""
    stub_runs(perf_pairs, monkeypatch,
              {"parent": (10.0, True, 0), "change": (5.0, True, 0)})
    code, __ = run_main(perf_pairs, tmp_path, pairs=3)
    assert code == 0
    out = capsys.readouterr().out
    modelled = out[out.index("\nmodelled_us_per_op\n"):out.index("\nsetup_s\n")]
    assert "claim rule not met: lower in 3/3 (needs 9/10)" in modelled


def test_rows_carry_the_calibration_and_cpu_usage_is_printed_normalised(
        perf_pairs, monkeypatch, tmp_path, capsys):
    """The change's runs meet a host half as fast: raw server CPU per op
    rises by half, normalised it falls by a quarter."""
    calls = stub_runs(perf_pairs, monkeypatch,
                      {"parent": (8.0, True, 0), "change": (8.0, True, 0)})
    cpu = {"parent": 60.0, "change": 90.0}
    calibration = {"parent": 100.0, "change": 200.0}
    stubbed_run = perf_pairs.run_once

    def run_once(tree, workload, seed, seconds):
        result = stubbed_run(tree, workload, seed, seconds)
        result["metrics"]["server_cpu_us_per_op"]["value"] = cpu[tree.name]
        return result

    # Runs go parent, change, change, parent, parent, change (alternating).
    order = iter(["parent", "change", "change", "parent", "parent", "change"])
    monkeypatch.setattr(perf_pairs, "calibrate", lambda: calibration[next(order)])
    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    monkeypatch.setattr(perf_pairs, "cpu_model", lambda: "Test CPU @ 1 GHz")
    code, ledger = run_main(perf_pairs, tmp_path)
    assert code == 0 and len(calls) == 6
    for row in ledger["rows"]:
        assert row["calibration_us"] == calibration[row["side"]]
        assert row["cpu_model"] == "Test CPU @ 1 GHz"
    out = capsys.readouterr().out
    cpu_section = out[out.index("server_cpu_us_per_op\n"):out.index("\nmodelled_us_per_op\n")]
    assert "change median +50.0% of the parent's" in cpu_section
    # reference calibration 150 us: parent 60 * 1.5 = 90, change 90 * 0.75;
    # calibrations 100, 100, 100, 200, 200, 200 spread 100 us around 150.
    assert ("normalised by the calibration loop (150 us, interquartile spread 66.7%): "
            "parent median 90.0000, change median 67.5000 (-25.0%), "
            "change lower in 3 of 3 pairs") in cpu_section
    # The parent's raw values do not spread at all, so the scaling is noise.
    assert ("normalised line unresolved: the calibration spreads wider than the "
            "parent's raw values (66.7% vs 0.0%)") in cpu_section


def test_normalised_line_is_resolved_when_the_calibration_is_steadier(
        perf_pairs, monkeypatch, tmp_path, capsys):
    """A steady calibration beside a spread raw metric leaves the
    normalised line unmarked."""
    stub_runs(perf_pairs, monkeypatch,
              {"parent": (8.0, True, 0), "change": (8.0, True, 0)})
    cpu = iter([60.0, 50.0, 50.0, 80.0, 70.0, 55.0])  # parent 60, 80, 70
    stubbed_run = perf_pairs.run_once

    def run_once(tree, workload, seed, seconds):
        result = stubbed_run(tree, workload, seed, seconds)
        result["metrics"]["server_cpu_us_per_op"]["value"] = next(cpu)
        return result

    calibration = iter([100.0, 101.0, 99.0, 100.0, 100.0, 102.0])
    monkeypatch.setattr(perf_pairs, "calibrate", lambda: next(calibration))
    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    code, __ = run_main(perf_pairs, tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "normalised by the calibration loop (100 us, interquartile spread" in out
    assert "unresolved" not in out


def test_calibration_times_the_loop_and_keeps_the_affinity():
    module = load_script()
    before = os.sched_getaffinity(0)
    assert module.calibrate(loops=2000) > 0
    assert os.sched_getaffinity(0) == before
    model = module.cpu_model()
    assert model is None or (isinstance(model, str) and model)
