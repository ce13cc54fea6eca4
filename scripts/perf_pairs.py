"""Alternating parent/change pairs of the TCP benchmark, appended to a ledger.

Usage (from the repository root)::

    python3 scripts/perf_pairs.py --parent ../parent --change . \\
        --workload batch-get --pairs 10 --seconds 20 --pr my-change

Each pair runs ``python3 perfbench/run.py`` once in each source tree with
the same seed; which side runs first alternates from pair to pair, so a
drift in the host's speed does not favour either side.  The seeds are
``--seed`` to ``--seed + pairs - 1`` and are printed before the first run.
Each row records the host's CPU model, so that rows recorded on different
hosts are not compared with each other.

Every run appends one row to the ledger (``BENCH_service.json`` by
default), whose ``columns`` entry explains each field.  Runs go one at a
time: the benchmark pins its server and clients to their own CPUs.  At the
end the script prints, per end-to-end metric, each side's median and
quartiles, the change's median relative to the parent's next to the
metric's regression ``bound`` from ``BENCHMARK.json``, the number of
pairs in which the change was lower, and the verdict of the rule a claimed
gain must pass: at least ten pairs, the change lower in at least 9 of 10,
and its median lower than the parent's by more than the parent's
interquartile spread.  It exits 1 if any run was not ``correct`` or had
failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: perfbench's end-to-end metrics; lower is better for each
METRICS = ("server_cpu_us_per_op", "modelled_us_per_op", "setup_s")
COLUMNS = {
    "pr": "the change the pairs measured (--pr)",
    "commit": "git commit of the tree that ran, '+dirty' if it had uncommitted "
              "changes, null if it is not a git checkout",
    "side": "'parent' (the tree before the change) or 'change'",
    "workload": "perfbench workload: ycsb-b, ycsb-e or batch-get",
    "seed": "perfbench seed; both sides of a pair share it",
    "seconds": "length of the measured window, in seconds",
    "server_cpu_us_per_op": "server CPU microseconds per key-value operation "
                            "over the window",
    "modelled_us_per_op": "modelled device microseconds per key-value "
                          "operation (virtual clock)",
    "setup_s": "server CPU seconds to start and load 20,000 records, median "
               "of three set-ups",
    "correct": "every reply and read-back matched the benchmark's model and "
               "the server shut down cleanly",
    "failed": "operations that failed in the window",
    "calibration_us": "present only in rows recorded before the calibration "
                      "loop was deleted: CPU microseconds of a fixed "
                      "pure-Python loop timed just before the run on the "
                      "server's CPU, best of five",
    "cpu_model": "the host CPU's model name from /proc/cpuinfo, null if unknown",
}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def commit_of(tree: Path) -> str | None:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        commit = git("rev-parse", "--short=12", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return commit + ("+dirty" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed "
                           f"({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def load_ledger(path: Path) -> dict:
    if path.exists():
        ledger = json.loads(path.read_text())
    else:
        ledger = {"rows": []}
    ledger["columns"] = COLUMNS
    return ledger


def save_ledger(path: Path, ledger: dict) -> None:
    rows = ledger["rows"]
    body = ",\n".join("    " + json.dumps(row) for row in rows)
    columns = json.dumps(ledger["columns"], indent=2).replace("\n", "\n  ")
    path.write_text('{\n  "columns": ' + columns + ',\n  "rows": [\n'
                    + body + ("\n" if rows else "") + "  ]\n}\n")


def load_bounds() -> dict[str, float]:
    """Each end-to-end metric's allowed relative regression, as
    ``BENCHMARK.json`` declares it."""
    return {metric["name"]: metric["bound"] for metric in
            json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], bounds: dict[str, float]) -> int:
    """Print the per-metric summary; the number of runs that were not
    correct or had failed operations."""
    for name in METRICS:
        print(name)
        medians, spreads = {}, {}
        for side, index in (("parent", 0), ("change", 1)):
            q1, medians[side], q3 = quartiles([pair[index][name] for pair in pairs])
            spreads[side] = q3 - q1
            print(f"  {side:6s} median {medians[side]:10.4f}  "
                  f"quartiles {q1:.4f} .. {q3:.4f}")
        relative = medians["change"] / medians["parent"] - 1.0
        print(f"  change median {relative:+.1%} of the parent's "
              f"(regression bound +{bounds[name]:.0%})")
        wins = sum(change[name] < parent[name] for parent, change in pairs)
        print(f"  change lower in {wins} of {len(pairs)} pairs")
        gain = medians["parent"] - medians["change"]
        met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
               and gain > spreads["parent"])
        print(f"  claim rule {'met' if met else 'not met'}: lower in {wins}/{len(pairs)} "
              f"(needs 9/10), median gain {gain:.4f} vs the parent's "
              f"interquartile spread {spreads['parent']:.4f}")
    bad = [row for pair in pairs for row in pair
           if not row["correct"] or row["failed"]]
    for row in bad:
        print(f"FAILED RUN: seed {row['seed']} {row['side']} correct "
              f"{row['correct']} failed {row['failed']}")
    return len(bad)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="source tree before the change")
    parser.add_argument("--change", type=Path, required=True,
                        help="source tree with the change")
    parser.add_argument("--workload", required=True,
                        choices=["ycsb-b", "ycsb-e", "batch-get"])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pr", required=True, help="label of the change measured")
    parser.add_argument("--seed", type=int, default=201, help="seed of the first pair")
    parser.add_argument("--ledger", type=Path, default=ROOT / "BENCH_service.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {tree}: no perfbench/run.py")
    commits = {side: commit_of(tree) for side, tree in trees.items()}
    seeds = list(range(args.seed, args.seed + args.pairs))
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds {seeds}; "
          f"parent {commits['parent']}, change {commits['change']}", flush=True)

    ledger = load_ledger(args.ledger)
    pairs: list[tuple[dict, dict]] = []
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        rows = {}
        for side in order:
            result = run_once(trees[side], args.workload, seed, args.seconds)
            row = {"pr": args.pr, "commit": commits[side], "side": side,
                   "workload": args.workload, "seed": seed, "seconds": args.seconds}
            row.update({name: result["metrics"][name]["value"] for name in METRICS})
            row.update(correct=result["correct"], failed=result["failed"],
                       cpu_model=cpu_model())
            rows[side] = row
            ledger["rows"].append(row)
            save_ledger(args.ledger, ledger)
            print(f"  seed {seed} {side:6s} "
                  + " ".join(f"{name} {row[name]:.4f}" for name in METRICS)
                  + f" correct {row['correct']} failed {row['failed']}", flush=True)
        pairs.append((rows["parent"], rows["change"]))
    return 1 if summarize(pairs, load_bounds()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
