#!/usr/bin/env python3
"""Mini evaluation: the paper's microbenchmark suite at example scale.

Runs load / read / scan / update phases across all five comparison engines
(Fig. 7's layout) and prints the paper-style tables.  For the full,
per-figure reproduction use `pytest benchmarks/ --benchmark-only`.

Run:  python examples/engine_shootout.py
"""

from repro.bench.experiments import (
    run_e3_load,
    run_e4_read,
    run_e5_scan,
    run_e6_update,
)


def main(num_records: int = 8000) -> None:
    n = num_records
    print(run_e3_load(num_records=n).text)
    print(run_e4_read(num_records=n, reads=1500).text)
    print(run_e5_scan(num_records=n, scans=100).text)
    print(run_e6_update(num_records=n, updates=10000).text)
    print("Expected shape (paper Fig. 7): UniKV leads load, read and update;")
    print("scans are comparable to LevelDB thanks to the size-based merge and")
    print("value-log readahead (one read per run of neighbouring values);")
    print("PebblesDB trades scan speed for write cost.")


if __name__ == "__main__":
    main()
