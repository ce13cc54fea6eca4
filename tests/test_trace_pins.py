"""The chaos simulator's trace and the store's crash-point sequence, pinned.

* ``python -m repro sim --seed 0 --batch 10 --trace`` prints ten seeded
  runs, each with two shard power failures and two recoveries; the sha256
  of its output is pinned, so a change to how a job commits or how
  recovery replays the manifest must leave every traced event and every
  recovered partition count as it is.
* The crash-point names a :func:`~tests.conftest.tiny_unikv_config` store
  fires over ``mixed_ops(3000, seed=19)`` are pinned in order, so no job
  may add, drop or reorder an injection point.
"""

import contextlib
import hashlib
import io
from collections import Counter

from repro.__main__ import main
from repro.core import UniKV
from tests.conftest import tiny_unikv_config
from tests.test_runtime_equivalence import apply_ops, mixed_ops

SIM_TRACE_SHA256 = "457774bc3d2519b0d7c377b6977de3f14766d91593fe9e6c105bf891d31e7b37"

CRASH_POINT_COUNTS = {
    "checkpoint:before_commit": 45,
    "flush:before_commit": 192,
    "flush:start": 192,
    "gc:after_commit": 13,
    "gc:before_commit": 13,
    "gc:start": 13,
    "merge:after_commit": 24,
    "merge:after_data": 24,
    "merge:start": 24,
    "scan_merge:before_commit": 57,
    "scan_merge:start": 57,
    "split:after_commit": 3,
    "split:before_commit": 3,
    "split:start": 3,
}
CRASH_POINT_SHA256 = "8d47b4698c20b3d6ac4edcf6e5a9859fa9806732a4d2b8f3b8126c7b6e6cb964"


def test_sim_trace_pin():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sim", "--seed", "0", "--batch", "10", "--trace"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SIM_TRACE_SHA256


def test_crash_point_sequence_pin():
    db = UniKV(config=tiny_unikv_config())
    seen: list[str] = []
    db.ctx.crash_hook = seen.append
    apply_ops(db, mixed_ops(3000, seed=19))
    assert dict(sorted(Counter(seen).items())) == CRASH_POINT_COUNTS
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == CRASH_POINT_SHA256
