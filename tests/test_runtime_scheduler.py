"""Unit tests for the maintenance-scheduler runtime (repro.runtime)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UniKV
from repro.env.cost_model import DeviceCostModel
from repro.env.iostats import IOStats
from repro.env.storage import SimulatedDisk
from repro.runtime import Job, MaintenanceScheduler
from repro.workloads import make_key
from tests.conftest import tiny_unikv_config


def write_bytes(disk, name, n, tag):
    writer = disk.create(name) if not disk.exists(name) else disk.append_writer(name)
    writer.append(b"x" * n, tag=tag)
    writer.close()


def make_scheduler(**kwargs):
    disk = SimulatedDisk()
    return disk, MaintenanceScheduler(disk, **kwargs)


# -- job execution semantics --------------------------------------------------------


def test_jobs_execute_immediately_at_submit():
    __, scheduler = make_scheduler(background_threads=0)
    ran = []
    job = scheduler.submit(Job(kind="flush", fn=lambda: ran.append(1) or "r"))
    assert job.ran and job.result == "r" and ran == [1]


def test_trigger_false_skips_job():
    __, scheduler = make_scheduler(background_threads=2)
    job = scheduler.submit(Job(kind="merge", fn=lambda: 1 / 0,
                               trigger=lambda: False))
    assert not job.ran and job.result is None
    assert scheduler.describe()["job_counts"] == {}


def test_job_exceptions_propagate():
    """Crash injection raises inside job bodies; submit must not swallow."""
    __, scheduler = make_scheduler(background_threads=2)
    with pytest.raises(ZeroDivisionError):
        scheduler.submit(Job(kind="gc", fn=lambda: 1 / 0))


def test_job_counts_and_durations_recorded():
    disk, scheduler = make_scheduler(background_threads=0)
    scheduler.submit(Job(kind="flush",
                         fn=lambda: write_bytes(disk, "f", 4096, "flush")))
    scheduler.submit(Job(kind="flush",
                         fn=lambda: write_bytes(disk, "f", 4096, "flush")))
    assert scheduler.describe()["job_counts"] == {"flush": 2}
    assert scheduler.describe()["job_seconds"]["flush"] > 0


# -- synchronous mode ---------------------------------------------------------------


def test_synchronous_mode_leaves_foreground_io_untouched():
    disk, scheduler = make_scheduler(background_threads=0)
    assert not scheduler.overlapped
    scheduler.submit(Job(kind="flush",
                         fn=lambda: write_bytes(disk, "f", 8192, "flush")))
    # Nothing is attributed to the background: the phase delta a runner
    # computes is identical to the pre-scheduler foreground accounting.
    assert scheduler.background_io.records == {}
    assert scheduler.stalls.sum == 0.0
    assert scheduler.describe()["queue_depth_high_water"] == 0


# -- overlapped mode ---------------------------------------------------------------


def test_overlapped_mode_moves_job_io_to_background():
    disk, scheduler = make_scheduler(background_threads=2)
    scheduler.submit(Job(kind="compaction",
                         fn=lambda: write_bytes(disk, "c", 8192, "compaction")))
    assert scheduler.background_io.bytes_for(tag="compaction") == 8192
    fg = disk.stats.delta_since(scheduler.background_io)
    assert fg.bytes_for(tag="compaction") == 0


def test_nested_jobs_not_double_counted():
    disk, scheduler = make_scheduler(background_threads=2)

    def flush_then_merge():
        write_bytes(disk, "f", 1000, "flush")
        scheduler.submit(Job(
            kind="merge", fn=lambda: write_bytes(disk, "m", 3000, "merge")))

    outer = scheduler.submit(Job(kind="flush", fn=flush_then_merge))
    # The outer job's own duration covers only its own 1000 bytes; the
    # nested merge's 3000 bytes were attributed when the inner job ran.
    assert scheduler.background_io.bytes_for(tag="flush") == 1000
    assert scheduler.background_io.bytes_for(tag="merge") == 3000
    expected = DeviceCostModel().seconds(
        scheduler.background_io.delta_since(IOStats()))
    total = sum(scheduler.describe()["job_seconds"].values())
    assert total == pytest.approx(expected)
    assert outer.duration_seconds < total


def test_lanes_overlap_durations():
    disk, scheduler = make_scheduler(background_threads=2)
    for i in range(2):
        scheduler.submit(Job(
            kind="compaction",
            fn=lambda i=i: write_bytes(disk, f"c{i}", 40960, "compaction")))
    # Two lanes: both jobs run concurrently from clock 0; the backlog is
    # one job's duration, not two.
    one = scheduler.describe()["job_seconds"]["compaction"] / 2
    assert scheduler.backlog_seconds() == pytest.approx(one)
    assert scheduler.describe()["queue_depth_high_water"] == 2


def test_single_lane_serializes_durations():
    disk, scheduler = make_scheduler(background_threads=1, stop_trigger=100,
                                     slowdown_trigger=100)
    for i in range(3):
        scheduler.submit(Job(
            kind="compaction",
            fn=lambda i=i: write_bytes(disk, f"c{i}", 40960, "compaction")))
    total = scheduler.describe()["job_seconds"]["compaction"]
    assert scheduler.backlog_seconds() == pytest.approx(total)


def test_slowdown_injects_penalty_stalls():
    # Penalty kept far below one job's device time so accumulated stalls
    # never advance the clock past an in-flight job's end (deterministic
    # queue depth at each submit).
    disk, scheduler = make_scheduler(background_threads=1, slowdown_trigger=2,
                                     stop_trigger=100, slowdown_penalty_us=10.0)
    for i in range(3):
        scheduler.submit(Job(
            kind="compaction",
            fn=lambda i=i: write_bytes(disk, f"c{i}", 40960, "compaction")))
    # Jobs 2 and 3 see depth 2 and 3 -> penalties of 1x and 2x.
    assert scheduler.stalls.count == 2
    assert scheduler.stalls.sum == pytest.approx(3 * 10.0 * 1e-6)


def test_stop_trigger_stalls_until_drain():
    # Large writes: job durations (~1ms) dominate the slowdown penalty, so
    # the third submit still finds both earlier jobs in flight.
    disk, scheduler = make_scheduler(background_threads=1, slowdown_trigger=2,
                                     stop_trigger=3)
    for i in range(3):
        scheduler.submit(Job(
            kind="compaction",
            fn=lambda i=i: write_bytes(disk, f"c{i}", 409600, "compaction")))
    # The third submit hits stop_trigger: the foreground clock jumps to the
    # first job's end, so the queue drains below the stop threshold.
    assert scheduler.stalls.sum > 0
    assert scheduler.queue_depth() < 3
    assert scheduler.describe()["queue_depth_high_water"] == 3


def test_stalls_advance_foreground_clock():
    disk, scheduler = make_scheduler(background_threads=1, slowdown_trigger=1,
                                     stop_trigger=100, slowdown_penalty_us=1000.0)
    before = scheduler.foreground_clock()
    scheduler.submit(Job(
        kind="flush", fn=lambda: write_bytes(disk, "f", 4096, "flush")))
    assert scheduler.foreground_clock() == pytest.approx(
        before + scheduler.stalls.sum)


def test_describe_shape():
    __, scheduler = make_scheduler(background_threads=2)
    info = scheduler.describe()
    assert info["background_threads"] == 2
    for key in ("stall_seconds", "job_counts", "queue_depth",
                "backlog_seconds", "queue_depth_high_water"):
        assert key in info


# -- running-total clock vs the record rebuild -----------------------------------------


def track_reference_job_seconds(disk, scheduler) -> dict[str, float]:
    """Re-derive every job's duration by the record rebuild the running
    totals replaced: the model's price of the job's own record delta, I/O
    its nested jobs moved to the background excluded."""
    model = DeviceCostModel()
    expected: dict[str, float] = {}
    submit = scheduler.submit

    def measured_submit(job):
        fn = job.fn

        def measured():
            before = disk.stats.snapshot()
            nested_before = scheduler.background_io.snapshot()
            result = fn()
            own = disk.stats.delta_since(before).delta_since(
                scheduler.background_io.delta_since(nested_before))
            expected[job.kind] = expected.get(job.kind, 0.0) + model.seconds(own)
            return result

        job.fn = measured
        return submit(job)

    scheduler.submit = measured_submit
    return expected


def assert_clock_matches_reference(disk, scheduler, expected=None):
    reference = (DeviceCostModel().seconds(
        disk.stats.delta_since(scheduler.background_io))
        + scheduler.stalls.sum)
    assert scheduler.foreground_clock() == pytest.approx(reference, rel=1e-9)
    for kind, seconds in (expected or {}).items():
        assert scheduler.describe()["job_seconds"][kind] == pytest.approx(seconds, rel=1e-9)


_IO = st.tuples(st.sampled_from(["read", "write"]), st.sampled_from(["seq", "rand"]),
                st.sampled_from(["wal", "flush", "merge", "lookup", "scan_value"]),
                st.integers(0, 1 << 20))
_STEP = st.recursive(
    st.tuples(st.just("io"), _IO),
    lambda steps: st.tuples(st.sampled_from(["flush", "merge", "gc"]),
                            st.lists(steps, max_size=4)),
    max_leaves=24)


@settings(max_examples=60, deadline=None)
@given(threads=st.sampled_from([0, 1, 2]), script=st.lists(_STEP, max_size=12))
def test_running_clock_matches_record_rebuild(threads, script):
    # Low triggers and a small penalty so slowdown and stop stalls fire.
    disk, scheduler = make_scheduler(background_threads=threads, slowdown_trigger=2,
                                     stop_trigger=3, slowdown_penalty_us=50.0)
    expected = track_reference_job_seconds(disk, scheduler)

    def run(step):
        if step[0] == "io":
            disk.stats.record(*step[1])
        else:
            kind, body = step
            scheduler.submit(Job(kind=kind, fn=lambda: [run(s) for s in body]))

    for step in script:
        run(step)
        assert_clock_matches_reference(disk, scheduler)
    assert_clock_matches_reference(disk, scheduler, expected)


@pytest.mark.parametrize("threads", [0, 1, 2])
@pytest.mark.parametrize("reopen", ["clone", "crash_clone"])
def test_running_clock_matches_record_rebuild_after_recovery(threads, reopen):
    """Recovery reads land before the store builds its scheduler; they are
    priced as they land, so the clock still matches the rebuild."""
    config = tiny_unikv_config(background_threads=threads)
    db = UniKV(disk=SimulatedDisk(sync_tracking=True), config=config)
    for i in range(400):
        db.put(make_key(i), b"v" * 48)
    disk = db.disk.clone() if reopen == "clone" else db.disk.crash_clone(7)
    recovered = UniKV(disk=disk, config=config)
    scheduler = recovered.scheduler
    assert disk.stats.read_ops > 0
    assert_clock_matches_reference(disk, scheduler)
    expected = track_reference_job_seconds(disk, scheduler)
    for i in range(600):
        recovered.put(make_key(i * 7 % 900), b"w" * 64)
        if i % 5 == 0:
            recovered.get(make_key(i))
            recovered.scan(make_key(i), 20)
        if i % 50 == 0:
            assert_clock_matches_reference(disk, scheduler)
    assert expected and scheduler.describe()["job_counts"]
    assert_clock_matches_reference(disk, scheduler, expected)


def test_sync_pressure_probe_reads_no_clock(monkeypatch):
    __, scheduler = make_scheduler(background_threads=0)
    monkeypatch.setattr(scheduler, "foreground_clock",
                        lambda: pytest.fail("clock read"))
    assert scheduler.queue_depth() == 0
    assert scheduler.backlog_seconds() == 0.0
