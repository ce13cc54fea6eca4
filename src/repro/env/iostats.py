"""I/O accounting.

Every read and write issued against the :class:`~repro.env.storage.SimulatedDisk`
is recorded here, keyed by three dimensions:

* ``op``      — ``"read"`` or ``"write"``
* ``pattern`` — ``"seq"`` (append / full-file streaming) or ``"rand"``
  (positioned block access)
* ``tag``     — a free-form purpose label supplied by the engine
  (``"wal"``, ``"flush"``, ``"compaction"``, ``"gc"``, ``"lookup"``,
  ``"scan_value"``, ...).  Tags let the harness compute read/write
  amplification per purpose, and let a store divide one purpose's time
  by a parallelism factor (:attr:`IOStats.divisors`).

:attr:`IOStats.seconds` is the running device time of everything recorded,
priced with the default :class:`~repro.env.cost_model.DeviceCostModel`.
The model is linear in (ops, bytes) for each (op, pattern, tag), so each
record carries its two coefficients, computed once per key, and every I/O
adds its seconds as it lands: reading the total is O(1) instead of a walk
over the records.  It is the store's virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

READ = "read"
WRITE = "write"
SEQ = "seq"
RAND = "rand"

#: (seconds per op, seconds per byte) of each (op, pattern, tag) under the
#: default device model, filled as keys are first seen
_COEFFICIENTS: dict[tuple[str, str, str], tuple[float, float]] = {}


def _coefficients(key: tuple[str, str, str]) -> tuple[float, float]:
    coeffs = _COEFFICIENTS.get(key)
    if coeffs is None:
        # Imported here: the cost model module imports this one.
        from repro.env.cost_model import DeviceCostModel
        coeffs = _COEFFICIENTS[key] = DeviceCostModel().coefficients(*key[:2])
    return coeffs


@dataclass
class IORecord:
    """Aggregated counters for one (op, pattern, tag) combination."""

    ops: int = 0
    bytes: int = 0
    #: modelled seconds per op and per byte under the default device model
    op_seconds: float = field(default=0.0, compare=False, repr=False)
    byte_seconds: float = field(default=0.0, compare=False, repr=False)


@dataclass
class IOStats:
    """Mutable aggregate of all I/O issued against one disk."""

    records: dict[tuple[str, str, str], IORecord] = field(default_factory=dict)
    #: modelled device seconds of the records: priced by :meth:`record`,
    #: carried by snapshot/delta/merge
    seconds: float = field(default=0.0, compare=False)
    #: per-tag parallelism: a tag's records are priced at 1/divisor of the
    #: default model (RocksDB's multi-threaded compaction); set before the
    #: tag's first record
    divisors: dict[str, float] = field(default_factory=dict, compare=False)

    def record(self, op: str, pattern: str, tag: str, nbytes: int) -> None:
        key = (op, pattern, tag)
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = self._new_record(key)
        rec.ops += 1
        rec.bytes += nbytes
        self.seconds += rec.op_seconds + nbytes * rec.byte_seconds

    def _new_record(self, key: tuple[str, str, str]) -> IORecord:
        op_seconds, byte_seconds = _coefficients(key)
        divisor = self.divisors.get(key[2])
        if divisor:
            op_seconds /= divisor
            byte_seconds /= divisor
        return IORecord(0, 0, op_seconds, byte_seconds)

    # -- aggregation helpers -------------------------------------------------

    def bytes_for(self, op: str | None = None, pattern: str | None = None,
                  tag: str | None = None) -> int:
        """Total bytes matching the given filters (None matches anything)."""
        return sum(
            rec.bytes for (o, p, t), rec in self.records.items()
            if (op is None or o == op)
            and (pattern is None or p == pattern)
            and (tag is None or t == tag)
        )

    def ops_for(self, op: str | None = None, pattern: str | None = None,
                tag: str | None = None) -> int:
        """Total operation count matching the given filters."""
        return sum(
            rec.ops for (o, p, t), rec in self.records.items()
            if (op is None or o == op)
            and (pattern is None or p == pattern)
            and (tag is None or t == tag)
        )

    @property
    def read_bytes(self) -> int:
        return self.bytes_for(op=READ)

    @property
    def write_bytes(self) -> int:
        return self.bytes_for(op=WRITE)

    @property
    def read_ops(self) -> int:
        return self.ops_for(op=READ)

    @property
    def write_ops(self) -> int:
        return self.ops_for(op=WRITE)

    def tags(self) -> set[str]:
        return {t for (_, _, t) in self.records}

    def snapshot(self) -> "IOStats":
        """An independent copy, useful for before/after deltas."""
        copy = IOStats(seconds=self.seconds)
        for key, rec in self.records.items():
            copy.records[key] = IORecord(rec.ops, rec.bytes, rec.op_seconds,
                                         rec.byte_seconds)
        return copy

    def delta_since(self, before: "IOStats") -> "IOStats":
        """Counters accumulated since ``before`` was snapshotted."""
        out = IOStats(seconds=self.seconds - before.seconds)
        for key, rec in self.records.items():
            prior = before.records.get(key)
            ops = rec.ops - (prior.ops if prior else 0)
            nbytes = rec.bytes - (prior.bytes if prior else 0)
            if ops or nbytes:
                out.records[key] = IORecord(ops, nbytes, rec.op_seconds,
                                            rec.byte_seconds)
        return out

    def merge(self, other: "IOStats") -> None:
        """Fold another stats object into this one (in place)."""
        for key, rec in other.records.items():
            mine = self.records.get(key)
            if mine is None:
                mine = self.records[key] = self._new_record(key)
            mine.ops += rec.ops
            mine.bytes += rec.bytes
        self.seconds += other.seconds

    def reset(self) -> None:
        self.records.clear()
        self.seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows = ", ".join(
            f"{o}/{p}/{t}={rec.bytes}B" for (o, p, t), rec in sorted(self.records.items())
        )
        return f"IOStats({rows})"
