"""Log-bucketed latency histogram with a bounded relative error.

The bucketing is the DDSketch scheme: for a configured relative error
``eps`` the value axis is cut into geometric buckets with growth factor
``gamma = (1 + eps) / (1 - eps)``; a positive value ``v`` lands in bucket
``ceil(log_gamma(v))`` and is later reported as the bucket's geometric
midpoint ``2 * gamma**i / (gamma + 1)``.  Every value in a bucket is
within ``eps`` *relative* error of that midpoint, so any quantile estimate
is within ``eps`` of the true sample at the same rank — regardless of the
value range, which is what makes one parameterization work for microsecond
memtable hits and second-long stop stalls alike.

Memory is O(buckets touched), not O(samples): a sparse ``dict`` from
bucket index to count.  Histograms with the same ``relative_error`` merge
exactly (bucket-wise count addition), which is how the shard router
aggregates per-shard latency distributions into one, and how the bench
harness replaces its old unbounded per-op ``list[float]`` collection.

Non-positive values (and only those) are folded into a dedicated zero
bucket reported as ``0.0`` — the error bound is documented for positive
floats.  Non-finite values are rejected.
"""

from __future__ import annotations

import math

#: default bound on the relative error of quantile estimates (1%)
DEFAULT_RELATIVE_ERROR = 0.01


class LogHistogram:
    """Sparse log-bucketed histogram; quantiles within ``relative_error``."""

    __slots__ = ("relative_error", "_log_gamma", "_gamma", "buckets",
                 "zero_count", "count", "sum", "min", "max")

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        self.relative_error = relative_error
        # A value on a bucket edge (v == gamma**i) sits exactly eps from the
        # midpoint, so bucket with a hair less than eps: float rounding in the
        # log and the midpoint then cannot push an estimate past the bound.
        bucket_error = relative_error * (1.0 - 1e-6)
        self._gamma = (1.0 + bucket_error) / (1.0 - bucket_error)
        self._log_gamma = math.log(self._gamma)
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording --------------------------------------------------------------------

    def record(self, value: float, n: int = 1) -> None:
        """Record ``value`` ``n`` times (n > 0)."""
        if not math.isfinite(value):
            raise ValueError(f"cannot record non-finite value {value!r}")
        if n <= 0:
            raise ValueError("n must be positive")
        if value <= 0.0:
            self.zero_count += n
        else:
            index = math.ceil(math.log(value) / self._log_gamma)
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- quantiles --------------------------------------------------------------------

    def _bucket_value(self, index: int) -> float:
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Estimate of the sample at rank ``floor(q * (count - 1))``.

        ``q`` in [0, 1].  The estimate is within ``relative_error`` of the
        true sample at that rank (exactly 0.0 for non-positive samples).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            raise ValueError("empty histogram has no quantiles")
        rank = math.floor(q * (self.count - 1))
        cumulative = self.zero_count
        if rank < cumulative:
            return 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if rank < cumulative:
                return self._bucket_value(index)
        # Unreachable unless counts were corrupted externally.
        raise AssertionError("bucket counts do not cover the rank")

    # -- merge / snapshot -------------------------------------------------------------

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other`` into this histogram (bucket-exact)."""
        if other.relative_error != self.relative_error:
            raise ValueError("cannot merge histograms with different "
                             "relative_error parameters")
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        """JSON-able snapshot; :meth:`from_dict` round-trips it exactly."""
        return {
            "relative_error": self.relative_error,
            "count": self.count,
            "zero_count": self.zero_count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(index): n for index, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogHistogram":
        hist = cls(relative_error=data["relative_error"])
        hist.count = int(data["count"])
        hist.zero_count = int(data["zero_count"])
        hist.sum = float(data["sum"])
        hist.min = math.inf if data["min"] is None else float(data["min"])
        hist.max = -math.inf if data["max"] is None else float(data["max"])
        hist.buckets = {int(index): int(n)
                        for index, n in data["buckets"].items()}
        return hist

    def quantiles(self, qs: tuple[float, ...]) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` labels for the given fractions."""
        if self.count == 0:
            return {}
        return {f"p{100 * q:g}": self.quantile(q) for q in qs}

    # -- introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "LogHistogram(empty)"
        return (f"LogHistogram(count={self.count}, min={self.min:.3g}, "
                f"max={self.max:.3g}, p50={self.quantile(0.5):.3g})")
