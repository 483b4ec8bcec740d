"""Per-query timing records and aggregate serving statistics.

Each query the :class:`~repro.service.query_service.QueryService` executes produces
one :class:`QueryTiming`; :class:`ServiceStats` aggregates them together with the two
caches' counters. ``evaluation.reporting`` renders these as the same fixed-width
tables the benchmark figures use (:func:`repro.evaluation.reporting.format_service_stats`).

Multi-process serving (:class:`~repro.service.sharding.ShardedQueryService`) adds
two requirements this module covers:

* every record is picklable (worker processes ship their timings back to the
  gateway), and
* per-worker snapshots combine losslessly — :meth:`ServiceStats.merge` sums the
  counters and concatenates the timing records of any number of snapshots.

The aggregate totals are carried explicitly in :class:`StatTotals` rather than
re-derived from the timing list: :class:`StatsCollector` accumulates them inside
the same critical section that appends the timing record, so a snapshot can
never observe a timing whose counts are missing (or vice versa), and totals
survive even if a future collector bounds its timing retention.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.service.cache import CacheStats
from repro.service.keys import ResultKey

LATENCY_BUCKET_MIN_SECONDS = 1e-6
"""Lower edge of the first latency bucket (1 µs); faster queries land there too."""

LATENCY_BUCKETS_PER_DECADE = 20
"""Log-bucket resolution: 20 buckets per decade ≈ ±6% relative error."""

LATENCY_NUM_BUCKETS = 9 * LATENCY_BUCKETS_PER_DECADE + 1
"""Buckets covering 1 µs … 1000 s, plus one overflow bucket at the top."""


@dataclass(frozen=True)
class LatencyHistogram:
    """Fixed log-spaced latency buckets with an associative, lossless merge.

    Percentiles over concurrent workers need an aggregate that merges without
    holding every sample: fixed bucket edges make ``h1 + h2`` a plain
    element-wise sum, so the merge is associative and commutative — per-worker
    histograms combine in any order to the same aggregate (unlike reservoir
    sampling, which is neither). The price is quantisation: a reported
    percentile is the geometric midpoint of its bucket, within ±6% of the true
    order statistic at 20 buckets per decade.

    The empty histogram is represented by an empty ``counts`` tuple (the
    additive identity), so zero-valued :class:`StatTotals` cost no allocation.
    """

    counts: Tuple[int, ...] = ()

    @staticmethod
    def bucket_index(seconds: float) -> int:
        """Map a latency to its bucket (clamped at both ends)."""
        if seconds <= LATENCY_BUCKET_MIN_SECONDS:
            return 0
        index = int(
            math.log10(seconds / LATENCY_BUCKET_MIN_SECONDS)
            * LATENCY_BUCKETS_PER_DECADE
        )
        return min(index, LATENCY_NUM_BUCKETS - 1)

    @classmethod
    def of(cls, seconds: float) -> "LatencyHistogram":
        """The one-sample histogram for a single latency."""
        index = cls.bucket_index(seconds)
        counts = [0] * (index + 1)
        counts[index] = 1
        return cls(counts=tuple(counts))

    def __add__(self, other: "LatencyHistogram") -> "LatencyHistogram":
        if not self.counts:
            return other
        if not other.counts:
            return self
        longer, shorter = self.counts, other.counts
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        merged = list(longer)
        for i, count in enumerate(shorter):
            merged[i] += count
        return LatencyHistogram(counts=tuple(merged))

    @property
    def total(self) -> int:
        """Number of recorded samples."""
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile latency in seconds (0.0 when empty).

        Returns the geometric midpoint of the bucket holding the rank-``q``
        sample — an order-statistic estimate within the bucket resolution.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        total = self.total
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * total))
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return LATENCY_BUCKET_MIN_SECONDS * 10.0 ** (
                    (index + 0.5) / LATENCY_BUCKETS_PER_DECADE
                )
        return LATENCY_BUCKET_MIN_SECONDS * 10.0 ** (  # pragma: no cover
            len(self.counts) / LATENCY_BUCKETS_PER_DECADE
        )


@dataclass(frozen=True)
class QueryTiming:
    """The cost breakdown of one query served by the service.

    Attributes:
        key: The normalized result key the query executed under.
        algorithm: The resolved solver name.
        result_cache_hit: ``True`` when the answer came straight from the result
            cache (build and solve times are then 0).
        instance_cache_hit: ``True`` when the problem instance was reused from the
            instance cache (build time is then 0).
        build_seconds: Time spent building the problem instance (index probe +
            window extraction); 0 on any cache hit.
        solve_seconds: Time spent inside the solver; 0 on a result-cache hit.
        total_seconds: End-to-end service time for this query, including key
            normalization and cache probes.
    """

    key: ResultKey
    algorithm: str
    result_cache_hit: bool
    instance_cache_hit: bool
    build_seconds: float
    solve_seconds: float
    total_seconds: float


@dataclass(frozen=True)
class StatTotals:
    """Exact aggregate counters over a set of served queries.

    Accumulated atomically by :class:`StatsCollector` (one lock-protected
    read-modify-write per query, in the same critical section as the timing
    append) and summed across workers by :meth:`ServiceStats.merge`.
    """

    queries: int = 0
    result_hits: int = 0
    instance_hits: int = 0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def __add__(self, other: "StatTotals") -> "StatTotals":
        return StatTotals(
            queries=self.queries + other.queries,
            result_hits=self.result_hits + other.result_hits,
            instance_hits=self.instance_hits + other.instance_hits,
            build_seconds=self.build_seconds + other.build_seconds,
            solve_seconds=self.solve_seconds + other.solve_seconds,
            total_seconds=self.total_seconds + other.total_seconds,
            latency=self.latency + other.latency,
        )

    @classmethod
    def from_timings(cls, timings: Iterable[QueryTiming]) -> "StatTotals":
        """Derive the totals of a timing list (for snapshots built without a collector)."""
        totals = cls()
        for timing in timings:
            totals = totals + cls.of(timing)
        return totals

    @classmethod
    def of(cls, timing: QueryTiming) -> "StatTotals":
        """The one-query totals contribution of a single timing record."""
        return cls(
            queries=1,
            result_hits=1 if timing.result_cache_hit else 0,
            instance_hits=1 if timing.instance_cache_hit else 0,
            build_seconds=timing.build_seconds,
            solve_seconds=timing.solve_seconds,
            total_seconds=timing.total_seconds,
            latency=LatencyHistogram.of(timing.total_seconds),
        )


def _sum_cache_stats(parts: List[CacheStats]) -> CacheStats:
    return CacheStats(
        hits=sum(p.hits for p in parts),
        misses=sum(p.misses for p in parts),
        evictions=sum(p.evictions for p in parts),
        size=sum(p.size for p in parts),
        max_size=sum(p.max_size for p in parts),
    )


@dataclass(frozen=True)
class ServiceStats:
    """An immutable snapshot of a service's accumulated accounting.

    Attributes:
        timings: One record per executed query, in completion order.
        result_cache: Snapshot of the result cache's counters.
        instance_cache: Snapshot of the instance cache's counters.
        totals: Exact aggregate counters (see :class:`StatTotals`); derived from
            ``timings`` when a snapshot is constructed without one.
        degradations: Counts of degraded-but-served events by kind (for
            example the sharded gateway's ``routing_bounds``: routing without
            the bound columns, so without zero-mass skips). Empty when nothing
            degraded.
    """

    timings: List[QueryTiming]
    result_cache: CacheStats
    instance_cache: CacheStats
    totals: Optional[StatTotals] = None
    degradations: Dict[str, int] = field(default_factory=dict)

    def _totals(self) -> StatTotals:
        return (
            self.totals
            if self.totals is not None
            else StatTotals.from_timings(self.timings)
        )

    @classmethod
    def merge(cls, parts: Iterable["ServiceStats"]) -> "ServiceStats":
        """Combine per-worker snapshots into one aggregate snapshot.

        Timing records are concatenated in the given part order, cache counters,
        totals and degradation counts are summed. Merging zero parts yields an
        empty snapshot.
        """
        part_list = list(parts)
        timings: List[QueryTiming] = []
        totals = StatTotals()
        degradations: Dict[str, int] = {}
        for part in part_list:
            timings.extend(part.timings)
            totals = totals + part._totals()
            for kind, count in part.degradations.items():
                degradations[kind] = degradations.get(kind, 0) + count
        empty = CacheStats(hits=0, misses=0, evictions=0, size=0, max_size=0)
        return cls(
            timings=timings,
            result_cache=_sum_cache_stats([p.result_cache for p in part_list]) if part_list else empty,
            instance_cache=_sum_cache_stats([p.instance_cache for p in part_list]) if part_list else empty,
            totals=totals,
            degradations=degradations,
        )

    @property
    def queries(self) -> int:
        """Number of queries served."""
        return self._totals().queries

    @property
    def result_hits(self) -> int:
        """Queries answered straight from the result cache."""
        return self._totals().result_hits

    @property
    def instance_hits(self) -> int:
        """Queries that reused a cached problem instance."""
        return self._totals().instance_hits

    @property
    def total_build_seconds(self) -> float:
        """Total instance-build time across all served queries."""
        return self._totals().build_seconds

    @property
    def total_solve_seconds(self) -> float:
        """Total solver time across all served queries."""
        return self._totals().solve_seconds

    @property
    def total_seconds(self) -> float:
        """Total end-to-end service time across all served queries."""
        return self._totals().total_seconds

    @property
    def mean_latency_seconds(self) -> float:
        """Mean end-to-end latency per query (0.0 when no queries ran)."""
        return self.total_seconds / self.queries if self.queries else 0.0

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile end-to-end latency in seconds (0.0 when empty).

        Read from the totals' :class:`LatencyHistogram`, so merged snapshots
        report true cross-worker percentiles (the histogram merge is lossless);
        the value is quantised to the histogram's bucket resolution (±6%).
        """
        return self._totals().latency.percentile(q)

    @property
    def p50_latency_seconds(self) -> float:
        """Median end-to-end latency."""
        return self.latency_percentile(50.0)

    @property
    def p95_latency_seconds(self) -> float:
        """95th-percentile end-to-end latency."""
        return self.latency_percentile(95.0)

    @property
    def p99_latency_seconds(self) -> float:
        """99th-percentile end-to-end latency."""
        return self.latency_percentile(99.0)

    @property
    def result_hit_rate(self) -> float:
        """Fraction of queries answered from the result cache."""
        return self.result_hits / self.queries if self.queries else 0.0


class StatsCollector:
    """Mutable, lock-protected accumulator behind a service's ``stats()`` call.

    The timing append and the totals read-modify-write happen inside one
    critical section, so concurrent :meth:`record` calls can never interleave a
    partial update — every snapshot's ``totals`` match its ``timings`` exactly
    (the hammer test in ``tests/service/test_stats.py`` pounds on this).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timings: List[QueryTiming] = []
        self._totals = StatTotals()

    def record(self, timing: QueryTiming) -> None:
        """Record one query's timing and fold it into the totals (atomically)."""
        contribution = StatTotals.of(timing)
        with self._lock:
            self._timings.append(timing)
            self._totals = self._totals + contribution

    def record_many(self, timings: Iterable[QueryTiming]) -> None:
        """Record a batch of timings under a single critical section."""
        batch = list(timings)
        contribution = StatTotals.from_timings(batch)
        with self._lock:
            self._timings.extend(batch)
            self._totals = self._totals + contribution

    def reset(self) -> None:
        """Drop all recorded timings and zero the totals."""
        with self._lock:
            self._timings.clear()
            self._totals = StatTotals()

    def snapshot(
        self, result_cache: CacheStats, instance_cache: CacheStats
    ) -> ServiceStats:
        """Freeze the current state into an immutable :class:`ServiceStats`."""
        with self._lock:
            timings = list(self._timings)
            totals = self._totals
        return ServiceStats(
            timings=timings,
            result_cache=result_cache,
            instance_cache=instance_cache,
            totals=totals,
        )
