"""Result types returned by the LCMSR solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.region import Region


@dataclass(frozen=True, slots=True)
class RegionResult:
    """The answer to one LCMSR query by one solver.

    Attributes:
        region: The returned region (possibly :meth:`Region.empty` when nothing in the
            query window matches the keywords).
        algorithm: Name of the solver that produced the result ("APP", "TGEN",
            "Greedy", "Exact", ...).
        runtime_seconds: Wall-clock solve time, measured inside the solver.
        scaled_weight: The region's scaled weight ŝ, when the solver scales weights
            (APP, TGEN); ``None`` for Greedy and Exact.
        stats: Free-form solver statistics (iterations, tuples generated, k-MST calls,
            ...). Values are numbers so results can be tabulated directly.
    """

    region: Region
    algorithm: str
    runtime_seconds: float = 0.0
    scaled_weight: Optional[int] = None
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def weight(self) -> float:
        """The region's total weight (0 for an empty result)."""
        return self.region.weight

    @property
    def length(self) -> float:
        """The region's total length (0 for an empty result)."""
        return self.region.length

    @property
    def is_empty(self) -> bool:
        """``True`` when no region was found."""
        return self.region.is_empty


@dataclass(frozen=True)
class TopKResult:
    """The answer to a top-k LCMSR query.

    Attributes:
        results: The k best regions found, in decreasing score order (may contain
            fewer than k entries when the window does not hold k distinct regions).
        algorithm: Name of the solver.
        runtime_seconds: Wall-clock solve time for the whole top-k computation.
        stats: Free-form solver statistics for the whole top-k computation
            (skip/visit counters from bound-based pruning, ...). Values are
            numbers so results can be tabulated directly.
    """

    results: Sequence[RegionResult]
    algorithm: str
    runtime_seconds: float = 0.0
    stats: Dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> RegionResult:
        return self.results[index]

    @property
    def best(self) -> Optional[RegionResult]:
        """The highest-ranked region, or ``None`` when empty."""
        return self.results[0] if self.results else None

    def weights(self) -> List[float]:
        """The weights of the returned regions, in rank order."""
        return [result.weight for result in self.results]
