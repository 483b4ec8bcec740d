"""Anytime/approximate query tier: budgets, policies, result quality.

Three small pieces shared across the solver and serving layers:

``Budget``
    A cooperative deadline. Solver hot loops call :meth:`Budget.expired`
    at natural checkpoints (Greedy: per expansion round, TGEN: per edge,
    Exact: per subset considered); the call is a counter decrement on the
    fast path and only touches the clock every ``check_interval`` calls.
    When the deadline passes the solver stops where it is and returns its
    best-so-far region together with an admissible regret bound.

``QueryPolicy``
    The per-query service level: ``exact`` (today's byte-identical path),
    ``anytime(deadline_ms)`` (budgeted solve, best-so-far + regret bound)
    or ``sampled(epsilon)`` (node weights estimated from a seeded sample
    of the postings, answers carry a confidence interval). Policies parse
    from the CLI spelling (``"anytime(200)"``) and render a canonical
    ``cache_token`` so approximate results are cached under keys an exact
    lookup can never hit.

``ResultQuality``
    What an approximate answer knows about itself: the policy kind, an
    admissible regret bound (anytime) and a CI half-width (sampled).
    ``RegionResult.stats`` values must be plain numbers so results can be
    tabulated, so quality round-trips through ``to_stats``/``from_stats``
    as ``quality_*`` entries instead of riding along as an object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "Budget",
    "QueryPolicy",
    "ResultQuality",
    "POLICY_KINDS",
    "annotate_anytime_stats",
]

POLICY_KINDS = ("exact", "anytime", "sampled")

# Numeric encoding of the policy kind for RegionResult.stats (values must be
# numbers). 0 is reserved for "absent" so stats lacking quality entries decode
# to None rather than a phantom exact-quality record.
_KIND_CODES = {"exact": 1.0, "anytime": 2.0, "sampled": 3.0}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


#: Target wall-clock gap between two deadline checks. The adaptive window in
#: :meth:`Budget.expired` aims the next clock read roughly this far out, so the
#: worst-case deadline overshoot is about one resolution plus one iteration —
#: regardless of how expensive the caller's iterations are.
CHECK_RESOLUTION_SECONDS = 1e-3


class Budget:
    """Cooperative deadline checked cheaply from solver hot loops.

    ``expired()`` decrements a counter and only reads the clock once per
    check window, so sprinkling it through a tight loop costs a few
    nanoseconds per iteration. The window adapts to the measured per-call
    cost: it starts at ``check_interval`` calls (the cap) and shrinks so
    consecutive clock reads land about :data:`CHECK_RESOLUTION_SECONDS`
    apart — a solver with microsecond iterations keeps the full interval
    while one with millisecond iterations re-checks every call. Once the
    deadline has passed the budget latches: every subsequent call returns
    True without touching the clock.
    """

    __slots__ = ("deadline", "check_interval", "_countdown", "_window",
                 "_last_check", "_expired")

    def __init__(self, deadline: float, check_interval: int = 64) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.deadline = float(deadline)
        self.check_interval = int(check_interval)
        self._window = int(check_interval)
        self._countdown = int(check_interval)
        self._last_check = time.perf_counter()
        self._expired = False

    @staticmethod
    def from_deadline_ms(deadline_ms: float, check_interval: int = 64) -> "Budget":
        """Budget expiring ``deadline_ms`` milliseconds from now."""
        return Budget(time.perf_counter() + deadline_ms / 1000.0,
                      check_interval=check_interval)

    def expired(self) -> bool:
        if self._expired:
            return True
        self._countdown -= 1
        if self._countdown > 0:
            return False
        now = time.perf_counter()
        if now >= self.deadline:
            self._expired = True
            return True
        # Size the next window from the measured per-call cost so the next
        # clock read lands about CHECK_RESOLUTION_SECONDS out, capped at
        # check_interval. Inside the final resolution of the deadline, check
        # every call — the overshoot is then bounded by one iteration.
        per_call = (now - self._last_check) / self._window
        self._last_check = now
        if self.deadline - now < CHECK_RESOLUTION_SECONDS:
            self._window = 1
        elif per_call > 0.0:
            self._window = min(self.check_interval,
                               max(1, int(CHECK_RESOLUTION_SECONDS / per_call)))
        else:
            self._window = self.check_interval
        self._countdown = self._window
        return False

    def expired_now(self) -> bool:
        """Check the clock immediately (no interval), e.g. between phases."""
        if not self._expired and time.perf_counter() >= self.deadline:
            self._expired = True
        return self._expired

    def remaining_seconds(self) -> float:
        return max(0.0, self.deadline - time.perf_counter())


@dataclass(frozen=True)
class QueryPolicy:
    """Per-query service level. Hashable and picklable (crosses the gateway).

    ``kind`` is one of :data:`POLICY_KINDS`. ``deadline_ms`` applies to
    ``anytime``, ``epsilon``/``seed`` to ``sampled``; irrelevant knobs are
    normalised to ``None``/0 in ``__post_init__`` so equal policies compare
    and hash equal regardless of how they were spelled.
    """

    kind: str = "exact"
    deadline_ms: Optional[float] = None
    epsilon: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.kind == "anytime":
            if self.deadline_ms is None or self.deadline_ms <= 0:
                raise ValueError("anytime policy requires deadline_ms > 0")
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))
            object.__setattr__(self, "epsilon", None)
            object.__setattr__(self, "seed", 0)
        elif self.kind == "sampled":
            if self.epsilon is None or not 0.0 < self.epsilon < 1.0:
                raise ValueError("sampled policy requires 0 < epsilon < 1")
            object.__setattr__(self, "epsilon", float(self.epsilon))
            object.__setattr__(self, "deadline_ms", None)
            object.__setattr__(self, "seed", int(self.seed))
        else:  # exact
            object.__setattr__(self, "deadline_ms", None)
            object.__setattr__(self, "epsilon", None)
            object.__setattr__(self, "seed", 0)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def exact() -> "QueryPolicy":
        return QueryPolicy("exact")

    @staticmethod
    def anytime(deadline_ms: float) -> "QueryPolicy":
        return QueryPolicy("anytime", deadline_ms=deadline_ms)

    @staticmethod
    def sampled(epsilon: float, seed: int = 0) -> "QueryPolicy":
        return QueryPolicy("sampled", epsilon=epsilon, seed=seed)

    @staticmethod
    def parse(text: Optional[str], deadline_ms: Optional[float] = None,
              epsilon: Optional[float] = None, seed: int = 0) -> "QueryPolicy":
        """Parse the CLI spelling.

        Accepts ``"exact"``, ``"anytime"``/``"anytime(200)"`` and
        ``"sampled"``/``"sampled(0.1)"``; explicit ``deadline_ms``/``epsilon``
        arguments fill in (and override) the parenthesised value. ``None``
        or ``""`` means exact.
        """
        if text is None or text == "":
            return QueryPolicy.exact()
        spec = text.strip().lower()
        arg: Optional[float] = None
        if "(" in spec:
            if not spec.endswith(")"):
                raise ValueError(f"malformed policy {text!r}")
            spec, _, inner = spec.partition("(")
            try:
                arg = float(inner[:-1])
            except ValueError:
                raise ValueError(f"malformed policy argument in {text!r}")
        if spec == "exact":
            return QueryPolicy.exact()
        if spec == "anytime":
            value = deadline_ms if deadline_ms is not None else arg
            if value is None:
                raise ValueError("anytime policy needs a deadline: "
                                 "'anytime(<ms>)' or --deadline-ms")
            return QueryPolicy.anytime(value)
        if spec == "sampled":
            value = epsilon if epsilon is not None else arg
            if value is None:
                raise ValueError("sampled policy needs an epsilon: "
                                 "'sampled(<eps>)' or --epsilon")
            return QueryPolicy.sampled(value, seed=seed)
        raise ValueError(
            f"unknown policy {text!r}; expected one of {POLICY_KINDS}")

    # -- identity ----------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def cache_token(self) -> str:
        """Canonical string for cache keys.

        ``exact`` maps to the fixed token ``"exact"`` — the default on
        existing keys — so exact lookups before and after this change hit
        the same entries, while every approximate policy gets a disjoint
        token (``anytime:200.0`` / ``sampled:0.1:s0``).
        """
        if self.kind == "exact":
            return "exact"
        if self.kind == "anytime":
            return f"anytime:{self.deadline_ms!r}"
        return f"sampled:{self.epsilon!r}:s{self.seed}"

    def __str__(self) -> str:
        if self.kind == "anytime":
            return f"anytime({self.deadline_ms:g})"
        if self.kind == "sampled":
            return f"sampled({self.epsilon:g})"
        return "exact"


@dataclass(frozen=True)
class ResultQuality:
    """Self-reported quality of an (approximate) answer.

    ``regret_bound`` — admissible upper bound on how much weight the returned
    region can be missing versus the best the solver would have found
    unbudgeted (anytime runs; 0.0 when the run finished in budget). The unit
    is raw σ_v, the unit of ``RegionResult.weight``, not the θ-scaled
    integers of the APP and TGEN tuple arrays.
    ``ci`` — 95% confidence half-width on the returned region's weight
    (sampled runs). Either may be None when not applicable.
    """

    kind: str = "exact"
    regret_bound: Optional[float] = None
    ci: Optional[float] = None

    def to_stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = {"quality_kind": _KIND_CODES[self.kind]}
        if self.regret_bound is not None:
            stats["quality_regret_bound"] = float(self.regret_bound)
        if self.ci is not None:
            stats["quality_ci"] = float(self.ci)
        return stats

    @staticmethod
    def from_stats(stats: Dict[str, float]) -> Optional["ResultQuality"]:
        code = stats.get("quality_kind")
        if code is None:
            return None
        kind = _CODE_KINDS.get(float(code))
        if kind is None:
            return None
        return ResultQuality(
            kind=kind,
            regret_bound=stats.get("quality_regret_bound"),
            ci=stats.get("quality_ci"),
        )


def annotate_anytime_stats(instance, achieved: float, stats: Dict[str, float],
                           regret_bound: Optional[float] = None) -> None:
    """Fold anytime ResultQuality entries into a solver stats dict.

    No-op for budget-free instances (the exact path stays literally unchanged).
    When the run was truncated (``stats["budget_expired"]`` set by the hot
    loop), the regret bound is ``regret_bound`` if the solver derived a tighter
    one (Exact's open-branch gap), else the trivial admissible ceiling
    ``Σ max(σ_v, 0) − achieved``: no region can weigh more than the sum of all
    positive node weights in the window — this is
    ``positive_suffix_potentials(weights)[0]`` (see
    :func:`repro.core.bounds.positive_suffix_potentials`). A run that finished
    within budget reports regret 0.
    """
    if instance.budget is None:
        return
    if stats.get("budget_expired", 0.0) > 0.0:
        if regret_bound is None:
            ceiling = sum(w for w in instance.weights.values() if w > 0.0)
            regret_bound = max(0.0, ceiling - achieved)
        else:
            regret_bound = max(0.0, regret_bound)
    else:
        regret_bound = 0.0
    stats.update(ResultQuality("anytime", regret_bound=regret_bound).to_stats())
