"""The anytime tier: budgets, policies, result quality, budgeted solvers.

Three contracts under test:

* **Byte-identity** — an instance with ``budget=None`` (or a far-future budget
  that never expires) solves exactly like today's code: same region, same
  weight; the only difference a live budget may add is the ``quality_*`` stats.
* **Truncation** — an already-expired budget makes Greedy/TGEN/Exact stop at
  their next checkpoint and return best-so-far with ``budget_expired`` set.
* **Admissible regret** — for every truncated run, the true optimal weight
  (from an unbudgeted Exact run) minus the achieved weight never exceeds the
  reported ``quality_regret_bound``.
"""

from __future__ import annotations

import time

import pytest

from repro.core import topk as topk_module
from repro.core.anytime import (
    Budget,
    QueryPolicy,
    ResultQuality,
    annotate_anytime_stats,
)
from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.tgen import TGENSolver

from tests.conftest import (
    PAPER_EXAMPLE_DELTA,
    PAPER_EXAMPLE_WEIGHTS,
    random_weighted_network,
)
from tests.core.dict_reference import DictGreedy, DictTGEN

SOLVERS = [GreedySolver(), TGENSolver(), ExactSolver(max_nodes=16)]


def expired_budget() -> Budget:
    """A budget whose deadline is already in the past, checked every call."""
    return Budget(deadline=time.perf_counter() - 1.0, check_interval=1)


def far_budget() -> Budget:
    """A budget that cannot expire during a test run."""
    return Budget(deadline=time.perf_counter() + 3600.0)


class TestBudget:
    def test_expired_latches_once_deadline_passes(self):
        budget = expired_budget()
        assert budget.expired() is True
        assert budget.expired() is True

    def test_check_interval_defers_the_clock_read(self):
        budget = Budget(deadline=time.perf_counter() - 1.0, check_interval=5)
        # The first four calls only decrement the counter.
        assert [budget.expired() for _ in range(4)] == [False] * 4
        assert budget.expired() is True

    def test_expired_now_ignores_the_interval(self):
        budget = Budget(deadline=time.perf_counter() - 1.0, check_interval=1000)
        assert budget.expired_now() is True

    def test_remaining_seconds_clamps_at_zero(self):
        assert expired_budget().remaining_seconds() == 0.0
        assert far_budget().remaining_seconds() > 3000.0

    def test_from_deadline_ms(self):
        budget = Budget.from_deadline_ms(50_000.0)
        assert not budget.expired_now()
        assert 49.0 < budget.remaining_seconds() <= 50.0

    def test_invalid_check_interval_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline=0.0, check_interval=0)


class TestQueryPolicy:
    def test_exact_is_the_default(self):
        assert QueryPolicy().is_exact
        assert QueryPolicy.parse(None) == QueryPolicy.exact()
        assert QueryPolicy.parse("") == QueryPolicy.exact()
        assert QueryPolicy.parse("exact") == QueryPolicy.exact()

    def test_parse_parenthesised_values(self):
        assert QueryPolicy.parse("anytime(200)") == QueryPolicy.anytime(200.0)
        assert QueryPolicy.parse("sampled(0.1)") == QueryPolicy.sampled(0.1)

    def test_explicit_arguments_override_parenthesised(self):
        assert QueryPolicy.parse("anytime(200)", deadline_ms=50.0) == QueryPolicy.anytime(50.0)
        assert QueryPolicy.parse("sampled", epsilon=0.25, seed=3) == QueryPolicy.sampled(0.25, seed=3)

    def test_parse_rejects_malformed_specs(self):
        for bad in ("anytime", "sampled", "anytime(", "anytime(abc)", "wat", "anytime)200("):
            with pytest.raises(ValueError):
                QueryPolicy.parse(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryPolicy("anytime")
        with pytest.raises(ValueError):
            QueryPolicy.anytime(0.0)
        with pytest.raises(ValueError):
            QueryPolicy.sampled(0.0)
        with pytest.raises(ValueError):
            QueryPolicy.sampled(1.0)
        with pytest.raises(ValueError):
            QueryPolicy(kind="nope")

    def test_normalisation_makes_equal_policies_hash_equal(self):
        assert QueryPolicy("exact", deadline_ms=None, seed=9) == QueryPolicy.exact()
        assert hash(QueryPolicy.anytime(200)) == hash(QueryPolicy.anytime(200.0))

    def test_cache_tokens_are_disjoint_and_exact_is_the_legacy_token(self):
        tokens = {
            QueryPolicy.exact().cache_token(),
            QueryPolicy.anytime(200.0).cache_token(),
            QueryPolicy.anytime(100.0).cache_token(),
            QueryPolicy.sampled(0.1).cache_token(),
            QueryPolicy.sampled(0.1, seed=1).cache_token(),
            QueryPolicy.sampled(0.2).cache_token(),
        }
        assert len(tokens) == 6
        assert QueryPolicy.exact().cache_token() == "exact"

    def test_str_round_trips_through_parse(self):
        for policy in (QueryPolicy.exact(), QueryPolicy.anytime(150.0), QueryPolicy.sampled(0.25)):
            assert QueryPolicy.parse(str(policy)) == policy


class TestResultQuality:
    def test_stats_round_trip(self):
        for quality in (
            ResultQuality("exact"),
            ResultQuality("anytime", regret_bound=1.5),
            ResultQuality("sampled", ci=0.25),
        ):
            assert ResultQuality.from_stats(quality.to_stats()) == quality

    def test_absent_and_unknown_codes_decode_to_none(self):
        assert ResultQuality.from_stats({}) is None
        assert ResultQuality.from_stats({"quality_kind": 99.0}) is None

    def test_annotate_is_a_noop_without_budget(self, paper_instance):
        stats = {"expansions": 3.0}
        annotate_anytime_stats(paper_instance, 1.0, stats)
        assert stats == {"expansions": 3.0}

    def test_annotate_reports_zero_regret_when_in_budget(self, paper_instance):
        instance = paper_instance.with_budget(far_budget())
        stats = {}
        annotate_anytime_stats(instance, 1.0, stats)
        assert stats["quality_regret_bound"] == 0.0

    def test_annotate_defaults_to_the_positive_mass_ceiling(self, paper_instance):
        instance = paper_instance.with_budget(expired_budget())
        stats = {"budget_expired": 1.0}
        annotate_anytime_stats(instance, 0.4, stats)
        ceiling = sum(w for w in instance.weights.values() if w > 0.0)
        assert stats["quality_regret_bound"] == pytest.approx(ceiling - 0.4)


class TestBudgetedSolvers:
    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.name)
    def test_far_budget_matches_unbudgeted_answer(self, paper_instance, solver):
        plain = solver.solve(paper_instance)
        budgeted = solver.solve(paper_instance.with_budget(far_budget()))
        assert budgeted.region.nodes == plain.region.nodes
        assert budgeted.weight == plain.weight
        assert budgeted.stats["quality_kind"] == 2.0
        assert budgeted.stats["quality_regret_bound"] == 0.0
        # The unbudgeted answer carries no quality entries at all.
        assert "quality_kind" not in plain.stats

    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", [2, 9, 23])
    def test_truncated_regret_bound_is_admissible(self, solver, seed):
        network, weights = random_weighted_network(seed)
        query = LCMSRQuery.create(["t"], delta=3.0)
        instance = build_instance(network, query, node_weights=weights)
        optimum = ExactSolver(max_nodes=32).solve(instance).weight
        truncated = solver.solve(instance.with_budget(expired_budget()))
        assert truncated.stats["quality_kind"] == 2.0
        bound = truncated.stats["quality_regret_bound"]
        assert optimum - truncated.weight <= bound + 1e-9

    @pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.name)
    def test_expired_budget_marks_the_run(self, paper_instance, solver):
        truncated = solver.solve(paper_instance.with_budget(expired_budget()))
        assert truncated.stats.get("budget_expired") == 1.0

    @pytest.mark.parametrize(
        "solver", [GreedySolver(), TGENSolver(), ExactSolver(max_nodes=16)],
        ids=lambda s: s.name,
    )
    def test_topk_far_budget_matches_unbudgeted(self, paper_instance, solver):
        plain = solver.solve_topk(paper_instance, 3)
        budgeted = solver.solve_topk(paper_instance.with_budget(far_budget()), 3)
        assert [r.region.nodes for r in budgeted] == [r.region.nodes for r in plain]
        assert [r.weight for r in budgeted] == [r.weight for r in plain]

    @pytest.mark.parametrize(
        "solver", [GreedySolver(), TGENSolver(), ExactSolver(max_nodes=16)],
        ids=lambda s: s.name,
    )
    def test_topk_truncation_still_returns_a_result_object(self, paper_instance, solver):
        truncated = solver.solve_topk(paper_instance.with_budget(expired_budget()), 3)
        assert truncated.stats.get("budget_expired") == 1.0

    @pytest.mark.parametrize("backend", ["dict", "dense"])
    def test_truncation_marks_both_backends(self, paper_instance, backend):
        # dict: the frozen dict-keyed oracles; dense: the production solvers
        # over the instance re-bound from its dense substrate.
        instance = paper_instance
        solvers = (GreedySolver(), TGENSolver())
        if backend == "dict":
            solvers = (DictGreedy(), DictTGEN())
        else:
            instance = instance.ensure_dense().to_problem_instance(instance.query)
        instance = instance.with_budget(expired_budget())
        for solver in solvers:
            truncated = solver.solve(instance)
            assert truncated.stats.get("budget_expired") == 1.0


class TestTopKProtocol:
    """Satellite: the SupportsTopK protocol matches every implementation."""

    @pytest.mark.parametrize(
        "solver",
        [APPSolver(), GreedySolver(), TGENSolver(), ExactSolver(max_nodes=16)],
        ids=lambda s: s.name,
    )
    def test_k_is_optional_everywhere(self, paper_instance, solver):
        import inspect

        parameter = inspect.signature(solver.solve_topk).parameters["k"]
        assert parameter.default is None
        # And the protocol's own declaration agrees.
        protocol_parameter = inspect.signature(
            topk_module.SupportsTopK.solve_topk
        ).parameters["k"]
        assert protocol_parameter.default is None

    def test_dispatcher_forwards_the_default(self, paper_instance):
        # k=None resolves to the query's own k (1 here).
        result = topk_module.solve_topk(GreedySolver(), paper_instance)
        assert len(result) <= 1
