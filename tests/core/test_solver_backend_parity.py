"""Seeded cross-backend parity: dense-substrate solvers vs the dict reference.

The dense solver substrate (:mod:`repro.core.dense`) is required to be a pure
representation change: for every solver, every scoring mode, and windowed as
well as window-less queries, the results must be **byte-identical** to the dict
reference backend — same regions, same tie-breaks, bit-equal floats. This is
the solver-layer counterpart of PR 2's network-backend and PR 4's
weight-backend parity suites.

The suite runs the full indexed path (dataset → ``IndexBundle`` → engine →
``build_instance`` with the columnar pipeline, which attaches the dense
substrate) and compares ``solve`` / ``solve_topk`` under
``with_backend("dict")`` vs ``with_backend("dense")``. Exact runs on a tiny
window and additionally exercises the dense-first route (an instance created
from the substrate alone, with the dict view materialised lazily).
"""

from __future__ import annotations

import math

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.network.subgraph import Rectangle
from repro.service.bundle import IndexBundle
from repro.textindex.relevance import ScoringMode

SEED = 23
MODES = [
    ScoringMode.TEXT_RELEVANCE,
    ScoringMode.RATING_IF_MATCH,
    ScoringMode.LANGUAGE_MODEL,
]


@pytest.fixture(scope="module")
def dataset():
    return build_ny_like(
        rows=14, cols=14, block_size=120.0, num_objects=420, num_clusters=6, seed=SEED
    )


@pytest.fixture(scope="module", params=MODES, ids=lambda mode: mode.value)
def engine(request, dataset):
    bundle = IndexBundle.build(
        dataset.network, dataset.corpus, grid_resolution=16, scoring_mode=request.param
    )
    return LCMSREngine.from_bundle(bundle)


@pytest.fixture(scope="module")
def workload(dataset):
    windowed = generate_workload(
        dataset, num_queries=3, num_keywords=3, delta=700.0, area_km2=0.5, seed=SEED
    )
    return windowed + [query.with_region(None) for query in windowed]


def _assert_identical(result_a, result_b, context):
    assert result_a.region.nodes == result_b.region.nodes, context
    assert result_a.region.edges == result_b.region.edges, context
    assert result_a.weight == result_b.weight, context  # bit-equal, no approx
    assert result_a.length == result_b.length, context
    assert result_a.scaled_weight == result_b.scaled_weight, context


class TestHeuristicSolverParity:
    @pytest.mark.parametrize(
        "make_solver",
        [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_solve_is_byte_identical(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload:
            instance = engine.build_instance(query)
            assert instance.dense is not None, "pipeline path must attach the substrate"
            a = solver.solve(instance.with_backend("dict"))
            b = solver.solve(instance.with_backend("dense"))
            _assert_identical(a, b, (solver.name, query.keywords, query.region))

    @pytest.mark.parametrize(
        "make_solver", [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_topk_is_byte_identical(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload[:3]:
            instance = engine.build_instance(query)
            topk_dict = solver.solve_topk(instance.with_backend("dict"), k=3)
            topk_dense = solver.solve_topk(instance.with_backend("dense"), k=3)
            assert len(topk_dict.results) == len(topk_dense.results)
            for a, b in zip(topk_dict.results, topk_dense.results):
                _assert_identical(a, b, (solver.name, query.keywords))


class _PollBudget:
    """Deterministic budget stub: expires on poll ``limit + 1`` and latches."""

    def __init__(self, limit: float) -> None:
        self.limit = limit
        self.polls = 0

    def expired(self) -> bool:
        self.polls += 1
        return self.polls > self.limit


def _tgen_stats(result):
    return {key: result.stats.get(key) for key in
            ("tuples_generated", "edges_processed", "budget_expired")}


class TestTGENPackedParity:
    """The packed TGEN loop against the dict reference on every code path:
    array eviction, length edge order, ranked top-k pools and budget expiry."""

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_tuple_cap_eviction(self, engine, workload, cap):
        solver = TGENSolver(max_tuples_per_node=cap)
        for query in workload:
            instance = engine.build_instance(query).with_pruning("off")
            a = solver.solve(instance.with_backend("dict"))
            b = solver.solve(instance.with_backend("dense"))
            _assert_identical(a, b, (cap, query.keywords, query.region))
            assert _tgen_stats(a) == _tgen_stats(b)

    def test_length_edge_order(self, engine, workload):
        solver = TGENSolver(edge_order="length")
        for query in workload:
            instance = engine.build_instance(query).with_pruning("off")
            a = solver.solve(instance.with_backend("dict"))
            b = solver.solve(instance.with_backend("dense"))
            _assert_identical(a, b, (query.keywords, query.region))
            assert _tgen_stats(a) == _tgen_stats(b)

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("cap", [None, 2])
    def test_topk_full_ranking(self, engine, workload, k, cap):
        solver = TGENSolver(max_tuples_per_node=cap)
        for query in workload:
            instance = engine.build_instance(query)
            ranked_dict = solver.solve_topk(instance.with_backend("dict"), k=k).results
            ranked_dense = solver.solve_topk(instance.with_backend("dense"), k=k).results
            assert len(ranked_dict) == len(ranked_dense)
            for rank, (a, b) in enumerate(zip(ranked_dict, ranked_dense)):
                _assert_identical(a, b, (k, cap, rank, query.keywords, query.region))

    def test_budget_expiry_stops_on_the_same_edge(self, engine, workload):
        solver = TGENSolver()
        for query in workload:
            instance = engine.build_instance(query).with_pruning("off")
            full = _PollBudget(math.inf)
            solver.solve(instance.with_backend("dict").with_budget(full))
            for limit in sorted({0, 1, full.polls // 7, full.polls // 3,
                                 (2 * full.polls) // 3, full.polls - 1}):
                budgets = _PollBudget(limit), _PollBudget(limit)
                a = solver.solve(instance.with_backend("dict").with_budget(budgets[0]))
                b = solver.solve(instance.with_backend("dense").with_budget(budgets[1]))
                context = (limit, full.polls, query.keywords, query.region)
                _assert_identical(a, b, context)
                assert budgets[0].polls == budgets[1].polls == limit + 1, context
                assert _tgen_stats(a) == _tgen_stats(b), context
                assert a.stats["budget_expired"] == 1.0, context


class TestExactParity:
    def _tiny_window_instance(self, engine, dataset):
        # A window of ~2 blocks keeps the node count within Exact's reach.
        for anchor in (600.0, 900.0, 1200.0):
            region = Rectangle(anchor, anchor, anchor + 260.0, anchor + 260.0)
            query_keywords = ["restaurant", "cafe", "bar"]
            from repro.core.query import LCMSRQuery

            query = LCMSRQuery.create(query_keywords, delta=400.0, region=region)
            instance = engine.build_instance(query)
            if 0 < instance.num_candidate_nodes <= 16 and instance.has_relevant_nodes:
                return instance
        pytest.skip("no tiny window with relevant nodes in this dataset")

    def test_exact_is_byte_identical_on_tiny_windows(self, engine, dataset):
        instance = self._tiny_window_instance(engine, dataset)
        solver = ExactSolver(max_nodes=16)
        a = solver.solve(instance.with_backend("dict"))
        b = solver.solve(instance.with_backend("dense"))
        _assert_identical(a, b, "exact")
        # Dense-first route: the instance rebuilt from the substrate alone
        # (lazy dict view) must match too — this is what the serving layer's
        # substrate cache hands to the dict-consuming Exact oracle.
        rebound = instance.dense.to_problem_instance(instance.query)
        c = solver.solve(rebound)
        _assert_identical(a, c, "exact-dense-first")
        topk_a = solver.solve_topk(instance.with_backend("dict"), k=3)
        topk_c = solver.solve_topk(rebound, k=3)
        assert len(topk_a.results) == len(topk_c.results)
        for ra, rb in zip(topk_a.results, topk_c.results):
            _assert_identical(ra, rb, "exact-topk")


class TestDenseFirstRebindParity:
    """The serving layer rebinding path: substrate → instance → solver."""

    @pytest.mark.parametrize(
        "make_solver", [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_rebound_instances_solve_identically(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload[:2]:
            instance = engine.build_instance(query)
            rebound = instance.dense.to_problem_instance(query)
            a = solver.solve(instance.with_backend("dict"))
            b = solver.solve(rebound)
            _assert_identical(a, b, (solver.name, query.keywords))
            assert list(rebound.weights.items()) == list(instance.weights.items())
