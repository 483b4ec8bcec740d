"""Tests for the TGEN tuple-generation algorithm."""

from __future__ import annotations

import random

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.core.tgen import TGENSolver, _PackedPool, _rank_distinct
from repro.core.tuples import RegionTuple
from repro.exceptions import SolverError
from repro.network.builders import grid_network, paper_example_network, path_network

from tests.core.dict_reference import _pool_add
from tests.conftest import (
    PAPER_EXAMPLE_DELTA,
    PAPER_EXAMPLE_OPTIMUM_NODES,
    PAPER_EXAMPLE_OPTIMUM_WEIGHT,
    PAPER_EXAMPLE_WEIGHTS,
)


class TestParameterValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(SolverError):
            TGENSolver(alpha=0.0)

    def test_edge_order_validated(self):
        with pytest.raises(SolverError):
            TGENSolver(edge_order="random")

    def test_auto_alpha_scales_with_window(self, paper_instance):
        solver = TGENSolver()
        assert solver.alpha is None
        effective = solver._effective_alpha(paper_instance)
        assert effective == pytest.approx(6 / TGENSolver.AUTO_BUCKETS)


class TestEndToEnd:
    def test_paper_example_optimum_recovered(self, paper_instance):
        result = TGENSolver(alpha=0.15).solve(paper_instance)
        assert result.region.nodes == PAPER_EXAMPLE_OPTIMUM_NODES
        assert result.weight == pytest.approx(PAPER_EXAMPLE_OPTIMUM_WEIGHT)
        assert result.scaled_weight == 110  # Example 3's region tuple

    def test_figure3_drawback_scenario(self):
        """The Figure 3 query: keywords {t1, t2}, Δ = 3.5 -> region {v2, v3}.

        The clustering strawman splits v2 and v3 into different clusters; TGEN must
        return exactly that cross-cluster region.
        """
        graph = paper_example_network()
        # Only v2 (t2, t3) and v3 (t1, t4) are relevant to {t1, t2}.
        weights = {2: 0.5, 3: 0.5}
        query = LCMSRQuery.create(["t1", "t2"], delta=5.0)
        instance = build_instance(graph, query, node_weights=weights)
        result = TGENSolver(alpha=0.15).solve(instance)
        assert result.region.nodes == frozenset({2, 3})

    def test_result_always_feasible_and_connected(self, paper_graph):
        for delta in (0.0, 2.0, 3.5, 5.0, 6.0, 12.0):
            query = LCMSRQuery.create(["t"], delta=delta)
            instance = build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
            result = TGENSolver(alpha=0.15).solve(instance)
            assert result.region.satisfies(delta)
            result.region.validate(paper_graph)

    def test_no_relevant_nodes(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = build_instance(paper_graph, query, node_weights={})
        assert TGENSolver().solve(instance).is_empty

    def test_monotone_in_delta(self, paper_graph):
        """A larger budget can never produce a lighter region."""
        weights = PAPER_EXAMPLE_WEIGHTS
        previous = -1.0
        for delta in (0.0, 1.6, 3.0, 4.4, 5.9, 8.0, 14.0):
            query = LCMSRQuery.create(["t"], delta=delta)
            instance = build_instance(paper_graph, query, node_weights=weights)
            weight = TGENSolver(alpha=0.05).solve(instance).weight
            assert weight >= previous - 1e-9
            previous = weight

    def test_disconnected_window_handled(self):
        """TGEN restarts its BFS in every component (Algorithm 2's outer loop)."""
        network = path_network(3, edge_length=1.0)
        network.add_node(10, 100.0, 0.0)
        network.add_node(11, 101.0, 0.0)
        network.add_edge(10, 11, 1.0)
        weights = {0: 0.2, 1: 0.2, 10: 0.9, 11: 0.9}
        query = LCMSRQuery.create(["t"], delta=1.5)
        instance = build_instance(network, query, node_weights=weights)
        result = TGENSolver(alpha=0.1).solve(instance)
        assert result.region.nodes == frozenset({10, 11})

    def test_edge_longer_than_delta_skipped(self):
        network = path_network(2, edge_length=10.0)
        weights = {0: 0.5, 1: 0.5}
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = build_instance(network, query, node_weights=weights)
        result = TGENSolver(alpha=0.1).solve(instance)
        assert result.region.num_nodes == 1

    def test_length_edge_order_gives_similar_quality(self, paper_instance):
        bfs = TGENSolver(alpha=0.15, edge_order="bfs").solve(paper_instance)
        by_length = TGENSolver(alpha=0.15, edge_order="length").solve(paper_instance)
        assert by_length.weight == pytest.approx(bfs.weight)

    def test_tuple_cap_trades_accuracy(self):
        """A tiny per-node tuple cap cannot beat the uncapped run (ablation invariant)."""
        network = grid_network(4, 4, spacing=1.0)
        weights = {i: 0.1 + 0.05 * (i % 5) for i in range(16)}
        query = LCMSRQuery.create(["t"], delta=6.0)
        instance = build_instance(network, query, node_weights=weights)
        full = TGENSolver(alpha=0.2).solve(instance)
        capped = TGENSolver(alpha=0.2, max_tuples_per_node=2).solve(instance)
        assert capped.weight <= full.weight + 1e-9

    def test_coarser_alpha_reduces_tuple_count(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=6.0)
        instance = build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
        fine = TGENSolver(alpha=0.05).solve(instance)
        coarse = TGENSolver(alpha=3.0).solve(instance)
        assert coarse.stats["tuples_generated"] <= fine.stats["tuples_generated"]


class TestPackedPool:
    """The packed top-k pool replays the oracle's list pool ``_pool_add`` exactly."""

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_matches_reference_pool(self, size):
        rng = random.Random(f"packed-pool-{size}")
        for _ in range(40):
            reference, reference_keys = [], set()
            packed = _PackedPool(size)
            for _ in range(rng.randint(0, 300)):
                # Few distinct node sets and coarse values: duplicates of a node
                # set with a different rank, and exact rank ties, are common.
                mask = rng.randint(1, 63)
                nodes = frozenset(b for b in range(6) if mask >> b & 1)
                length = float(rng.randint(0, 4))
                weight = rng.choice([0.5, 1.0, 1.5])
                scaled = rng.randint(0, 3)
                _pool_add(reference, reference_keys,
                          RegionTuple(length, weight, scaled, nodes, frozenset()), size)
                packed.add((length, weight, scaled, mask, tuple(sorted(nodes)), 0))
            expected = [(t.length, t.weight, t.scaled_weight, t.nodes)
                        for t in _rank_distinct(reference, size)]
            actual = [(t[0], t[1], t[2], frozenset(t[4])) for t in packed.ranked()]
            assert actual == expected
