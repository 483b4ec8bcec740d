"""Tests for problem-instance construction (windowing + weight sources)."""

from __future__ import annotations

import pytest

from repro.core import APPSolver, LCMSRQuery, TGENSolver, build_instance
from repro.core.instance import ProblemInstance
from repro.exceptions import QueryError
from repro.network.compact import CompactNetwork
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle
from repro.objects.mapping import map_objects_to_network
from repro.index.grid import GridIndex
from repro.textindex.relevance import RelevanceScorer

from tests.conftest import (
    PAPER_EXAMPLE_DELTA,
    PAPER_EXAMPLE_OPTIMUM_NODES,
    PAPER_EXAMPLE_OPTIMUM_WEIGHT,
    PAPER_EXAMPLE_WEIGHTS,
    make_small_corpus,
)


@pytest.fixture
def indexed_setup():
    network = grid_network(4, 4, spacing=100.0)
    corpus = make_small_corpus()
    mapping = map_objects_to_network(network, corpus)
    grid = GridIndex(corpus, resolution=4)
    scorer = RelevanceScorer(corpus, mapping)
    return network, corpus, mapping, grid, scorer


class TestWeightSources:
    def test_requires_exactly_one_source(self, indexed_setup):
        network, _, mapping, grid, scorer = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        with pytest.raises(QueryError):
            build_instance(network, query)
        with pytest.raises(QueryError):
            build_instance(network, query, grid_index=grid, mapping=mapping, scorer=scorer)
        with pytest.raises(QueryError):
            build_instance(network, query, grid_index=grid)  # mapping missing

    def test_grid_and_scorer_paths_agree(self, indexed_setup):
        network, _, mapping, grid, scorer = indexed_setup
        query = LCMSRQuery.create(["cafe", "coffee"], delta=300.0)
        via_grid = build_instance(network, query, grid_index=grid, mapping=mapping)
        via_scorer = build_instance(network, query, scorer=scorer)
        assert set(via_grid.weights) == set(via_scorer.weights)
        for node_id, weight in via_grid.weights.items():
            assert weight == pytest.approx(via_scorer.weights[node_id])

    def test_explicit_node_weights_filtered_to_window(self, indexed_setup):
        network, *_ = indexed_setup
        query = LCMSRQuery.create(["x"], delta=300.0, region=Rectangle(0, 0, 150, 150))
        instance = build_instance(
            network, query, node_weights={0: 1.0, 15: 2.0, 5: 0.0}
        )
        assert 0 in instance.weights
        assert 15 not in instance.weights  # outside the window
        assert 5 not in instance.weights  # zero weight dropped


class TestStrayWeightKeys:
    """A weight key outside the graph is rejected, never scaled into σmax and θ.

    On the Figure 2 graph, a stray ``{999: 50.0}`` used to make σmax 50, so
    θ-scaling rounded every real node's weight down and TGEN returned {2, 6}
    (weight 0.7) and APP an empty region instead of {2, 4, 5, 6} (weight 1.1).
    """

    @pytest.mark.parametrize("freeze", [False, True], ids=["dict", "csr"])
    def test_constructor_rejects_a_key_outside_the_graph(self, paper_graph, freeze):
        graph = CompactNetwork.from_network(paper_graph) if freeze else paper_graph
        query = LCMSRQuery.create(["t"], delta=PAPER_EXAMPLE_DELTA)
        with pytest.raises(QueryError):
            ProblemInstance(graph, {**PAPER_EXAMPLE_WEIGHTS, 999: 50.0}, query)

    @pytest.mark.parametrize("make_solver", [TGENSolver, APPSolver], ids=["tgen", "app"])
    def test_in_graph_weights_answer_the_paper_example(self, paper_graph, make_solver):
        query = LCMSRQuery.create(["t"], delta=PAPER_EXAMPLE_DELTA)
        instance = ProblemInstance(paper_graph, dict(PAPER_EXAMPLE_WEIGHTS), query)
        result = make_solver().solve(instance)
        assert result.region.nodes == PAPER_EXAMPLE_OPTIMUM_NODES
        assert result.weight == pytest.approx(PAPER_EXAMPLE_OPTIMUM_WEIGHT)


class TestWindowing:
    def test_window_restricts_graph(self, indexed_setup):
        network, _, mapping, grid, _ = indexed_setup
        window = Rectangle(0, 0, 150, 150)
        query = LCMSRQuery.create(["cafe"], delta=300.0, region=window)
        instance = build_instance(network, query, grid_index=grid, mapping=mapping)
        assert instance.num_candidate_nodes == 4
        assert instance.num_candidate_edges == 4
        assert all(node_id in instance.graph for node_id in instance.weights)

    def test_no_window_uses_whole_network(self, indexed_setup):
        network, _, mapping, grid, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, grid_index=grid, mapping=mapping)
        assert instance.num_candidate_nodes == network.num_nodes

    def test_no_window_shares_graph_read_only(self, indexed_setup):
        # A window-less instance must reuse the given graph object, not deep-copy
        # it: solvers treat instance graphs as read-only.
        network, _, mapping, grid, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, grid_index=grid, mapping=mapping)
        assert instance.graph is network

    def test_window_on_compact_network_yields_compact_view(self, indexed_setup):
        from repro.network.compact import CompactNetwork

        network, _, mapping, grid, _ = indexed_setup
        snapshot = CompactNetwork.from_network(network)
        window = Rectangle(0, 0, 150, 150)
        query = LCMSRQuery.create(["cafe"], delta=300.0, region=window)
        dict_instance = build_instance(network, query, grid_index=grid, mapping=mapping)
        csr_instance = build_instance(snapshot, query, grid_index=grid, mapping=mapping)
        assert isinstance(csr_instance.graph, CompactNetwork)
        assert csr_instance.weights == dict_instance.weights
        assert set(csr_instance.graph.node_ids()) == set(dict_instance.graph.node_ids())


class TestDerivedFacts:
    def test_sigma_and_totals(self, indexed_setup):
        network, _, mapping, grid, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, grid_index=grid, mapping=mapping)
        assert instance.has_relevant_nodes
        assert instance.sigma_max() == max(instance.weights.values())
        assert instance.total_weight() == pytest.approx(sum(instance.weights.values()))
        assert instance.relevant_nodes() == set(instance.weights)
        assert instance.weight_of(-99) == 0.0

    def test_restricted_to(self, indexed_setup):
        network, _, mapping, grid, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, grid_index=grid, mapping=mapping)
        some_node = next(iter(instance.weights))
        restricted = instance.restricted_to([some_node])
        assert restricted.num_candidate_nodes == 1
        assert set(restricted.weights) == {some_node}
