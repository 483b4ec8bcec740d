"""Tests for the frozen CSR network snapshot and the GraphView protocol."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.network.builders import grid_network, random_geometric_network
from repro.network.compact import CompactNetwork, GraphView
from repro.network.graph import RoadNetwork
from repro.network.subgraph import (
    Rectangle,
    induced_subgraph,
    largest_component_subgraph,
    nodes_in_rectangle,
)


@pytest.fixture
def small_network() -> RoadNetwork:
    """A 5-node network with non-uniform lengths and a degree-0 node."""
    network = RoadNetwork()
    network.add_node(10, 0.0, 0.0)
    network.add_node(20, 3.0, 0.0)
    network.add_node(30, 3.0, 4.0)
    network.add_node(40, 0.0, 4.0)
    network.add_node(50, 10.0, 10.0)  # isolated
    network.add_edge(10, 20, 3.0)
    network.add_edge(20, 30, 4.0)
    network.add_edge(30, 40, 3.0)
    network.add_edge(40, 10, 4.0)
    network.add_edge(10, 30, 5.0)
    return network


class TestRoundTrip:
    """Tier-1 smoke: freezing must round-trip nodes / edges / lengths exactly."""

    def test_small_network_round_trips_exactly(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.num_nodes == small_network.num_nodes
        assert compact.num_edges == small_network.num_edges
        assert list(compact.node_ids()) == list(small_network.node_ids())
        for node in small_network.nodes():
            assert compact.coords(node.node_id) == (node.x, node.y)
            assert compact.node(node.node_id) == node
            assert compact.degree(node.node_id) == small_network.degree(node.node_id)
            assert list(compact.neighbor_items(node.node_id)) == list(
                small_network.neighbor_items(node.node_id)
            )
        assert {(e.u, e.v, e.length) for e in compact.edges()} == {
            (e.u, e.v, e.length) for e in small_network.edges()
        }

    def test_random_network_round_trips_exactly(self):
        network = random_geometric_network(num_nodes=150, extent=2000.0, seed=9)
        compact = CompactNetwork.from_network(network)
        thawed = compact.to_network()
        assert set(thawed.node_ids()) == set(network.node_ids())
        assert {(e.u, e.v, e.length) for e in thawed.edges()} == {
            (e.u, e.v, e.length) for e in network.edges()
        }
        for node_id in network.node_ids():
            assert compact.edge_length(
                node_id, next(iter(network.neighbors(node_id)))
            ) == network.edge_length(node_id, next(iter(network.neighbors(node_id))))

    def test_freeze_shorthand_and_idempotence(self, small_network):
        compact = small_network.freeze()
        assert isinstance(compact, CompactNetwork)
        assert CompactNetwork.from_network(compact) is compact

    def test_empty_network(self):
        compact = CompactNetwork.from_network(RoadNetwork())
        assert compact.num_nodes == 0
        assert compact.num_edges == 0
        assert compact.total_length() == 0.0
        assert compact.is_connected()
        with pytest.raises(GraphError):
            compact.bounding_box()


class TestProtocol:
    def test_both_backends_satisfy_graphview(self, small_network):
        assert isinstance(small_network, GraphView)
        assert isinstance(CompactNetwork.from_network(small_network), GraphView)

    def test_contains_and_membership(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.contains(10) and 10 in compact
        assert not compact.contains(999) and 999 not in compact
        assert len(compact) == 5


class TestReadApi:
    def test_edge_lookups(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.edge_length(10, 30) == 5.0
        assert compact.edge_length(30, 10) == 5.0
        assert compact.has_edge(20, 30)
        assert not compact.has_edge(20, 40)
        with pytest.raises(EdgeNotFoundError):
            compact.edge_length(20, 40)
        with pytest.raises(EdgeNotFoundError):
            compact.edge_length(999, 10)

    def test_unknown_node_raises(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        with pytest.raises(NodeNotFoundError):
            compact.node(999)
        with pytest.raises(NodeNotFoundError):
            compact.neighbor_items(999)
        with pytest.raises(NodeNotFoundError):
            compact.degree(999)

    def test_length_aggregates_match_dict_backend(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.total_length() == pytest.approx(small_network.total_length())
        assert compact.min_edge_length() == small_network.min_edge_length()
        assert compact.max_edge_length() == small_network.max_edge_length()
        assert compact.bounding_box() == small_network.bounding_box()
        assert compact.euclidean(10, 30) == pytest.approx(small_network.euclidean(10, 30))

    def test_traversal_matches_dict_backend(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.bfs_order(10) == small_network.bfs_order(10)
        assert sorted(map(sorted, compact.connected_components())) == sorted(
            map(sorted, small_network.connected_components())
        )
        assert compact.is_connected() == small_network.is_connected()


class TestWindowing:
    def test_window_view_equals_dict_induced_subgraph(self):
        network = random_geometric_network(num_nodes=300, extent=3000.0, seed=4)
        compact = CompactNetwork.from_network(network)
        rng = random.Random(17)
        for _ in range(10):
            cx, cy = rng.uniform(0, 3000), rng.uniform(0, 3000)
            side = rng.uniform(300, 1500)
            window = Rectangle.from_center(cx, cy, side, side)
            dict_sub = induced_subgraph(network, window)
            csr_sub = induced_subgraph(compact, window)
            assert isinstance(csr_sub, CompactNetwork)
            assert set(csr_sub.node_ids()) == set(dict_sub.node_ids())
            assert {(e.u, e.v, e.length) for e in csr_sub.edges()} == {
                (e.u, e.v, e.length) for e in dict_sub.edges()
            }
            assert set(nodes_in_rectangle(compact, window)) == set(
                nodes_in_rectangle(network, window)
            )

    def test_window_view_preserves_snapshot_order(self):
        network = grid_network(4, 4, spacing=1.0)
        compact = CompactNetwork.from_network(network)
        window = Rectangle(0.0, 0.0, 2.0, 2.0)
        view = compact.window_view(window)
        kept = [nid for nid in compact.node_ids() if nid in view]
        assert list(view.node_ids()) == kept

    def test_empty_window(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        view = compact.window_view(Rectangle(100.0, 100.0, 101.0, 101.0))
        assert view.num_nodes == 0
        assert view.num_edges == 0

    def test_subgraph_keeps_only_internal_edges(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        sub = compact.subgraph([10, 20, 30])
        assert set(sub.node_ids()) == {10, 20, 30}
        assert {(e.u, e.v) for e in sub.edges()} == {(10, 20), (20, 30), (10, 30)}

    def test_subgraph_unknown_node_raises(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        with pytest.raises(NodeNotFoundError):
            compact.subgraph([10, 999])

    def test_largest_component_on_compact(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        largest = largest_component_subgraph(compact)
        assert isinstance(largest, CompactNetwork)
        assert set(largest.node_ids()) == {10, 20, 30, 40}

    def test_nested_window_views(self):
        network = grid_network(6, 6, spacing=1.0)
        compact = CompactNetwork.from_network(network)
        outer = compact.window_view(Rectangle(0.0, 0.0, 4.0, 4.0))
        inner = outer.window_view(Rectangle(0.0, 0.0, 2.0, 2.0))
        direct = compact.window_view(Rectangle(0.0, 0.0, 2.0, 2.0))
        assert set(inner.node_ids()) == set(direct.node_ids())
        assert {(e.u, e.v, e.length) for e in inner.edges()} == {
            (e.u, e.v, e.length) for e in direct.edges()
        }


def _large_id_network(seed: int) -> RoadNetwork:
    """A random network whose ids are outside CPython's small-int cache, so
    int object identity is meaningful."""
    source = random_geometric_network(num_nodes=200, extent=2000.0, seed=seed)
    network = RoadNetwork()
    for node in source.nodes():
        network.add_node(10**9 + node.node_id, node.x, node.y)
    for edge in source.edges():
        network.add_edge(10**9 + edge.u, 10**9 + edge.v, edge.length)
    return network


class TestLazyMirrors:
    """Window views build their neighbour pairs lazily and share id ints."""

    @pytest.mark.parametrize("seed", [3, 8])
    def test_window_view_neighbor_items_and_edges_match_dict_backend(self, seed):
        network = _large_id_network(seed)
        compact = CompactNetwork.from_network(network)
        rng = random.Random(seed)
        for _ in range(6):
            window = Rectangle.from_center(rng.uniform(0, 2000), rng.uniform(0, 2000),
                                           rng.uniform(300, 1200), rng.uniform(300, 1200))
            view = compact.window_view(window)
            reference = induced_subgraph(network, window)
            # Traversal mirrors (what the dense solvers read) leave the pairs unbuilt.
            view.adjacency_arrays()
            assert view._nbr_pairs_list is None
            for node_id in reference.node_ids():
                assert list(view.neighbor_items(node_id)) == \
                    list(reference.neighbor_items(node_id))
            assert [(e.u, e.v, e.length) for e in view.edges()] == \
                [(e.u, e.v, e.length) for e in
                 CompactNetwork.from_network(reference).edges()]

    def test_pairs_built_on_first_neighbor_items_call_only(self):
        compact = CompactNetwork.from_network(_large_id_network(5))
        first = next(compact.node_ids())
        assert list(compact.edges())  # mirrors, no pairs
        assert compact._nbr_pairs_list is None
        items = list(compact.neighbor_items(first))
        assert compact._nbr_pairs_list is not None
        indptr, _, neighbor_ids, lengths, _ = compact.adjacency_arrays()
        row = compact.index_of(first)
        assert items == list(zip(neighbor_ids[indptr[row]:indptr[row + 1]],
                                 lengths[indptr[row]:indptr[row + 1]]))

    def test_view_ids_are_the_parents_int_objects(self):
        compact = CompactNetwork.from_network(_large_id_network(6))
        parent_ids = {id(node_id) for node_id in compact.node_ids()}
        outer = compact.window_view(Rectangle(0.0, 0.0, 1500.0, 1500.0))
        inner = outer.window_view(Rectangle(200.0, 200.0, 1000.0, 1000.0))
        for view in (outer, inner):
            _, _, neighbor_ids, _, ids = view.adjacency_arrays()
            assert ids and neighbor_ids
            assert {id(node_id) for node_id in ids} <= parent_ids
            assert {id(node_id) for node_id in neighbor_ids} <= parent_ids
            assert {id(node_id) for node_id, _ in
                    view.neighbor_items(ids[0])} <= parent_ids
            # Once built, a view no longer pins its parent.
            assert view._id_source is None
        # A pickled view rebuilds its ids from its own arrays, equal in value.
        restored = pickle.loads(pickle.dumps(inner))
        assert list(restored.node_ids()) == list(inner.node_ids())
        assert list(restored.edges()) == list(inner.edges())


class TestSnapshotSemantics:
    def test_pickle_round_trip(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        clone = pickle.loads(pickle.dumps(compact))
        assert list(clone.node_ids()) == list(compact.node_ids())
        assert {(e.u, e.v, e.length) for e in clone.edges()} == {
            (e.u, e.v, e.length) for e in compact.edges()
        }
        assert list(clone.neighbor_items(10)) == list(compact.neighbor_items(10))

    def test_snapshot_is_decoupled_from_later_mutation(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        small_network.add_node(60, 1.0, 1.0)
        small_network.add_edge(60, 10, 1.0)
        small_network.remove_edge(10, 30)
        assert 60 not in compact
        assert compact.has_edge(10, 30)
        assert compact.num_edges == 5

    def test_iteration_order_replicates_source(self):
        # Snapshot rows and per-row neighbour order must equal the source
        # network's iteration order — this is what makes traversal tie-breaking
        # backend-independent.
        network = RoadNetwork()
        for node_id in (5, 3, 9, 1):  # deliberately not sorted
            network.add_node(node_id, float(node_id), 0.0)
        network.add_edge(5, 9, 1.0)
        network.add_edge(5, 3, 1.0)
        network.add_edge(5, 1, 1.0)
        compact = CompactNetwork.from_network(network)
        assert list(compact.node_ids()) == [5, 3, 9, 1]
        assert [v for v, _ in compact.neighbor_items(5)] == [9, 3, 1]
