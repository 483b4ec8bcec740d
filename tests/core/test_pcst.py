"""Tests for the Goemans-Williamson PCST primal-dual and strong pruning."""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import pytest

from repro.core.pcst import (
    _EPS,
    PCSTResult,
    _forest_components,
    goemans_williamson_pcst,
    strong_prune,
)
from repro.exceptions import SolverError


class TestStrongPrune:
    def test_empty_tree(self):
        assert strong_prune(set(), [], {}) == (set(), [])

    def test_keeps_profitable_branch(self):
        # 1 -(1)- 2 -(1)- 3 ; prizes 5, 0, 5 -> everything is worth keeping.
        nodes = {1, 2, 3}
        edges = [(1, 2, 1.0), (2, 3, 1.0)]
        prizes = {1: 5.0, 3: 5.0}
        kept_nodes, kept_edges = strong_prune(nodes, edges, prizes)
        assert kept_nodes == {1, 2, 3}
        assert len(kept_edges) == 2

    def test_prunes_unprofitable_branch(self):
        # A worthless leaf hanging off an expensive edge must be cut.
        nodes = {1, 2, 3}
        edges = [(1, 2, 1.0), (2, 3, 10.0)]
        prizes = {1: 5.0, 2: 5.0, 3: 0.5}
        kept_nodes, _ = strong_prune(nodes, edges, prizes)
        assert kept_nodes == {1, 2}

    def test_explicit_root_always_kept(self):
        nodes = {1, 2}
        edges = [(1, 2, 100.0)]
        prizes = {1: 0.0, 2: 50.0}
        kept_nodes, _ = strong_prune(nodes, edges, prizes, root=1)
        assert 1 in kept_nodes
        assert 2 not in kept_nodes  # reaching the prize costs more than it is worth

    def test_result_is_connected_tree(self):
        nodes = set(range(7))
        # A star with mixed-value leaves.
        edges = [(0, i, float(i)) for i in range(1, 7)]
        prizes = {i: (10.0 if i % 2 == 0 else 0.1) for i in range(7)}
        kept_nodes, kept_edges = strong_prune(nodes, edges, prizes)
        assert 0 in kept_nodes
        assert len(kept_edges) == len(kept_nodes) - 1


class TestGoemansWilliamson:
    def test_empty_graph(self):
        result = goemans_williamson_pcst([], [], {})
        assert result.trees == []
        assert result.total_prize == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(SolverError):
            goemans_williamson_pcst([1, 2], [(1, 2, -1.0)], {})
        with pytest.raises(SolverError):
            goemans_williamson_pcst([1], [], {1: -2.0})

    def test_isolated_prizes_become_single_node_trees(self):
        result = goemans_williamson_pcst([1, 2, 3], [], {1: 1.0, 3: 2.0})
        covered = {node for tree in result.trees for node in tree[0]}
        assert covered == {1, 3}
        assert all(edges == [] for _, edges in result.trees)

    def test_cheap_edge_between_high_prizes_is_taken(self):
        # Two valuable nodes connected cheaply must end up in one tree.
        result = goemans_williamson_pcst(
            [1, 2], [(1, 2, 1.0)], {1: 10.0, 2: 10.0}
        )
        best_nodes, best_edges = result.best_tree({1: 10.0, 2: 10.0})
        assert best_nodes == {1, 2}
        assert len(best_edges) == 1

    def test_expensive_edge_between_low_prizes_is_not_taken(self):
        result = goemans_williamson_pcst(
            [1, 2], [(1, 2, 100.0)], {1: 1.0, 2: 1.0}
        )
        for nodes, edges in result.trees:
            assert edges == []

    def test_chain_collects_prizes_along_the_way(self):
        nodes = [1, 2, 3, 4]
        edges = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        prizes = {1: 5.0, 2: 0.5, 3: 0.5, 4: 5.0}
        result = goemans_williamson_pcst(nodes, edges, prizes)
        best_nodes, _ = result.best_tree(prizes)
        assert best_nodes == {1, 2, 3, 4}

    def test_trees_are_valid_trees(self):
        nodes = list(range(9))
        # 3x3 grid with unit costs and one strong prize cluster in a corner.
        edges = []
        for r in range(3):
            for c in range(3):
                nid = r * 3 + c
                if c + 1 < 3:
                    edges.append((nid, nid + 1, 1.0))
                if r + 1 < 3:
                    edges.append((nid, nid + 3, 1.0))
        prizes = {0: 4.0, 1: 4.0, 3: 4.0, 8: 0.2}
        result = goemans_williamson_pcst(nodes, edges, prizes)
        for tree_nodes, tree_edges in result.trees:
            assert len(tree_edges) == len(tree_nodes) - 1 or (
                len(tree_nodes) == 1 and not tree_edges
            )
            for u, v, _ in tree_edges:
                assert u in tree_nodes and v in tree_nodes

    def test_larger_prizes_extend_coverage(self):
        """Scaling all prizes up monotonically grows what GW+pruning keeps."""
        nodes = list(range(6))
        edges = [(i, i + 1, 2.0) for i in range(5)]
        base = {i: 1.0 for i in range(6)}
        small = goemans_williamson_pcst(nodes, edges, base)
        big = goemans_williamson_pcst(nodes, edges, {i: 10.0 for i in range(6)})
        covered_small = max((len(t[0]) for t in small.trees), default=0)
        covered_big = max((len(t[0]) for t in big.trees), default=0)
        assert covered_big >= covered_small
        assert covered_big == 6


# ---------------------------------------------------------------------------
# Frozen reference: the union-find GW moat growth as it stood before the
# label-array rewrite, kept word for word as the byte-identity oracle for
# ``goemans_williamson_pcst``. Do not edit.
# ---------------------------------------------------------------------------
class _DisjointSet:
    """Union-find over integer node ids with path compression and union by size."""

    def __init__(self, nodes: Iterable[int]) -> None:
        self._parent: Dict[int, int] = {v: v for v in nodes}
        self._size: Dict[int, int] = {v: 1 for v in self._parent}

    def find(self, v: int) -> int:
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra


def reference_goemans_williamson_pcst(
    nodes: Iterable[int],
    edges: Sequence[Tuple[int, int, float]],
    prizes: Mapping[int, float],
) -> PCSTResult:
    """Run unrooted GW moat growing followed by strong pruning.

    Args:
        nodes: The graph's node identifiers.
        edges: Undirected edges as ``(u, v, cost)`` triples with non-negative costs.
        prizes: Non-negative node prizes; missing nodes have prize 0.

    Returns:
        A :class:`PCSTResult` whose trees are the strong-pruned components of the GW
        forest. Single high-prize nodes appear as single-node trees.

    Raises:
        SolverError: On negative edge costs or prizes.
    """
    node_list = list(dict.fromkeys(nodes))
    if not node_list:
        return PCSTResult(trees=[], total_prize=0.0, total_cost=0.0)
    for u, v, cost in edges:
        if cost < 0:
            raise SolverError(f"negative edge cost on ({u}, {v}): {cost}")
    for v, prize in prizes.items():
        if prize < 0:
            raise SolverError(f"negative prize on node {v}: {prize}")

    components = _DisjointSet(node_list)
    # Per-component state, keyed by current representative.
    active: Dict[int, bool] = {}
    remaining: Dict[int, float] = {}
    members: Dict[int, List[int]] = {}
    for v in node_list:
        prize = float(prizes.get(v, 0.0))
        active[v] = prize > _EPS
        remaining[v] = prize
        members[v] = [v]
    potential: Dict[int, float] = {v: 0.0 for v in node_list}

    forest_edges: List[Tuple[int, int, float]] = []
    # The growth loop: every iteration either merges two components or deactivates one,
    # so it runs at most 2 * |V| times.
    max_iterations = 2 * len(node_list) + 4
    for _ in range(max_iterations):
        active_roots = [r for r, flag in active.items() if flag]
        if not active_roots:
            break

        # Next edge event.
        best_edge_dt = math.inf
        best_edge: Optional[Tuple[int, int, float]] = None
        for u, v, cost in edges:
            ru, rv = components.find(u), components.find(v)
            if ru == rv:
                continue
            rate = (1 if active.get(ru, False) else 0) + (1 if active.get(rv, False) else 0)
            if rate == 0:
                continue
            slack = cost - potential[u] - potential[v]
            dt = max(0.0, slack) / rate
            if dt < best_edge_dt - _EPS:
                best_edge_dt = dt
                best_edge = (u, v, cost)

        # Next deactivation event.
        best_deact_dt = math.inf
        best_deact_root: Optional[int] = None
        for root in active_roots:
            if remaining[root] < best_deact_dt - _EPS:
                best_deact_dt = remaining[root]
                best_deact_root = root

        dt = min(best_edge_dt, best_deact_dt)
        if not math.isfinite(dt):
            break

        # Advance time: grow every active moat by dt.
        if dt > 0:
            for root in active_roots:
                remaining[root] -= dt
                for member in members[root]:
                    potential[member] += dt

        if best_edge is not None and best_edge_dt <= best_deact_dt + _EPS:
            u, v, cost = best_edge
            ru, rv = components.find(u), components.find(v)
            if ru != rv:
                forest_edges.append((u, v, cost))
                new_root = components.union(ru, rv)
                other = rv if new_root == ru else ru
                merged_remaining = remaining[ru] + remaining[rv]
                merged_members = members[ru] + members[rv]
                merged_active = merged_remaining > _EPS
                for stale in (ru, rv):
                    active.pop(stale, None)
                    remaining.pop(stale, None)
                    members.pop(stale, None)
                active[new_root] = merged_active
                remaining[new_root] = merged_remaining
                members[new_root] = merged_members
        else:
            assert best_deact_root is not None
            active[best_deact_root] = False
            remaining[best_deact_root] = 0.0

    # Split the forest into its connected components and strong-prune each.
    trees = _forest_components(node_list, forest_edges)
    pruned: List[Tuple[Set[int], List[Tuple[int, int, float]]]] = []
    covered: Set[int] = set()
    for tree_nodes, tree_edges in trees:
        kept_nodes, kept_edges = strong_prune(tree_nodes, tree_edges, prizes)
        if kept_nodes:
            pruned.append((kept_nodes, kept_edges))
            covered |= kept_nodes
    # Isolated nodes with positive prize are valid single-node trees.
    for v in node_list:
        if v not in covered and prizes.get(v, 0.0) > _EPS:
            pruned.append(({v}, []))
            covered.add(v)

    total_prize = sum(prizes.get(v, 0.0) for tree in pruned for v in tree[0])
    total_cost = sum(cost for tree in pruned for _, _, cost in tree[1])
    return PCSTResult(trees=pruned, total_prize=total_prize, total_cost=total_cost)


def _random_instance(rng: random.Random, case: str):
    """A seeded random PCST instance of one of the tie-heavy families."""
    n = rng.randint(1, 18)
    nodes = rng.sample(range(1000), n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                if case == "equal":
                    cost = 2.0
                elif case == "near":
                    cost = 1.0 + rng.randint(0, 3) * 1e-13
                elif case == "integral":
                    cost = float(rng.randint(1, 4))
                elif case == "zero":
                    cost = rng.choice([0.0, 0.0, 1.0, rng.uniform(0.0, 3.0)])
                else:
                    cost = rng.uniform(0.0, 5.0)
                edges.append((nodes[i], nodes[j], cost))
    rng.shuffle(edges)
    prizes = {}
    for v in nodes:
        if case == "equal":
            prizes[v] = rng.choice([0.0, 1.5])
        elif case == "integral":
            prizes[v] = float(rng.randint(0, 2))
        elif case == "near":
            prizes[v] = 0.75 + rng.randint(0, 2) * 1e-13
        else:
            prizes[v] = rng.choice([0.0, rng.uniform(0.0, 4.0)])
    if case == "isolated":
        # Extra nodes that no edge touches, some of them with prizes.
        extra = [1000 + i for i in range(rng.randint(1, 4))]
        nodes += extra
        prizes.update({v: rng.choice([0.0, 2.0]) for v in extra})
    return nodes, edges, prizes


def _bits(value) -> Tuple[type, str]:
    """A float's exact bits (sums over no terms stay the int 0)."""
    return type(value), float(value).hex()


class TestGoemansWilliamsonOracle:
    """The label-array moat growth is byte-identical to the union-find oracle."""

    @pytest.mark.parametrize("case", ["equal", "integral", "near", "zero", "isolated", "random"])
    def test_matches_frozen_union_find_reference(self, case):
        rng = random.Random(f"gw-oracle-{case}")
        for _ in range(150):
            nodes, edges, prizes = _random_instance(rng, case)
            expected = reference_goemans_williamson_pcst(nodes, edges, prizes)
            actual = goemans_williamson_pcst(nodes, edges, prizes)
            assert [t[0] for t in actual.trees] == [t[0] for t in expected.trees]
            assert [t[1] for t in actual.trees] == [t[1] for t in expected.trees]
            assert _bits(actual.total_prize) == _bits(expected.total_prize)
            assert _bits(actual.total_cost) == _bits(expected.total_cost)
