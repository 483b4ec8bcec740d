"""Goemans–Williamson primal–dual prize-collecting Steiner tree (PCST).

Garg's 3-approximation for the (node-weighted) k-MST problem — the black-box solver
the paper's APP algorithm relies on (Section 4.2, reference [8]) — is built on the
Goemans–Williamson general approximation technique for constrained forest problems
(reference [9]). This module implements the unrooted GW moat-growing algorithm for the
prize-collecting Steiner tree problem, plus the "strong pruning" dynamic program that
extracts the best subtree of a GW tree. :mod:`repro.core.kmst` wraps these into the
quota solver (``find a tree with node weight at least X of small length``) used by
APP's binary search.

The implementation works on an abstract undirected graph given as an edge list, so it
can be run both on road networks directly and on the terminal metric-closure graphs
the quota solver builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import SolverError

_EPS = 1e-12


@dataclass
class PCSTResult:
    """The output of the GW growth phase plus pruning.

    Attributes:
        trees: Each tree as a ``(nodes, edges)`` pair, where ``edges`` is a list of
            ``(u, v, cost)`` triples. Trees are node-disjoint.
        total_prize: Sum of prizes of nodes covered by the trees.
        total_cost: Sum of edge costs of the trees.
    """

    trees: List[Tuple[Set[int], List[Tuple[int, int, float]]]]
    total_prize: float
    total_cost: float

    def best_tree(
        self, prizes: Mapping[int, float]
    ) -> Tuple[Set[int], List[Tuple[int, int, float]]]:
        """Return the tree with the largest collected prize (empty tree if none)."""
        if not self.trees:
            return (set(), [])
        return max(self.trees, key=lambda tree: sum(prizes.get(v, 0.0) for v in tree[0]))


def goemans_williamson_pcst(
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

    # Moat state over node positions. ``label[p]`` is the root position of
    # p's component (union by size, the smaller member list is relabelled);
    # ``members``, ``remaining`` and ``is_active`` are read at roots only.
    # ``active`` holds the active roots in the order union-find kept them
    # (a merged root goes last), which sets deactivation tie-breaks.
    position = {v: p for p, v in enumerate(node_list)}
    arcs = [(position[u], position[v], cost, (u, v, cost)) for u, v, cost in edges]
    label = list(range(len(node_list)))
    members: List[List[int]] = [[p] for p in label]
    remaining = [float(prizes.get(v, 0.0)) for v in node_list]
    is_active = [1 if prize > _EPS else 0 for prize in remaining]
    active: Dict[int, None] = dict.fromkeys(p for p in label if is_active[p])
    potential = [0.0] * len(node_list)

    forest_edges: List[Tuple[int, int, float]] = []
    # The growth loop: every iteration either merges two components or deactivates one,
    # so it runs at most 2 * |V| times.
    max_iterations = 2 * len(node_list) + 4
    for _ in range(max_iterations):
        active_roots = list(active)
        if not active_roots:
            break

        # Next edge event.
        best_edge_dt = math.inf
        best_edge: Optional[Tuple[int, int, Tuple[int, int, float]]] = None
        for u, v, cost, edge in arcs:
            ru = label[u]
            rv = label[v]
            if ru == rv:
                continue
            rate = is_active[ru] + is_active[rv]
            if rate == 0:
                continue
            slack = cost - potential[u] - potential[v]
            # ``max(0.0, slack)`` without the builtin call (same value, ±0 and NaN included).
            dt = (slack if slack > 0.0 else 0.0) / rate
            if dt < best_edge_dt - _EPS:
                best_edge_dt = dt
                best_edge = (u, v, edge)

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
            u, v, edge = best_edge
            ru, rv = label[u], label[v]
            forest_edges.append(edge)
            new_root, other = (rv, ru) if len(members[ru]) < len(members[rv]) else (ru, rv)
            for member in members[other]:
                label[member] = new_root
            members[new_root] = members[ru] + members[rv]
            remaining[new_root] = remaining[ru] + remaining[rv]
            is_active[new_root] = 1 if remaining[new_root] > _EPS else 0
            active.pop(ru, None)
            active.pop(rv, None)
            if is_active[new_root]:
                active[new_root] = None
        else:
            assert best_deact_root is not None
            del active[best_deact_root]
            is_active[best_deact_root] = 0
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


def _forest_components(
    nodes: Sequence[int], forest_edges: Sequence[Tuple[int, int, float]]
) -> List[Tuple[Set[int], List[Tuple[int, int, float]]]]:
    """Group forest edges into connected components (isolated nodes are skipped)."""
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for u, v, cost in forest_edges:
        adjacency.setdefault(u, []).append((v, cost))
        adjacency.setdefault(v, []).append((u, cost))
    seen: Set[int] = set()
    components: List[Tuple[Set[int], List[Tuple[int, int, float]]]] = []
    for start in adjacency:
        if start in seen:
            continue
        component_nodes: Set[int] = {start}
        component_edges: List[Tuple[int, int, float]] = []
        stack = [start]
        seen.add(start)
        while stack:
            current = stack.pop()
            for neighbor, cost in adjacency[current]:
                if (current, neighbor) < (neighbor, current):
                    component_edges.append((current, neighbor, cost))
                if neighbor not in seen:
                    seen.add(neighbor)
                    component_nodes.add(neighbor)
                    stack.append(neighbor)
        components.append((component_nodes, component_edges))
    return components


def strong_prune(
    tree_nodes: Set[int],
    tree_edges: Sequence[Tuple[int, int, float]],
    prizes: Mapping[int, float],
    root: Optional[int] = None,
) -> Tuple[Set[int], List[Tuple[int, int, float]]]:
    """Optimally prune a tree: keep the subtree maximising prize minus cost.

    This is the "strong pruning" dynamic program: rooted at the highest-prize node (or
    the given ``root``), a child subtree is kept only if its net value (collected prize
    minus the cost of reaching it) is positive. The result is connected and contains
    the root.

    Args:
        tree_nodes: Nodes of the tree.
        tree_edges: Edges of the tree as ``(u, v, cost)`` triples.
        prizes: Node prizes.
        root: Optional root; defaults to the node with the largest prize.

    Returns:
        ``(kept_nodes, kept_edges)``. If the tree is empty, returns empty sets.
    """
    if not tree_nodes:
        return (set(), [])
    adjacency: Dict[int, List[Tuple[int, float]]] = {v: [] for v in tree_nodes}
    for u, v, cost in tree_edges:
        adjacency[u].append((v, cost))
        adjacency[v].append((u, cost))
    if root is None:
        root = max(tree_nodes, key=lambda v: (prizes.get(v, 0.0), -v))

    # Iterative post-order DP to avoid recursion limits on path-like trees.
    parent: Dict[int, Optional[int]] = {root: None}
    parent_cost: Dict[int, float] = {}
    order: List[int] = []
    stack = [root]
    seen = {root}
    while stack:
        current = stack.pop()
        order.append(current)
        for neighbor, cost in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = current
                parent_cost[neighbor] = cost
                stack.append(neighbor)

    net_value: Dict[int, float] = {}
    kept_children: Dict[int, List[int]] = {v: [] for v in tree_nodes}
    for v in reversed(order):
        value = float(prizes.get(v, 0.0))
        for neighbor, cost in adjacency[v]:
            if parent.get(neighbor) == v:
                child_gain = net_value[neighbor] - cost
                if child_gain > _EPS:
                    value += child_gain
                    kept_children[v].append(neighbor)
        net_value[v] = value

    kept_nodes: Set[int] = set()
    kept_edges: List[Tuple[int, int, float]] = []
    stack = [root]
    while stack:
        current = stack.pop()
        kept_nodes.add(current)
        for child in kept_children[current]:
            kept_edges.append((current, child, parent_cost[child]))
            stack.append(child)
    return (kept_nodes, kept_edges)
