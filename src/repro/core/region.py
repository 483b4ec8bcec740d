"""Regions: connected subgraphs of the road network (paper Definition 2).

A :class:`Region` is the result type returned to users. It records its node set, its
edge set, its total road-segment length and its total weight with respect to the query
it answers. Construction validates connectivity and length consistency, so a region
handed to application code is always well-formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.exceptions import RegionError
from repro.network.compact import GraphView
from repro.network.graph import edge_key


@dataclass(frozen=True, slots=True)
class Region:
    """A connected subgraph of the road network with query-dependent weight.

    Attributes:
        nodes: The region's node identifiers (``R.V``).
        edges: The region's undirected edges as normalised ``(u, v)`` pairs (``R.E``).
        length: Total road-segment length of the region's edges.
        weight: Total weight ``Score(R, Q)`` of the region's nodes w.r.t. the query.
    """

    nodes: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]
    length: float
    weight: float

    # ------------------------------------------------------------------ constructors
    @staticmethod
    def from_nodes_edges(
        graph: GraphView,
        nodes: Iterable[int],
        edges: Iterable[Tuple[int, int]],
        weights: Mapping[int, float],
        validate: bool = True,
    ) -> "Region":
        """Build a region from explicit node and edge sets.

        Args:
            graph: The road network the region lives in (used for edge lengths and
                validation).
            nodes: Node identifiers of the region.
            edges: Edges of the region, as ``(u, v)`` pairs in either orientation.
            weights: Per-node query weights σ_v; missing nodes contribute 0.
            validate: When ``True`` (default), verify the region is a connected
                subgraph of ``graph`` whose edges connect region nodes.

        Raises:
            RegionError: If validation fails.
        """
        node_set = frozenset(nodes)
        edge_set = frozenset(edge_key(u, v) for u, v in edges)
        length = 0.0
        for u, v in edge_set:
            if validate and not graph.has_edge(u, v):
                raise RegionError(f"edge ({u}, {v}) is not in the road network")
            if validate and (u not in node_set or v not in node_set):
                raise RegionError(f"edge ({u}, {v}) has an endpoint outside the region")
            length += graph.edge_length(u, v)
        weight = sum(weights.get(node_id, 0.0) for node_id in node_set)
        region = Region(nodes=node_set, edges=edge_set, length=length, weight=weight)
        if validate:
            region.validate(graph)
        return region

    @staticmethod
    def single_node(node_id: int, weight: float) -> "Region":
        """Build a region consisting of a single node (length 0)."""
        return Region(frozenset({node_id}), frozenset(), 0.0, weight)

    @staticmethod
    def empty() -> "Region":
        """Build the empty region (no nodes, weight 0). Returned when nothing matches."""
        return Region(frozenset(), frozenset(), 0.0, 0.0)

    # ------------------------------------------------------------------ inspection
    @property
    def is_empty(self) -> bool:
        """``True`` if the region contains no nodes."""
        return not self.nodes

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the region."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of edges in the region."""
        return len(self.edges)

    def contains_node(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` is part of the region."""
        return node_id in self.nodes

    def is_connected(self) -> bool:
        """Return ``True`` if the region's nodes are connected through its edges.

        The empty region and single-node regions are connected by convention.
        """
        if len(self.nodes) <= 1:
            return True
        adjacency: Dict[int, Set[int]] = {node: set() for node in self.nodes}
        for u, v in self.edges:
            if u in adjacency and v in adjacency:
                adjacency[u].add(v)
                adjacency[v].add(u)
        start = next(iter(self.nodes))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return len(seen) == len(self.nodes)

    def is_tree(self) -> bool:
        """Return ``True`` if the region is a tree (connected and |E| = |V| - 1)."""
        if self.is_empty:
            return True
        return self.is_connected() and len(self.edges) == len(self.nodes) - 1

    def validate(self, graph: GraphView) -> None:
        """Verify the region is a connected subgraph of ``graph``.

        Raises:
            RegionError: On any violation (unknown node/edge, dangling edge endpoint,
                disconnected node set, or a length that does not match the sum of the
                edge lengths).
        """
        for node_id in self.nodes:
            if node_id not in graph:
                raise RegionError(f"region node {node_id} is not in the road network")
        total = 0.0
        for u, v in self.edges:
            if not graph.has_edge(u, v):
                raise RegionError(f"region edge ({u}, {v}) is not in the road network")
            if u not in self.nodes or v not in self.nodes:
                raise RegionError(f"region edge ({u}, {v}) has an endpoint outside the region")
            total += graph.edge_length(u, v)
        if abs(total - self.length) > 1e-6 * max(1.0, abs(total)):
            raise RegionError(
                f"region length {self.length} does not match its edges' total {total}"
            )
        if not self.is_connected():
            raise RegionError("region is not connected")

    def satisfies(self, delta: float) -> bool:
        """Return ``True`` if the region's length is within the constraint ``delta``."""
        return self.length <= delta + 1e-9

    def overlap_nodes(self, other: "Region") -> int:
        """Return the number of nodes shared with another region."""
        return len(self.nodes & other.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Region(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"length={self.length:.3f}, weight={self.weight:.3f})"
        )
