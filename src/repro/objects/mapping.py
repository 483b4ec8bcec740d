"""Mapping geo-textual objects onto road-network nodes.

The paper maps every crawled object to its nearest node on the road network (Section
7.1) and notes the algorithms could also handle objects on edge interiors. We
reproduce the nearest-node mapping with a uniform-grid accelerated nearest-neighbour
search and keep, per node, the list of objects assigned to it — the structure every
solver uses to compute node weights for a query.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import DatasetError, GraphError
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject


@dataclass
class NodeObjectMap:
    """The result of mapping a corpus onto a network.

    Attributes:
        node_to_objects: For each node id, the object ids mapped to that node (only
            nodes with at least one object appear).
        object_to_node: For each object id, the node id it was mapped to.
    """

    node_to_objects: Dict[int, List[int]] = field(default_factory=dict)
    object_to_node: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_assignment(
        cls, objects: Iterable[GeoTextualObject], node_of: Mapping[int, int]
    ) -> "NodeObjectMap":
        """Record a known object → node assignment, in ``objects`` order.

        Builds the same structure (including dict insertion order) that
        :func:`map_objects_to_network` builds for ``objects`` when ``node_of``
        holds the nodes it would pick — without any nearest-node search.

        Raises:
            DatasetError: If an object has no entry in ``node_of``.
        """
        mapping = cls()
        for obj in objects:
            try:
                node_id = node_of[obj.object_id]
            except KeyError:
                raise DatasetError(
                    f"object {obj.object_id} has no node in the given assignment"
                ) from None
            mapping.object_to_node[obj.object_id] = node_id
            mapping.node_to_objects.setdefault(node_id, []).append(obj.object_id)
        return mapping

    def objects_at(self, node_id: int) -> List[int]:
        """Return the object ids mapped to ``node_id`` (empty list if none)."""
        return self.node_to_objects.get(node_id, [])

    def node_of(self, object_id: int) -> int:
        """Return the node an object was mapped to; raises if the object is unmapped."""
        try:
            return self.object_to_node[object_id]
        except KeyError:
            raise DatasetError(f"object {object_id} has not been mapped to a node") from None

    def nodes_with_objects(self) -> List[int]:
        """Return the node ids that carry at least one object."""
        return list(self.node_to_objects.keys())

    @property
    def num_mapped(self) -> int:
        """Number of mapped objects."""
        return len(self.object_to_node)


class _PointGrid:
    """Uniform grid over node embeddings for nearest-node queries.

    The grid cell size defaults to the average nearest-neighbour spacing estimate
    ``extent / sqrt(n)``, which keeps the expected number of candidates per probe
    constant for roughly uniform node distributions (true of road networks).
    """

    def __init__(self, network: RoadNetwork, cell_size: Optional[float] = None) -> None:
        if network.num_nodes == 0:
            raise GraphError("cannot build a point grid over an empty network")
        self._network = network
        min_x, min_y, max_x, max_y = network.bounding_box()
        extent = max(max_x - min_x, max_y - min_y, 1e-9)
        if cell_size is None:
            cell_size = max(extent / max(1.0, math.sqrt(network.num_nodes)), 1e-9)
        self._cell = cell_size
        self._origin = (min_x, min_y)
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for node in network.nodes():
            self._cells[self._cell_of(node.x, node.y)].append(node.node_id)

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (
            int((x - self._origin[0]) // self._cell),
            int((y - self._origin[1]) // self._cell),
        )

    def nearest(self, x: float, y: float) -> int:
        """Return the node id closest to ``(x, y)`` (ties broken by node id)."""
        cx, cy = self._cell_of(x, y)
        best_id = -1
        best_dist = math.inf
        ring = 0
        # Expand square rings of cells until a candidate is found, then one extra ring
        # to make sure no closer node hides in a neighbouring ring.
        while True:
            candidates: List[int] = []
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    candidates.extend(self._cells.get((cx + dx, cy + dy), ()))
            for node_id in candidates:
                node = self._network.node(node_id)
                dist = (node.x - x) ** 2 + (node.y - y) ** 2
                if dist < best_dist or (dist == best_dist and node_id < best_id):
                    best_dist = dist
                    best_id = node_id
            if best_id >= 0 and ring > 0:
                # One extra ring beyond the first hit guards against grid-boundary
                # effects; the ring distance lower bound then exceeds the best match.
                ring_lower_bound = (ring - 1) * self._cell
                if ring_lower_bound * ring_lower_bound > best_dist:
                    return best_id
            ring += 1
            if ring > 2 * int(math.sqrt(len(self._cells))) + 4 and best_id >= 0:
                return best_id


def nearest_node(network: RoadNetwork, x: float, y: float) -> int:
    """Return the id of the network node nearest to ``(x, y)`` (linear scan fallback).

    For repeated queries use :func:`map_objects_to_network`, which builds a grid once.
    """
    best_id = -1
    best_dist = math.inf
    for node in network.nodes():
        dist = (node.x - x) ** 2 + (node.y - y) ** 2
        if dist < best_dist or (dist == best_dist and node.node_id < best_id):
            best_dist = dist
            best_id = node.node_id
    if best_id < 0:
        raise GraphError("cannot find the nearest node in an empty network")
    return best_id


def map_objects_to_network(
    network: RoadNetwork,
    corpus: ObjectCorpus | Iterable[GeoTextualObject],
) -> NodeObjectMap:
    """Map every object in ``corpus`` to its nearest network node.

    Args:
        network: The road network (must be non-empty).
        corpus: An :class:`ObjectCorpus` or any iterable of objects.

    Returns:
        A :class:`NodeObjectMap` recording the assignment in both directions.
    """
    grid = _PointGrid(network)
    mapping = NodeObjectMap()
    for obj in corpus:
        node_id = grid.nearest(obj.x, obj.y)
        mapping.object_to_node[obj.object_id] = node_id
        mapping.node_to_objects.setdefault(node_id, []).append(obj.object_id)
    return mapping
