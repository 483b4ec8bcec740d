"""The dense problem-instance substrate: position-indexed solver input.

Greedy, TGEN and APP's quota solver traverse the query window only through
:class:`DenseInstance`. It renumbers the window into contiguous *local
positions* and stores everything a solver's hot loop needs as flat arrays
indexed by position, so no loop hashes a global node id per hop:

* ``ids``            — local position → global node id (int64), in window order;
* ``xs / ys``        — node coordinates (float64), aligned with ``ids``;
* ``indptr``         — CSR row pointers (int32), one entry per node plus one;
* ``indices``        — CSR columns as **local positions** (int32);
* ``lengths``        — edge lengths (float64), aligned with ``indices``;
* ``sigma``          — σ_v per position (float64; 0.0 for irrelevant nodes);
* ``relevant_order`` — positions of the weighted nodes in *weight-dict
  iteration order* (int32) — the key to the identity contract below.

On top of the arrays the instance precomputes the aggregates the solvers would
otherwise rescan the weight dict for: ``sigma_max``, ``total_weight``, the
relevant positions, and the window's ``tau_max`` (longest edge).

**Identity contract.** The substrate is a *representation* of the paper's
id-keyed algorithms, not a change to them: the solvers return byte-identical
results to the frozen dict-keyed reference loops the parity suites keep as a
test oracle (same regions, same tie-breaks, bit-equal floats). Three properties
make that possible and are load-bearing:

1. **Order preservation** — local positions follow the window graph's node
   iteration order, and per-row neighbour order replicates ``neighbor_items``;
   traversals therefore visit nodes and edges in exactly the reference order.
2. **Dict-order replay** — ``relevant_order`` records the iteration order of
   the source weight dict (the columnar pipeline's node-table order on the hot
   path), so :meth:`weights_dict` re-materialises a dict whose items iterate
   identically, and order-sensitive float accumulations (``total_weight``)
   replay the reference summation order.
3. **Same arithmetic** — vectorised kernels keep the reference expression
   trees (IEEE-754 elementwise ops are exact), so ranks, scaled weights and
   length checks land on the same bits.

Instances are immutable after construction, cheap to share across threads, and
pickle down to their defining arrays (the serving layer caches them instead of
full :class:`~repro.core.instance.ProblemInstance` objects — smaller, and no
per-entry graph copies).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import QueryError
from repro.network.compact import CompactNetwork, GraphView

if TYPE_CHECKING:  # pragma: no cover - typing only (instance imports dense)
    from repro.core.instance import ProblemInstance
    from repro.core.query import LCMSRQuery


_OUTSIDE_GRAPH = "node weights reference nodes outside the window graph"


def check_weight_keys(graph: GraphView, weights: Mapping[int, float]) -> None:
    """Reject weight keys that are not nodes of ``graph``.

    The rule :meth:`DenseInstance.from_graph` enforces, for instances whose
    substrate is built later: a key outside the graph would otherwise enter
    σmax and the scaling factor θ before any solver sees the graph.

    Raises:
        QueryError: If a weight key is not a node of ``graph``.
    """
    if not all(graph.contains(node_id) for node_id in weights):
        raise QueryError(_OUTSIDE_GRAPH)


class DenseInstance:
    """A window-local, position-indexed view of one solver input.

    Built from a frozen window snapshot plus a node-weight dict — see
    :meth:`from_graph` — and treated as read-only everywhere afterwards.
    """

    __slots__ = (
        "ids",
        "xs",
        "ys",
        "indptr",
        "indices",
        "lengths",
        "sigma",
        "relevant_order",
        "sigma_max",
        "total_weight",
        "tau_max",
        "_relevant_positions",
        "_graph",
        "_ids_list",
        "_sigma_list",
        "_position_of",
    )

    def __init__(
        self,
        ids: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        lengths: np.ndarray,
        sigma: np.ndarray,
        relevant_order: np.ndarray,
        graph: Optional[CompactNetwork] = None,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.indptr = np.asarray(indptr, dtype=np.int32)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.lengths = np.asarray(lengths, dtype=np.float64)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.relevant_order = np.asarray(relevant_order, dtype=np.int32)
        n = self.ids.shape[0]
        if self.sigma.shape[0] != n:
            raise QueryError("sigma must align with the node table")
        if self.indptr.shape[0] != n + 1:
            raise QueryError("indptr must have num_nodes + 1 entries")
        # Aggregates replay the reference computations exactly: max over floats
        # is exact regardless of order; the total replays the weight-dict
        # iteration order because Python's sum() is sequential.
        if self.relevant_order.size:
            ordered = self.sigma[self.relevant_order]
            self.sigma_max = float(ordered.max())
            self.total_weight = sum(ordered.tolist())
        else:
            self.sigma_max = 0.0
            self.total_weight = 0.0
        self.tau_max = float(self.lengths.max()) if self.lengths.size else 0.0
        self._relevant_positions: Optional[np.ndarray] = None
        self._graph = graph
        self._ids_list: Optional[List[int]] = None
        self._sigma_list: Optional[List[float]] = None
        self._position_of: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_graph(
        cls, graph: GraphView, weights: Mapping[int, float]
    ) -> "DenseInstance":
        """Build the dense substrate for ``graph`` + ``weights``.

        The fast path — a :class:`~repro.network.compact.CompactNetwork` window
        view — shares the snapshot's six arrays and maps the weight keys to
        positions with one vectorised searchsorted; any other
        :class:`~repro.network.compact.GraphView` (a dict-backed
        :class:`~repro.network.graph.RoadNetwork`) is frozen first.

        Raises:
            QueryError: If a weight key is not a node of ``graph`` (instances
                built by :func:`~repro.core.instance.build_instance` always
                satisfy this).
        """
        compact = (
            graph
            if isinstance(graph, CompactNetwork)
            else CompactNetwork.from_network(graph)
        )
        ids, xs, ys = compact.csr_node_arrays()
        indptr, indices, lengths = compact.csr_index_arrays()
        n = ids.shape[0]
        sigma = np.zeros(n, dtype=np.float64)
        if weights:
            keys = np.fromiter(weights.keys(), dtype=np.int64, count=len(weights))
            values = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
            order, sorted_ids = compact.id_sort_order()
            slots = np.searchsorted(sorted_ids, keys)
            if (slots >= n).any() or (sorted_ids[np.minimum(slots, n - 1)] != keys).any():
                raise QueryError(_OUTSIDE_GRAPH)
            positions = order[slots].astype(np.int32, copy=False)
            sigma[positions] = values
        else:
            positions = np.empty(0, dtype=np.int32)
        return cls(ids, xs, ys, indptr, indices, lengths, sigma, positions, graph=compact)

    def __reduce__(self):
        # The graph view is rebuilt from the shared arrays on unpickling; only
        # the defining arrays cross process boundaries.
        return (
            DenseInstance,
            (
                self.ids,
                self.xs,
                self.ys,
                self.indptr,
                self.indices,
                self.lengths,
                self.sigma,
                self.relevant_order,
            ),
        )

    # ------------------------------------------------------------------ inspection
    @property
    def num_nodes(self) -> int:
        """``|VQ|``: number of nodes in the window."""
        return int(self.ids.shape[0])

    @property
    def num_edges(self) -> int:
        """``|EQ|``: number of undirected edges in the window."""
        return int(self.indices.shape[0]) // 2

    def relevant_positions(self) -> np.ndarray:
        """Positions with σ_v > 0, in ascending position order (cached)."""
        if self._relevant_positions is None:
            self._relevant_positions = np.flatnonzero(self.sigma > 0.0).astype(
                np.int32, copy=False
            )
        return self._relevant_positions

    def ids_list(self) -> List[int]:
        """Flat Python mirror of :attr:`ids` (hot loops index lists, not arrays)."""
        if self._ids_list is None:
            self._ids_list = self.ids.tolist()
        return self._ids_list

    def sigma_list(self) -> List[float]:
        """Flat Python mirror of :attr:`sigma`."""
        if self._sigma_list is None:
            self._sigma_list = self.sigma.tolist()
        return self._sigma_list

    def position_of(self) -> Dict[int, int]:
        """The global-id → local-position map (built lazily)."""
        if self._position_of is None:
            self._position_of = {
                node_id: index for index, node_id in enumerate(self.ids_list())
            }
        return self._position_of

    # ------------------------------------------------------------------ views
    def graph_view(self) -> CompactNetwork:
        """The window as a :class:`CompactNetwork` (shares the arrays, cached)."""
        if self._graph is None:
            self._graph = CompactNetwork(
                self.ids,
                self.xs,
                self.ys,
                self.indptr,
                self.indices,
                self.lengths,
                validate_ids=False,  # positions were derived from unique ids
            )
        return self._graph

    def weights_dict(self) -> Dict[int, float]:
        """Re-materialise the node-weight dict, in the source dict's order.

        The returned dict iterates exactly like the dict the instance was built
        from (``relevant_order`` recorded it), so every dict-view consumer sees
        the same order on a rebuilt view.

        Deliberately NOT memoised on the substrate: substrates sit in the
        serving layer's LRU precisely because they carry no per-entry dict, so
        the dict view is cached on the per-query :class:`ProblemInstance`
        wrapper (its ``weights`` property) and dies with it.
        """
        ids = self.ids_list()
        sigma = self.sigma_list()
        return {ids[pos]: sigma[pos] for pos in self.relevant_order.tolist()}

    def to_problem_instance(
        self, query: "LCMSRQuery", pruning: str = "auto"
    ) -> "ProblemInstance":
        """Wrap the substrate into a full :class:`ProblemInstance` for ``query``.

        The weight dict is materialised lazily on first access; Greedy and
        TGEN never touch it, while APP and the Exact oracle, the dict-view
        consumers, rebuild it per wrapper.
        This is how the serving layer's instance cache re-binds one cached
        substrate to many queries.
        """
        from repro.core.instance import ProblemInstance  # deferred: cycle guard

        return ProblemInstance(
            graph=self.graph_view(),
            weights=None,
            query=query,
            build_seconds=0.0,
            dense=self,
            pruning=pruning,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DenseInstance(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"relevant={int(self.relevant_order.size)})"
        )
