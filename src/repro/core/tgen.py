"""TGEN: the tuple-generation heuristic (paper Section 5, Algorithm 2).

TGEN extends the findOptTree dynamic program from trees to the whole (scaled) query
window graph. Every node maintains an *explored region tuple array* (Definition 6):
for each scaled weight value, the shortest enumerated feasible region containing the
node. The algorithm traverses the window in breadth-first order, processes every edge
exactly once, and when processing an edge ``(vi, vj)`` combines every stored region of
``vi`` with every stored region of ``vj`` through that edge — skipping combinations
that would create a cycle (Lemma 9) or exceed the length constraint. Because only the
shortest region per (node, scaled weight) pair is kept, the enumeration is bounded by
``O(|EQ| · Tmax²)`` while possibly discarding the optimum — TGEN is a heuristic, but
the paper (and our benchmarks) find it the most accurate of the three algorithms.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.anytime import annotate_anytime_stats
from repro.core.instance import ProblemInstance
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.scaling import ScalingContext
from repro.core.tuples import EPS, RegionTuple
from repro.exceptions import SolverError
from repro.network.graph import edge_key


class TGENSolver:
    """The paper's TGEN algorithm.

    Args:
        alpha: Scaling parameter α. TGEN uses much larger values than APP (the paper
            sweeps 50–1600 and settles on 400 for NY / 300 for USANW) because every
            node in the window keeps a tuple array, so the arrays must stay small.
        max_tuples_per_node: Optional hard cap on tuples stored per node (an ablation
            knob, see ``bench_ablation_tuple_cap``; ``None`` reproduces the paper).
        edge_order: ``"bfs"`` (the paper's choice) or ``"length"`` (ascending edge
            length, the alternative the paper reports as no more accurate but slower).
    """

    name = "TGEN"

    #: Number of scaled-weight buckets targeted when ``alpha`` is left on automatic.
    #: The paper's settings (α = 400 on NY with tens of thousands of window nodes)
    #: correspond to coarse buckets; 32 reproduces that resolution regardless of the
    #: dataset scale while keeping pure-Python runtimes practical.
    AUTO_BUCKETS = 32

    def __init__(
        self,
        alpha: Optional[float] = None,
        max_tuples_per_node: Optional[int] = None,
        edge_order: str = "bfs",
    ) -> None:
        if alpha is not None and alpha <= 0:
            raise SolverError(f"alpha must be positive, got {alpha}")
        if edge_order not in ("bfs", "length"):
            raise SolverError(f"edge_order must be 'bfs' or 'length', got {edge_order!r}")
        self.alpha = alpha
        self.max_tuples_per_node = max_tuples_per_node
        self.edge_order = edge_order

    def _effective_alpha(self, instance: ProblemInstance) -> float:
        """Resolve the scaling parameter: explicit α, or scale-matched automatic."""
        if self.alpha is not None:
            return self.alpha
        return ScalingContext.alpha_for_buckets(
            max(1, instance.num_candidate_nodes), self.AUTO_BUCKETS
        )

    # ------------------------------------------------------------------ public API
    def solve(self, instance: ProblemInstance) -> RegionResult:
        """Answer an LCMSR query by tuple-generation over the window graph.

        Args:
            instance: The windowed, weighted problem instance to solve.

        Returns:
            The best enumerated region (with tuple/edge counters in ``stats``);
            an empty result when no node in the window is relevant.
        """
        start = time.perf_counter()
        best, _, stats = self._run(instance, collect_pool=False)
        runtime = time.perf_counter() - start
        annotate_anytime_stats(instance, best.weight if best else 0.0, stats)
        if best is None:
            return RegionResult(Region.empty(), self.name, runtime, stats=stats)
        return RegionResult(
            region=best.to_region(),
            algorithm=self.name,
            runtime_seconds=runtime,
            scaled_weight=best.scaled_weight,
            stats=stats,
        )

    def solve_topk(self, instance: ProblemInstance, k: Optional[int] = None) -> TopKResult:
        """Answer a top-k LCMSR query by ranking the tuples of all node arrays.

        Args:
            instance: The windowed, weighted problem instance to solve.
            k: Number of distinct regions to return; ``instance.query.k`` when
                omitted.

        Returns:
            Up to ``k`` distinct regions in decreasing score order.
        """
        start = time.perf_counter()
        k = k or instance.query.k
        best, pool, stats = self._run(
            instance, collect_pool=True, pool_size=max(64, 16 * k)
        )
        runtime = time.perf_counter() - start
        annotate_anytime_stats(instance, best.weight if best else 0.0, stats)
        quality = {key: value for key, value in stats.items()
                   if key.startswith("quality_") or key == "budget_expired"}
        if best is None:
            return TopKResult([], self.name, runtime, stats=quality)
        ranked = _rank_distinct(pool, k)
        results = [
            RegionResult(t.to_region(), self.name, runtime, scaled_weight=t.scaled_weight)
            for t in ranked
        ]
        return TopKResult(results, self.name, runtime, stats=quality)

    # ------------------------------------------------------------------ core loop
    #: Pair-count threshold above which per-edge feasibility is prefiltered with a
    #: vectorised outer sum instead of per-pair Python float arithmetic.
    _PREFILTER_PAIRS = 32

    def _run(
        self,
        instance: ProblemInstance,
        collect_pool: bool,
        pool_size: int = 0,
    ) -> Tuple[Optional[RegionTuple], List[RegionTuple], Dict[str, float]]:
        """Algorithm 2 over the dense substrate's local node positions.

        Every node starts with its singleton tuple; the BFS then processes each
        edge once and combines the tuple arrays of its endpoints (Definition 6
        arrays, Lemma 9 disjointness, the combine rule). Tuples are packed as
        ``(length, weight, scaled, node_mask, members, edge_mask)``:
        ``node_mask`` is an int bitset over window positions (Lemma 9 is one
        ``&``, the node union one ``|``), ``members`` the positions the
        dominance update walks, ``edge_mask`` a bitset over the edges in
        processing order. Each array is a ``scaled → tuple`` dict in insertion
        order; :class:`RegionTuple` objects are built only for the returned
        best and top-k pool. Per-edge pairs are prefiltered by a vectorised
        ``(l_i + l_j) + τ ≤ Q.∆`` mask that keeps the i-major pair order.

        When the instance allows pruning (and no top-k pool is collected — the
        pool deliberately admits zero-scaled tuples), an edge is skipped whole
        once the incumbent has positive scaled weight and *both* endpoint
        arrays hold only zero-scaled tuples: every combination such an edge can
        generate has scaled weight 0, cannot beat the incumbent, and cannot
        displace any stored tuple (each member of a zero-scaled tuple is itself
        zero-scaled, so its array's key-0 slot holds the length-0 singleton).
        ``max_scaled`` is a monotone per-position upper bound on each array's
        largest key; eviction does not lower it, which only forgoes skips.
        """
        if not instance.has_relevant_nodes or instance.num_candidate_nodes == 0:
            return None, [], {"tuples_generated": 0.0, "edges_processed": 0.0}
        dense = instance.ensure_dense()
        stats: Dict[str, float] = {}
        delta = instance.query.delta
        delta_eps = delta + 1e-12
        n = instance.num_candidate_nodes
        scaling = ScalingContext.from_sigma_max(
            instance.sigma_max(), n, self._effective_alpha(instance)
        )
        scaled_list = scaling.scale_array(dense.sigma).tolist()
        sigma_list = dense.sigma_list()
        ids_list = dense.ids_list()
        # Shared cached list mirrors of the window CSR (built once per window,
        # reused across solves of the same cached substrate).
        indptr, columns, _, lengths, _ = dense.graph_view().adjacency_arrays()

        arrays: List[Dict[int, tuple]] = []
        best: Optional[tuple] = None
        pool = _PackedPool(pool_size)
        for pos in range(n):
            singleton = (0.0, sigma_list[pos], scaled_list[pos], 1 << pos, (pos,), 0)
            arrays.append({singleton[2]: singleton})
            if _packed_better(singleton, best):
                best = singleton
            if collect_pool and singleton[2] > 0:
                pool.add(singleton)

        processed = bytearray(n)
        visited_edges: Set[int] = set()
        visited = bytearray(n)
        # Id pairs of the processed edges; bit b of an edge_mask is edge_pairs[b].
        edge_pairs: List[Tuple[int, int]] = []
        edges_skipped = 0
        tuples_generated = 0
        max_tuples = self.max_tuples_per_node
        budget = instance.budget
        expired = False
        prune = instance.pruning_enabled and not collect_pool
        # Per-position upper bound on the largest scaled key stored in the
        # node's array (exact until an eviction, stale-high after — safe).
        max_scaled: List[int] = list(scaled_list) if prune else []

        # Traversal seeds: every node, relevant (weighted) nodes first, sorted
        # by (-σ_v, node id). The paper selects "any unprocessed node"; seeding
        # with relevant nodes first makes the BFS fronts grow out of the object
        # clusters, which matches the paper's accuracy and is deterministic.
        start_order = np.lexsort((dense.ids, -dense.sigma)).tolist()
        for start_pos in start_order:
            if expired:
                break
            if visited[start_pos]:
                continue
            visited[start_pos] = 1
            queue: List[int] = [start_pos]
            head = 0
            while head < len(queue) and not expired:
                vi = queue[head]
                head += 1
                array_i = arrays[vi]
                slots = range(indptr[vi], indptr[vi + 1])
                if self.edge_order == "length":
                    slots = sorted(slots, key=lambda slot: lengths[slot])
                for slot in slots:
                    if budget is not None and budget.expired():
                        stats["budget_expired"] = 1.0
                        expired = True
                        break
                    vj = columns[slot]
                    key = vi * n + vj if vi <= vj else vj * n + vi
                    if key in visited_edges:
                        continue
                    visited_edges.add(key)
                    if not visited[vj]:
                        visited[vj] = 1
                        queue.append(vj)
                    edge_length = lengths[slot]
                    if edge_length > delta:
                        continue
                    if (
                        prune
                        and best is not None
                        and best[2] > 0
                        and max_scaled[vi] == 0
                        and max_scaled[vj] == 0
                    ):
                        edges_skipped += 1
                        continue
                    edge_bit = 1 << len(edge_pairs)
                    edge_pairs.append(edge_key(ids_list[vi], ids_list[vj]))
                    tuples_i = list(array_i.values())
                    tuples_j = list(arrays[vj].values())
                    if len(tuples_i) * len(tuples_j) >= self._PREFILTER_PAIRS:
                        lengths_i = np.fromiter(
                            (t[0] for t in tuples_i), np.float64, len(tuples_i)
                        )
                        lengths_j = np.fromiter(
                            (t[0] for t in tuples_j), np.float64, len(tuples_j)
                        )
                        rows, cols = np.nonzero(
                            (lengths_i[:, None] + lengths_j[None, :]) + edge_length
                            <= delta_eps
                        )
                        pairs = zip(rows.tolist(), cols.tolist())
                    else:
                        pairs = (
                            (a, b)
                            for a, tuple_a in enumerate(tuples_i)
                            for b, tuple_b in enumerate(tuples_j)
                            if tuple_a[0] + tuple_b[0] + edge_length <= delta_eps
                        )
                    # Fused generate/apply loop. Algorithm 2 collects the
                    # feasible combinations first and then applies them in
                    # generation order; collection is side-effect free, so the
                    # fused loop performs the identical update sequence. A
                    # combined tuple is only built when something keeps it —
                    # the incumbent check, the top-k pool, or a dominance slot
                    # it wins; dominated combinations cost two scalar adds and
                    # a few dict probes.
                    for a, b in pairs:
                        tuple_i = tuples_i[a]
                        tuple_j = tuples_j[b]
                        if tuple_i[3] & tuple_j[3]:
                            continue
                        tuples_generated += 1
                        scaled = tuple_i[2] + tuple_j[2]
                        weight = tuple_i[1] + tuple_j[1]
                        length = tuple_i[0] + tuple_j[0] + edge_length
                        members = tuple_i[4] + tuple_j[4]
                        # Inline RegionTuple.better_than on the scalar triple
                        # (tolerance shared with tuples.py via EPS).
                        if best is None:
                            better = True
                        elif scaled != best[2]:
                            better = scaled > best[2]
                        elif abs(weight - best[1]) > EPS:
                            better = weight > best[1]
                        else:
                            better = length < best[0] - EPS
                        combined: Optional[tuple] = None
                        if better or collect_pool:
                            combined = (
                                length, weight, scaled, tuple_i[3] | tuple_j[3],
                                members, tuple_i[5] | tuple_j[5] | edge_bit,
                            )
                            if better:
                                best = combined
                            if collect_pool:
                                pool.add(combined)
                        for member in members:
                            if processed[member]:
                                continue
                            entries = arrays[member]
                            stored = entries.get(scaled)
                            if stored is None or length < stored[0] - EPS:
                                if combined is None:
                                    combined = (
                                        length, weight, scaled, tuple_i[3] | tuple_j[3],
                                        members, tuple_i[5] | tuple_j[5] | edge_bit,
                                    )
                                entries[scaled] = combined
                                if prune and scaled > max_scaled[member]:
                                    max_scaled[member] = scaled
                                if max_tuples is not None and len(entries) > max_tuples:
                                    survivors = sorted(
                                        entries.values(), key=lambda t: (-t[2], t[0])
                                    )[:max_tuples]
                                    entries.clear()
                                    entries.update((t[2], t) for t in survivors)
                processed[vi] = 1
        stats["tuples_generated"] = float(tuples_generated)
        stats["edges_processed"] = float(len(edge_pairs))
        stats["edges_skipped"] = float(edges_skipped)
        materialise = lambda t: RegionTuple(  # noqa: E731
            t[0], t[1], t[2], frozenset(ids_list[p] for p in t[4]),
            frozenset(edge_pairs[b] for b in _bit_positions(t[5])),
        )
        return (
            None if best is None else materialise(best),
            [materialise(t) for t in pool.ranked()] if collect_pool else [],
            stats,
        )

def _packed_better(candidate: tuple, best: Optional[tuple]) -> bool:
    """:meth:`RegionTuple.better_than` on packed ``(length, weight, scaled, ...)`` tuples."""
    if best is None:
        return True
    if candidate[2] != best[2]:
        return candidate[2] > best[2]
    if abs(candidate[1] - best[1]) > EPS:
        return candidate[1] > best[1]
    return candidate[0] < best[0] - EPS


class _PackedPool:
    """The bounded top-k pool of packed tuples, deduplicated by ``node_mask``.

    Keeps distinct node sets, stably sorted by rank and cut to ``size``
    entries whenever it exceeds ``2 * size`` — decision for decision the list
    pool of the dict reference in ``tests/core/dict_reference.py``. Entries
    are stored as ``(rank, tuple)`` pairs so the sort compares in C. After a cut, a candidate that ranks at or behind the last
    survivor (``floor``) sorts behind every survivor at the next cut
    (survivors were inserted first), so it is certain to be dropped: it is
    counted and its node set blocks duplicates until that cut, as if stored,
    but it is never stored or sorted.
    """

    __slots__ = ("entries", "keys", "size", "floor", "shadowed")

    def __init__(self, size: int) -> None:
        self.entries: List[Tuple[Tuple[int, float, float], tuple]] = []
        self.keys: Set[int] = set()
        self.size = size
        self.floor: Optional[Tuple[int, float, float]] = None
        self.shadowed = 0

    def add(self, candidate: tuple) -> None:
        if candidate[3] in self.keys:
            return
        self.keys.add(candidate[3])
        rank = (-candidate[2], -candidate[1], candidate[0])
        if self.floor is not None and rank >= self.floor:
            self.shadowed += 1
        else:
            self.entries.append((rank, candidate))
        if len(self.entries) + self.shadowed > 2 * self.size:
            self.ranked()
            self.keys = {t[3] for _, t in self.entries}
            self.floor = self.entries[-1][0]
            self.shadowed = 0

    def ranked(self) -> List[tuple]:
        """The best ``size`` entries in rank order — every rank solve_topk can
        ask for (k ≤ size / 16)."""
        self.entries.sort(key=itemgetter(0))
        del self.entries[self.size:]
        return [t for _, t in self.entries]


def _bit_positions(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rank_distinct(pool: Sequence[RegionTuple], k: int) -> List[RegionTuple]:
    """Return the best ``k`` distinct (by node set) tuples of the pool."""
    seen: Set[frozenset] = set()
    ranked: List[RegionTuple] = []
    for candidate in sorted(pool, key=lambda t: (-t.scaled_weight, -t.weight, t.length)):
        if candidate.nodes in seen:
            continue
        seen.add(candidate.nodes)
        ranked.append(candidate)
        if len(ranked) >= k:
            break
    return ranked
