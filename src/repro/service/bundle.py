"""The shared, immutable index state behind an engine: one build, many queries.

Historically :class:`~repro.engine.LCMSREngine` built the object → node mapping, the
vector-space model, the grid + inverted-list index and the relevance scorer inline in
its constructor, which made the index state impossible to share: every engine (and
every worker that wanted its own engine) paid the full offline build again.
:class:`IndexBundle` extracts that construction into a standalone, reusable value
object. A bundle is built once — :meth:`IndexBundle.build` — and can then back any
number of engines and any number of :class:`~repro.service.query_service.QueryService`
workers concurrently: after construction the bundle is never mutated, so sharing it
across threads is safe.

Bundles also persist: :meth:`IndexBundle.save` writes a versioned on-disk artifact
(manifest + mmap-able CSR arrays + pickled index structures, see
:mod:`repro.service.persist`) and :meth:`IndexBundle.load` restores it without
re-running any of the offline build — the path behind
:meth:`LCMSREngine.from_artifact <repro.engine.LCMSREngine.from_artifact>` and the
``python -m repro`` CLI. A loaded bundle serves reads from the columns alone; the
pickled object graph (corpus, mapping, vector-space model, grid, scorer) is
deferred until something first reads one of those five attributes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

from repro.exceptions import QueryError
from repro.index.grid import GridIndex
from repro.network.compact import CompactNetwork, GraphView
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.objects.mapping import NodeObjectMap, map_objects_to_network
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.relevance import RelevanceScorer, ScoringMode
from repro.textindex.vector_space import VectorSpaceModel

if TYPE_CHECKING:  # pragma: no cover - typing only (persist imports the bundle)
    from repro.datasets.synthetic import SyntheticDataset
    from repro.service.persist import ArtifactManifest, PathLike


_DEFERRED = object()
"""Placeholder held by an object-graph field until :class:`_ObjectGraphField` loads it."""

_GRAPH_FIELDS = ("corpus", "mapping", "vsm", "grid", "scorer")


class _ObjectGraphField:
    """Dataclass field descriptor for the five attributes stored in ``index.pkl``.

    A built bundle holds real values from construction. A bundle loaded from an
    artifact starts with every one of them :data:`_DEFERRED`; the first read of
    any of them loads the whole object graph (see
    :meth:`IndexBundle._load_object_graph`).
    """

    def __set_name__(self, owner, name: str) -> None:
        self._name = name
        self._slot = "_graph_" + name

    def __get__(self, bundle, owner=None):
        if bundle is None:
            # Class access is how dataclasses probes for a default: there is none.
            raise AttributeError(self._name)
        value = bundle.__dict__[self._slot]
        if value is _DEFERRED:
            bundle._load_object_graph()
            value = bundle.__dict__[self._slot]
        return value

    def __set__(self, bundle, value) -> None:
        # Reached only from the generated __init__ (the frozen __setattr__
        # rejects every later assignment).
        bundle.__dict__[self._slot] = value


@dataclass(frozen=True)
class IndexBundle:
    """Everything the serving path needs that is query-independent.

    Attributes:
        network: The road network (paper Section 2's graph ``G``). ``None`` for
            bundles restored from an on-disk artifact — the query path runs
            entirely on the CSR snapshot; call :meth:`road_network` when a
            mutable dict-backed copy is genuinely needed (it thaws the snapshot
            on first use and caches the result).
        corpus: The geo-textual objects ``O``.
        mapping: The object → nearest-node mapping that turns object scores into the
            node weights σ_v.
        vsm: The corpus-wide TF-IDF vector-space model (Section 3, Equation 2).
        grid: The grid + inverted-list index (the paper's index; queries read the
            columnar pipeline instead whenever the bundle has one).
        scorer: The direct relevance scorer (the object-loop reference backend and
            the fallback when no columnar pipeline exists).
        scoring_mode: Which per-object weight definition the bundle scores with.
        grid_resolution: The resolution the grid was built with (kept for reporting).
        build_seconds: Wall-clock time of each offline build step plus a ``"total"``
            entry; mirrors the paper's offline / online cost split.
        compact: The frozen CSR snapshot of ``network``
            (:class:`~repro.network.compact.CompactNetwork`), built once here and
            shared read-only by every engine / service query — the per-query
            window extraction runs on this snapshot, not on the dict-backed
            graph. ``None`` only when the bundle was built with
            ``freeze_network=False`` (benchmark comparisons, legacy callers).
        columnar: The frozen columnar scoring index
            (:class:`~repro.textindex.columnar.ColumnarScoringIndex`) — CSR
            term → object postings plus object/node tables — built once here
            and used by every query to compute σ_v with vectorised array
            kernels (:meth:`weight_pipeline`). ``None`` only for legacy
            construction paths that skip it; queries then fall back to the
            grid-postings / object-loop paths.

    ``corpus``, ``mapping``, ``vsm``, ``grid`` and ``scorer`` form the bundle's
    *object graph*. On a bundle restored by :meth:`load` they are not read
    from disk until one of them is first accessed; that access loads all five
    at once (see :attr:`object_graph_loaded`).
    """

    network: Optional[RoadNetwork]
    corpus: ObjectCorpus = _ObjectGraphField()
    mapping: NodeObjectMap = _ObjectGraphField()
    vsm: VectorSpaceModel = _ObjectGraphField()
    grid: GridIndex = _ObjectGraphField()
    scorer: RelevanceScorer = _ObjectGraphField()
    scoring_mode: ScoringMode
    grid_resolution: int
    build_seconds: Dict[str, float]
    compact: Optional[CompactNetwork] = None
    columnar: Optional[ColumnarScoringIndex] = None

    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        corpus: ObjectCorpus,
        grid_resolution: int = 48,
        scoring_mode: ScoringMode = ScoringMode.TEXT_RELEVANCE,
        freeze_network: bool = True,
    ) -> "IndexBundle":
        """Run the full offline indexing pipeline once.

        Args:
            network: The road network to index.
            corpus: The geo-textual objects to index.
            grid_resolution: Cells per axis of the spatial grid; must be positive.
            scoring_mode: Per-object weight definition (see
                :class:`~repro.textindex.relevance.ScoringMode`).
            freeze_network: When ``True`` (default), also freeze ``network`` into
                a CSR :class:`~repro.network.compact.CompactNetwork` snapshot that
                every query reuses for window extraction and traversal. ``False``
                keeps the dict backend on the hot path (used by the backend
                benchmark to compare the two).

        Returns:
            The immutable bundle holding every index structure.

        Raises:
            QueryError: If ``grid_resolution`` is not a positive integer — raised
                before any expensive build work starts so misconfiguration fails
                fast.
        """
        if not isinstance(grid_resolution, int) or grid_resolution <= 0:
            raise QueryError(
                f"grid_resolution must be a positive integer, got {grid_resolution!r}"
            )
        timings: Dict[str, float] = {}
        total_start = time.perf_counter()

        start = time.perf_counter()
        mapping = map_objects_to_network(network, corpus)
        timings["mapping"] = time.perf_counter() - start

        start = time.perf_counter()
        vsm = VectorSpaceModel(corpus)
        timings["vsm"] = time.perf_counter() - start

        start = time.perf_counter()
        grid = GridIndex(corpus, resolution=grid_resolution, vsm=vsm)
        timings["grid"] = time.perf_counter() - start

        start = time.perf_counter()
        # Freeze the corpus + mapping into the columnar scoring index once: the
        # per-query σ_v computation then runs as vectorised array kernels.
        columnar = ColumnarScoringIndex.build(corpus, mapping, network.coords, vsm=vsm)
        vsm.attach_columnar(columnar)
        timings["columnar"] = time.perf_counter() - start

        start = time.perf_counter()
        # Share the bundle's VSM instead of letting the scorer build an identical
        # second model: halves the text-model build time and, when the bundle is
        # persisted, stores the model once instead of twice.
        scorer = RelevanceScorer(
            corpus, mapping, mode=scoring_mode, vsm=vsm, columnar=columnar
        )
        timings["scorer"] = time.perf_counter() - start

        compact: Optional[CompactNetwork] = None
        if freeze_network:
            start = time.perf_counter()
            compact = CompactNetwork.from_network(network)
            timings["freeze"] = time.perf_counter() - start

        timings["total"] = time.perf_counter() - total_start
        return cls(
            network=network,
            compact=compact,
            corpus=corpus,
            mapping=mapping,
            vsm=vsm,
            grid=grid,
            scorer=scorer,
            scoring_mode=scoring_mode,
            grid_resolution=grid_resolution,
            build_seconds=timings,
            columnar=columnar,
        )

    @classmethod
    def build_streaming(
        cls,
        network: RoadNetwork,
        objects,
        grid_resolution: int = 48,
        scoring_mode: ScoringMode = ScoringMode.TEXT_RELEVANCE,
        node_of: Optional[Mapping[int, int]] = None,
    ) -> "IndexBundle":
        """Index an object *iterator* in bounded memory (the 1M-object path).

        Where :meth:`build` materialises every derived structure eagerly — the
        vector-space model's corpus-sized weight tables, the grid's
        ``resolution²`` inverted lists — this path consumes ``objects`` one at
        a time and defers everything the serving hot path doesn't need:

        1. **Accumulate pass.** Objects stream into the corpus (incremental
           document frequencies / collection statistics) and are mapped to
           their nearest network nodes. Nothing object-count-sized beyond the
           corpus itself is resident. With ``node_of`` the nodes are taken
           from that known assignment instead of a nearest-node search.
        2. **Column emission pass.** The columnar scoring index is built with
           per-object inline ``wto`` arithmetic (see
           :meth:`ColumnarScoringIndex.build
           <repro.textindex.columnar.ColumnarScoringIndex.build>` with
           ``vsm=None``) — bit-identical columns to an eager build, no weight
           tables.
        3. **Lazy shells.** The vector-space model and the grid are created in
           lazy mode: they answer exactly like their eager counterparts but
           compute on first use, and they pickle without their caches — so a
           streamed artifact's ``index.pkl`` stays small.

        Query results are byte-identical to :meth:`build` of the same
        (network, objects): the deferred structures replay the same arithmetic
        on demand, and the columnar columns — which every hot-path query reads
        — are bit-equal. Only the artifact's ``index.pkl`` bytes differ (no
        precomputed tables inside).

        Args:
            network: The road network to index.
            objects: An iterable/generator of
                :class:`~repro.objects.geoobject.GeoTextualObject`; consumed
                once, never materialised as a list.
            grid_resolution: Cells per axis of the (lazy) spatial grid.
            scoring_mode: Per-object weight definition.
            node_of: Optional known ``object_id → node_id`` assignment
                covering every object, holding the nodes
                :func:`~repro.objects.mapping.map_objects_to_network` would
                pick (the compactor passes the base mapping plus the overlay's
                nodes). Results are then byte-identical without re-mapping.

        Returns:
            The immutable bundle, with a frozen CSR network snapshot.

        Raises:
            QueryError: If ``grid_resolution`` is not a positive integer.
            DatasetError: If ``node_of`` misses an object.
        """
        if not isinstance(grid_resolution, int) or grid_resolution <= 0:
            raise QueryError(
                f"grid_resolution must be a positive integer, got {grid_resolution!r}"
            )
        timings: Dict[str, float] = {}
        total_start = time.perf_counter()

        start = time.perf_counter()
        corpus = ObjectCorpus()
        for obj in objects:
            corpus.add(obj)
        timings["accumulate"] = time.perf_counter() - start

        start = time.perf_counter()
        if node_of is None:
            mapping = map_objects_to_network(network, corpus)
        else:
            mapping = NodeObjectMap.from_assignment(corpus, node_of)
        timings["mapping"] = time.perf_counter() - start

        start = time.perf_counter()
        vsm = VectorSpaceModel(corpus, lazy=True)
        grid = GridIndex(corpus, resolution=grid_resolution, vsm=vsm, lazy=True)
        timings["lazy_shells"] = time.perf_counter() - start

        start = time.perf_counter()
        columnar = ColumnarScoringIndex.build(corpus, mapping, network.coords)
        vsm.attach_columnar(columnar)
        timings["columnar"] = time.perf_counter() - start

        start = time.perf_counter()
        scorer = RelevanceScorer(
            corpus, mapping, mode=scoring_mode, vsm=vsm, columnar=columnar
        )
        timings["scorer"] = time.perf_counter() - start

        start = time.perf_counter()
        compact = CompactNetwork.from_network(network)
        timings["freeze"] = time.perf_counter() - start

        timings["total"] = time.perf_counter() - total_start
        return cls(
            network=network,
            compact=compact,
            corpus=corpus,
            mapping=mapping,
            vsm=vsm,
            grid=grid,
            scorer=scorer,
            scoring_mode=scoring_mode,
            grid_resolution=grid_resolution,
            build_seconds=timings,
            columnar=columnar,
        )

    @classmethod
    def from_dataset(
        cls,
        dataset: "SyntheticDataset",
        freeze_network: bool = True,
        compact: Optional[CompactNetwork] = None,
    ) -> "IndexBundle":
        """Wrap an already-assembled dataset into a bundle without rebuilding.

        :func:`repro.datasets.synthetic.assemble_dataset` has already paid for the
        mapping, the vector-space model and the grid; this constructor reuses
        those structures directly (the only new work is the optional CSR freeze).
        It is the cheap path behind the ``python -m repro build`` CLI and the
        evaluation runner's artifact cache — by contrast :meth:`build` re-derives
        everything from the raw network + corpus.

        Args:
            dataset: The assembled dataset to wrap.
            freeze_network: Also freeze the network into a CSR snapshot (default).
            compact: Optional pre-frozen snapshot of ``dataset.network`` to reuse
                instead of freezing again (the artifact cache freezes early for
                fingerprinting).

        Returns:
            A bundle sharing the dataset's index structures.
        """
        timings: Dict[str, float] = {}
        start = time.perf_counter()
        if freeze_network and compact is None:
            compact = CompactNetwork.from_network(dataset.network)
        elif not freeze_network:
            compact = None
        timings["freeze"] = time.perf_counter() - start

        vsm = dataset.grid.vector_space_model
        scorer = dataset.scorer
        start = time.perf_counter()
        columnar = scorer.columnar
        if columnar is None:
            columnar = ColumnarScoringIndex.build(
                dataset.corpus, dataset.mapping, dataset.network.coords, vsm=vsm
            )
            scorer.attach_columnar(columnar)
        vsm.attach_columnar(columnar)
        timings["columnar"] = time.perf_counter() - start
        timings["total"] = timings["freeze"] + timings["columnar"]
        return cls(
            network=dataset.network,
            corpus=dataset.corpus,
            mapping=dataset.mapping,
            vsm=vsm,
            grid=dataset.grid,
            scorer=scorer,
            scoring_mode=scorer.mode,
            grid_resolution=dataset.grid.resolution,
            build_seconds=timings,
            compact=compact,
            columnar=columnar,
        )

    # ------------------------------------------------------------------ persistence
    def save(
        self,
        path: "PathLike",
        overwrite: bool = False,
        compress: Optional[str] = None,
        compress_level: Optional[int] = None,
    ) -> "ArtifactManifest":
        """Persist the bundle as a versioned on-disk artifact directory.

        See :func:`repro.service.persist.save_bundle` for the layout, determinism
        and versioning guarantees.

        Args:
            path: Target artifact directory (created if missing).
            overwrite: Replace an existing artifact instead of raising.
            compress: Optional chunk-compression codec (``"zlib"`` / ``"lzma"``;
                ``None`` or ``"none"`` stores the raw mmap-everything layout).
            compress_level: Optional codec effort level (codec default when
                omitted).

        Returns:
            The written :class:`~repro.service.persist.ArtifactManifest`.

        Raises:
            ArtifactError: If ``path`` already holds an artifact and
                ``overwrite`` is false, or ``compress`` names an unknown codec.
        """
        from repro.service import persist

        return persist.save_bundle(
            self,
            path,
            overwrite=overwrite,
            compression=persist.compression_spec(compress, compress_level),
        )

    @classmethod
    def load(
        cls, path: "PathLike", mmap: bool = True, verify: bool = True
    ) -> "IndexBundle":
        """Restore a bundle from an artifact directory written by :meth:`save`.

        The CSR and scoring columns come back as read-only memory maps (unless
        ``mmap`` is false), so loading is I/O-bound instead of rebuild-bound.
        ``index.pkl`` is not unpickled here: the object graph loads on first
        access (see :func:`repro.service.persist.load_bundle`).

        Args:
            path: The artifact directory.
            mmap: Memory-map the network arrays (default) or load them eagerly.
            verify: Check file checksums against the manifest first, and check
                ``index.pkl`` again when the object graph is loaded.

        Returns:
            A bundle answering queries identically to the one that was saved.

        Raises:
            ArtifactError: On a missing/corrupt artifact or version mismatch.
        """
        from repro.service import persist

        return persist.load_bundle(path, mmap=mmap, verify=verify)

    @classmethod
    def _from_columns(
        cls,
        compact: CompactNetwork,
        columnar: ColumnarScoringIndex,
        pipeline: WeightPipeline,
        scoring_mode: ScoringMode,
        grid_resolution: int,
        build_seconds: Dict[str, float],
        fingerprint: str,
        load_graph: Callable[[], Tuple[object, ...]],
    ) -> "IndexBundle":
        """A bundle that serves from its columns and defers the object graph.

        ``load_graph`` returns the five object-graph values in field order,
        the same tuple on every call; the first read of any of those fields
        calls it. The artifact loader is the only caller.
        """
        bundle = cls(
            network=None,
            corpus=_DEFERRED,
            mapping=_DEFERRED,
            vsm=_DEFERRED,
            grid=_DEFERRED,
            scorer=_DEFERRED,
            scoring_mode=scoring_mode,
            grid_resolution=grid_resolution,
            build_seconds=build_seconds,
            compact=compact,
            columnar=columnar,
        )
        object.__setattr__(bundle, "_graph_loader", load_graph)
        object.__setattr__(bundle, "_pipeline", pipeline)
        object.__setattr__(bundle, "_fingerprint", fingerprint)
        return bundle

    # Plain class attributes (no annotation), so NOT dataclass fields: state a
    # bundle restored from an artifact carries (see _from_columns).
    _graph_loader = None
    _pipeline = None

    @property
    def object_graph_loaded(self) -> bool:
        """Whether the five object-graph attributes are in memory.

        Always ``True`` for built bundles; ``False`` for a loaded bundle until
        one of ``corpus`` / ``mapping`` / ``vsm`` / ``grid`` / ``scorer`` is
        first read.
        """
        return self.__dict__["_graph_corpus"] is not _DEFERRED

    def _load_object_graph(self) -> None:
        """Install the deferred object graph (called by :class:`_ObjectGraphField`).

        The loader unpickles once under its own lock and hands every caller the
        same tuple, so racing threads install identical objects.
        """
        graph = self._graph_loader()
        for name, value in zip(_GRAPH_FIELDS, graph):
            self.__dict__["_graph_" + name] = value

    def __repr__(self) -> str:
        # Hand-written so that printing a loaded bundle does not load its graph.
        return f"IndexBundle({self.describe()})"

    def road_network(self) -> RoadNetwork:
        """The mutable dict-backed road network, thawed from the snapshot if needed.

        Bundles loaded from an artifact carry only the CSR snapshot; the first
        call reconstructs a :class:`RoadNetwork` from it and caches it on the
        bundle. Query execution never needs this — it exists for callers that
        want to mutate or re-index the graph.
        """
        if self.network is None:
            assert self.compact is not None
            thawed = self.compact.to_network()
            # Lock-free single-assignment: a racing thread may thaw its own copy,
            # but whichever assignment lands is what every caller returns (the
            # re-read below), so all threads share one RoadNetwork afterwards.
            if self.network is None:
                object.__setattr__(self, "network", thawed)
        return self.network

    # A plain class attribute (no annotation), so it is NOT a dataclass field:
    # the lazily computed fingerprint cache behind :meth:`fingerprint`.
    _fingerprint = None

    def fingerprint(self) -> str:
        """The dataset fingerprint of this bundle's (network, corpus).

        Computed lazily with :func:`repro.service.persist.dataset_fingerprint`
        and cached on the bundle (loading an artifact seeds the cache from the
        manifest, so loaded bundles never re-hash).  Two bundles answer queries
        identically only if their fingerprints match, which is why the service
        cache keys fold this in.
        """
        cached = self._fingerprint
        if cached is None:
            from repro.service.persist import dataset_fingerprint

            source = self.compact if self.compact is not None else self.network
            cached = dataset_fingerprint(source, self.corpus)
            # Lock-free single-assignment, same pattern as road_network().
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def weight_pipeline(self) -> Optional[WeightPipeline]:
        """The vectorised σ_v pipeline queries should take, or ``None``.

        One object for the bundle's lifetime, shared with the scorer (so its
        ``bounds`` and sample-frame caches are built once). A loaded bundle
        builds it at load from the columns and the manifest's scoring mode and
        LM smoothing, and the scorer attaches that same object when the object
        graph loads. A built bundle takes the scorer's pipeline, which is
        ``None`` when there is no columnar index or a language-model scorer's
        smoothing differs from the columns; queries then fall back to the
        scalar paths.
        """
        pipeline = self._pipeline
        if pipeline is None:
            pipeline = self.scorer.pipeline
            if pipeline is not None:
                # Lock-free single-assignment, same pattern as road_network().
                object.__setattr__(self, "_pipeline", pipeline)
        return pipeline

    def graph_view(self) -> GraphView:
        """The network representation the query hot path should traverse.

        Returns the frozen CSR snapshot when the bundle was built with
        ``freeze_network=True`` (the default), the dict-backed network otherwise.
        Query results are identical on either backend; only the cost differs.
        """
        return self.compact if self.compact is not None else self.network

    def describe(self) -> str:
        """One-line summary of the indexed dataset (used in logs and reports).

        Never loads a deferred object graph: a loaded bundle reports the object
        count from its columns.
        """
        backend = "csr" if self.compact is not None else "dict"
        view = self.graph_view()
        if not self.object_graph_loaded:
            objects = self.columnar.num_objects
            cells = "cells deferred"
        else:
            objects = len(self.corpus)
            # Don't force a lazy grid to materialise its cells just for a log line.
            if getattr(self.grid, "cells_built", True):
                cells = f"{self.grid.num_nonempty_cells} non-empty cells"
            else:
                cells = "cells deferred"
        return (
            f"{view.num_nodes} nodes / {view.num_edges} edges "
            f"({backend} backend), "
            f"{objects} objects, grid {self.grid_resolution}x{self.grid_resolution} "
            f"({cells}), "
            f"scoring={self.scoring_mode.value}, "
            f"built in {self.build_seconds.get('total', 0.0):.3f}s"
        )
