"""Relevance scorers: the configurable object-weight function used by solvers.

The paper's region score is the sum of per-object weights, where a weight can be

* the vector-space text relevance (the default, Section 3),
* the object's rating/popularity if it matches the query keywords and 0 otherwise
  (mentioned as an alternative in Section 2), or
* a language-model probability (the other retrieval model the paper cites).

:class:`RelevanceScorer` wraps these choices behind one ``node_weights`` call that
returns the per-node weights the LCMSR solvers consume (node weight = sum of weights
of the objects mapped to the node).
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import NodeObjectMap
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.vector_space import VectorSpaceModel


class ScoringMode(enum.Enum):
    """Which per-object weight definition a scorer uses.

    The mode also selects the engine's scoring path: ``TEXT_RELEVANCE`` scores
    through the grid index's TF-IDF postings (the paper's indexed hot path), while
    ``RATING_IF_MATCH`` and ``LANGUAGE_MODEL`` bypass the postings and score each
    object directly through :class:`RelevanceScorer`.
    """

    TEXT_RELEVANCE = "text_relevance"
    """Vector-space TF-IDF relevance (the paper's default)."""

    RATING_IF_MATCH = "rating_if_match"
    """The object's rating if it contains any query keyword, 0 otherwise."""

    LANGUAGE_MODEL = "language_model"
    """Jelinek–Mercer smoothed unigram language-model likelihood."""


class LanguageModelScorer:
    """Query-likelihood scorer with Jelinek–Mercer smoothing.

    ``score(o, Q) = Σ_{t ∈ Q} ln( (1-λ)·P(t|o) + λ·P(t|C) )`` shifted so that objects
    containing no query term score exactly 0 (the LCMSR solvers require non-negative
    weights that are 0 for irrelevant objects).
    """

    def __init__(self, corpus: ObjectCorpus, smoothing: float = 0.2) -> None:
        if not 0.0 < smoothing < 1.0:
            raise ValueError(f"smoothing must be in (0, 1), got {smoothing}")
        self._corpus = corpus
        self._smoothing = smoothing
        # Collection statistics are cached on the corpus (computed once,
        # invalidated on corpus.add), so constructing a scorer is O(1) instead
        # of a full corpus scan per construction.
        self._collection_counts: Mapping[str, int] = corpus.collection_term_counts()
        self._collection_total = corpus.collection_total_terms()

    @property
    def smoothing(self) -> float:
        """The Jelinek–Mercer smoothing parameter λ."""
        return self._smoothing

    def _collection_probability(self, term: str) -> float:
        if self._collection_total == 0:
            return 0.0
        return self._collection_counts.get(term, 0) / self._collection_total

    def score(self, obj: GeoTextualObject, keywords: Iterable[str]) -> float:
        """Return the (shifted, non-negative) query likelihood of ``obj``.

        ``keywords`` are used as given — :class:`~repro.core.query.LCMSRQuery`
        normalises (strip / lower-case / de-duplicate) at construction, so the
        query path never re-normalises per scored object.
        """
        terms = list(keywords)
        if not terms:
            return 0.0
        if not obj.contains_any(terms):
            return 0.0
        object_total = sum(obj.keywords.values())
        log_likelihood = 0.0
        background = 0.0
        for term in terms:
            p_doc = obj.keywords.get(term, 0) / object_total if object_total else 0.0
            p_col = self._collection_probability(term)
            mixed = (1.0 - self._smoothing) * p_doc + self._smoothing * p_col
            base = self._smoothing * p_col
            if mixed <= 0.0 or base <= 0.0:
                continue
            log_likelihood += math.log(mixed)
            background += math.log(base)
        # Shift by the background-only likelihood so irrelevant objects sit at 0 and
        # better-matching objects get strictly larger scores.
        return max(0.0, log_likelihood - background)


class RelevanceScorer:
    """Produces the per-node weights σ_v that every LCMSR solver consumes.

    Args:
        corpus: The dataset's object corpus.
        mapping: The object → node assignment produced by
            :func:`repro.objects.mapping.map_objects_to_network`.
        mode: Which per-object weight definition to use.
        language_model_smoothing: Smoothing parameter when ``mode`` is
            ``LANGUAGE_MODEL``.
        vsm: Optional prebuilt vector-space model over ``corpus``. Passing the
            bundle's shared model avoids building (and, in persisted artifacts,
            serialising) a second identical model; one is built when omitted.
        columnar: Optional frozen :class:`~repro.textindex.columnar.ColumnarScoringIndex`
            over the same corpus + mapping. When present, :meth:`node_weights`
            computes σ_v through the vectorised
            :class:`~repro.textindex.columnar.WeightPipeline` (bit-identical to
            the object loop); the loop is kept as the reference backend.
    """

    def __init__(
        self,
        corpus: ObjectCorpus,
        mapping: NodeObjectMap,
        mode: ScoringMode = ScoringMode.TEXT_RELEVANCE,
        language_model_smoothing: float = 0.2,
        vsm: Optional[VectorSpaceModel] = None,
        columnar: Optional[ColumnarScoringIndex] = None,
    ) -> None:
        self._corpus = corpus
        self._mapping = mapping
        self._mode = mode
        self._vsm = vsm if vsm is not None else VectorSpaceModel(corpus)
        self._lm: Optional[LanguageModelScorer] = None
        if mode is ScoringMode.LANGUAGE_MODEL:
            self._lm = LanguageModelScorer(corpus, smoothing=language_model_smoothing)
        self._columnar: Optional[ColumnarScoringIndex] = None
        self._pipeline: Optional[WeightPipeline] = None
        if columnar is not None:
            self.attach_columnar(columnar)

    @property
    def mode(self) -> ScoringMode:
        """The active scoring mode."""
        return self._mode

    @property
    def vector_space_model(self) -> VectorSpaceModel:
        """The underlying vector-space model (always built; used by the index layer)."""
        return self._vsm

    @property
    def language_model_smoothing(self) -> Optional[float]:
        """The Jelinek–Mercer λ of a language-model scorer (``None`` in other modes)."""
        return self._lm.smoothing if self._lm is not None else None

    @property
    def columnar(self) -> Optional[ColumnarScoringIndex]:
        """The attached columnar index (``None`` when only the loop backend exists)."""
        return self._columnar

    @property
    def pipeline(self) -> Optional[WeightPipeline]:
        """The vectorised weight pipeline (``None`` without a compatible columnar index)."""
        return self._pipeline

    def attach_columnar(
        self,
        columnar: ColumnarScoringIndex,
        pipeline: Optional[WeightPipeline] = None,
    ) -> None:
        """Attach a columnar index built over this scorer's corpus + mapping.

        Enables the vectorised fast path of :meth:`node_weights`. A
        language-model scorer whose smoothing differs from the index's
        precomputed columns keeps the loop backend (the pipeline would answer a
        different model).

        Args:
            columnar: The columnar index.
            pipeline: Optional existing pipeline over ``columnar`` in this
                scorer's mode to share (a loaded bundle's, so the bundle and
                the scorer keep one set of pipeline caches); a new one is built
                when omitted.
        """
        self._columnar = columnar
        self._pipeline = None
        if (
            self._mode is ScoringMode.LANGUAGE_MODEL
            and self._lm is not None
            and self._lm.smoothing != columnar.lm_smoothing
        ):
            return
        self._pipeline = (
            pipeline if pipeline is not None else WeightPipeline(columnar, self._mode)
        )

    def __getstate__(self):
        # The columnar index persists as raw arrays next to the pickle (see
        # repro.service.persist) and is re-attached on load; pickling it here
        # would duplicate every column inside index.pkl.
        state = dict(self.__dict__)
        state["_columnar"] = None
        state["_pipeline"] = None
        return state

    def object_score(self, obj: GeoTextualObject, keywords: Iterable[str]) -> float:
        """Return the weight of one object for the given query keywords.

        ``keywords`` are used as given (queries normalise at construction, see
        :class:`~repro.core.query.LCMSRQuery`).
        """
        if self._mode is ScoringMode.TEXT_RELEVANCE:
            return self._vsm.score_keywords(obj, keywords)
        if self._mode is ScoringMode.RATING_IF_MATCH:
            return obj.rating if obj.contains_any(keywords) else 0.0
        assert self._lm is not None
        return self._lm.score(obj, keywords)

    def node_weights(
        self,
        keywords: Iterable[str],
        candidate_nodes: Optional[Iterable[int]] = None,
        window: Optional["Rectangle"] = None,
        backend: str = "auto",
    ) -> Dict[int, float]:
        """Return σ_v for every node carrying a relevant object.

        Args:
            keywords: Query keywords (normalised — lower-case, stripped,
                de-duplicated; :class:`~repro.core.query.LCMSRQuery` guarantees
                this for every query path).
            candidate_nodes: Optional restriction (e.g. the nodes inside ``Q.Λ``);
                nodes outside it are skipped.
            window: Optional spatial restriction on the *objects* themselves; when
                given, only objects located inside it contribute (this matches the
                grid-index query path, which only reads cells overlapping ``Q.Λ``).
            backend: ``"auto"`` (vectorised pipeline when a columnar index is
                attached, the loop otherwise), ``"columnar"`` (require the
                pipeline) or ``"reference"`` (force the object loop — the
                backend the parity suite checks the pipeline against).

        Returns:
            A mapping from node id to positive weight; nodes with zero weight are
            omitted (the solvers treat missing nodes as weight 0). Both backends
            return bit-identical values in identical iteration order.
        """
        keyword_list = list(keywords)
        if backend not in ("auto", "columnar", "reference"):
            raise ValueError(f"unknown node-weight backend {backend!r}")
        if backend != "reference" and self._pipeline is not None:
            return self._pipeline.node_weights(
                keyword_list, window=window, candidate_nodes=candidate_nodes
            )
        if backend == "columnar":
            raise ValueError(
                "no columnar pipeline attached to this scorer "
                "(build one with ColumnarScoringIndex.build and attach_columnar)"
            )
        allowed = set(candidate_nodes) if candidate_nodes is not None else None
        weights: Dict[int, float] = {}
        for node_id, object_ids in self._mapping.node_to_objects.items():
            if allowed is not None and node_id not in allowed:
                continue
            total = 0.0
            for object_id in object_ids:
                obj = self._corpus.get(object_id)
                if window is not None and not window.contains(obj.x, obj.y):
                    continue
                total += self.object_score(obj, keyword_list)
            if total > 0.0:
                weights[node_id] = total
        return weights
