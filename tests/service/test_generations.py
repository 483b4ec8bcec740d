"""Mutable world: delta overlay, compaction and generation-swapped serving.

The contract under test (see ``docs/ARCHITECTURE.md`` § Mutable world &
generations): after a compaction, a frozen-world query against generation N+1
is **byte-identical** to a cold rebuild of the mutated dataset — same regions,
same order, bit-equal weights and lengths — for every solver, every scoring
mode and both solver backends. Before compaction, overlay serving merges the
pending mutations into node weights at query time; for mutations that leave
the collection statistics untouched (rating changes, coordinate moves) the
overlay answers are additionally byte-identical to the post-compaction ones.

This is the mutation analogue of the solver-backend, pruning and sharding
parity suites.
"""

from __future__ import annotations

import dataclasses
import random
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.result import TopKResult
from repro.datasets.ny import build_ny_like
from repro.engine import LCMSREngine
from repro.exceptions import ArtifactError, DatasetError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.service.bundle import IndexBundle
from repro.service.generations import (
    CURRENT_NAME,
    DELTA_LOG_NAME,
    Compactor,
    DeltaOverlay,
    append_delta_ops,
    apply_ops,
    clear_delta_log,
    generation_dirs,
    next_generation_name,
    overlay_from_delta_log,
    read_delta_log,
    resolve_generation,
    set_current_generation,
    write_delta_log,
)
from repro.service.query_service import QueryRequest, QueryService
from repro.textindex.relevance import ScoringMode

SEED = 11
SOLVERS = ("app", "tgen", "greedy")


def _build_dataset():
    return build_ny_like(rows=8, cols=8, block_size=120.0, num_objects=140,
                         num_clusters=5, seed=SEED)


@pytest.fixture(scope="module")
def dataset():
    return _build_dataset()


@pytest.fixture(scope="module")
def base_bundles(dataset):
    """One frozen base bundle per scoring mode."""
    return {
        mode: IndexBundle.build(dataset.network, dataset.corpus,
                                grid_resolution=16, scoring_mode=mode)
        for mode in ScoringMode
    }


def _signature(result):
    if isinstance(result, TopKResult):
        return tuple((r.region.nodes, r.region.edges, r.weight, r.length)
                     for r in result)
    return (result.region.nodes, result.region.edges, result.weight, result.length)


def _vocab(corpus):
    return [term for term, _ in corpus.most_frequent_terms(8)]


def _mutation_script(corpus, rng, stats_preserving=False):
    """A randomized mutation script over ``corpus``.

    Returns the delta-log op list. With ``stats_preserving`` the script only
    changes ratings and coordinates (term df / |D| untouched), the envelope in
    which overlay serving is provably byte-identical to the compacted world.
    """
    vocab = _vocab(corpus)
    ids = sorted(corpus.object_ids())
    touched = rng.sample(ids, 8)
    ops = []
    for object_id in touched[:3]:
        ops.append({"op": "rate", "id": object_id,
                    "rating": round(rng.uniform(0.5, 5.0), 2)})
    for object_id in touched[3:5]:
        obj = corpus.get(object_id)
        # Coordinate move: same keyword frequencies, new location.
        ops.append({"op": "update", "id": object_id,
                    "x": obj.x + rng.uniform(-150.0, 150.0),
                    "y": obj.y + rng.uniform(-150.0, 150.0),
                    "keywords": dict(obj.keywords), "rating": obj.rating})
    if not stats_preserving:
        for object_id in touched[5:7]:
            ops.append({"op": "remove", "id": object_id})
        for offset in range(3):
            terms = rng.sample(vocab, 2) + [rng.choice(vocab)]
            ops.append({"op": "add", "id": 90000 + offset,
                        "x": rng.uniform(100.0, 700.0),
                        "y": rng.uniform(100.0, 700.0),
                        "keywords": terms,
                        "rating": round(rng.uniform(0.5, 5.0), 2)})
        # Re-mutate an already-touched object: the overlay must keep its
        # first-insertion position (dict semantics) for order parity.
        ops.append({"op": "rate", "id": touched[0], "rating": 2.25})
    return ops


def _expected_corpus(base_corpus, ops):
    """Apply ``ops`` independently of DeltaOverlay, in its documented order.

    Canonical mutated order: surviving base objects in base order (skipping
    every id with an overlay entry), then overlay entries in first-touch
    order.
    """
    entries = {}

    def current(object_id):
        if object_id in entries:
            obj = entries[object_id]
            if obj is None:
                raise AssertionError(f"script touches removed id {object_id}")
            return obj
        return base_corpus.get(object_id)

    for op in ops:
        object_id = int(op["id"])
        if op["op"] == "rate":
            obj = dataclasses.replace(current(object_id), rating=float(op["rating"]))
        elif op["op"] in ("add", "update"):
            keywords = op["keywords"]
            if isinstance(keywords, dict):
                obj = GeoTextualObject(object_id, float(op["x"]), float(op["y"]),
                                       dict(keywords), float(op.get("rating", 1.0)))
            else:
                obj = GeoTextualObject.create(object_id, op["x"], op["y"],
                                              keywords, float(op.get("rating", 1.0)))
        else:
            obj = None
        entries[object_id] = obj  # dict keeps the first-touch position
    corpus = ObjectCorpus()
    for obj in base_corpus:
        if obj.object_id in entries:
            continue
        corpus.add(obj)
    for object_id, obj in entries.items():
        if obj is not None:
            corpus.add(obj)
    return corpus


def _queries(dataset):
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    width, height = max_x - min_x, max_y - min_y
    vocab = _vocab(dataset.corpus)
    small = Rectangle.from_center(min_x + 0.4 * width, min_y + 0.4 * height, 300, 300)
    wide = Rectangle.from_center(min_x + 0.5 * width, min_y + 0.5 * height, 600, 600)
    return [
        (vocab[:2], 500.0, None),
        (vocab[1:4], 600.0, wide),
        (vocab[:3], 400.0, small),
    ], small


# ------------------------------------------------------------- mutation parity
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_post_compaction_byte_identical_to_cold_rebuild(dataset, base_bundles, mode):
    """The tentpole contract: generation N+1 == cold rebuild of the mutated set."""
    rng = random.Random(SEED + 100)
    ops = _mutation_script(dataset.corpus, rng)
    engine = LCMSREngine.from_bundle(base_bundles[mode])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    Compactor(engine).compact()

    cold_bundle = IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops),
        grid_resolution=16, scoring_mode=mode,
    )
    cold = LCMSREngine.from_bundle(cold_bundle)

    queries, small = _queries(dataset)
    for keywords, delta, region in queries:
        for name in SOLVERS:
            assert _signature(engine.query(keywords, delta=delta, region=region,
                                           algorithm=name)) == \
                _signature(cold.query(keywords, delta=delta, region=region,
                                      algorithm=name)), (mode, name, keywords)
            assert _signature(engine.query_topk(keywords, delta=delta, k=3,
                                                region=region, algorithm=name)) == \
                _signature(cold.query_topk(keywords, delta=delta, k=3,
                                           region=region, algorithm=name))
    # Exact on a tiny window only (exponential solver).
    keywords, delta, _ = queries[0]
    assert _signature(engine.query(keywords, delta=300.0, region=small,
                                   algorithm="exact")) == \
        _signature(cold.query(keywords, delta=300.0, region=small,
                              algorithm="exact"))


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_post_compaction_instance_parity(dataset, base_bundles, mode):
    rng = random.Random(SEED + 200)
    ops = _mutation_script(dataset.corpus, rng)
    engine = LCMSREngine.from_bundle(base_bundles[mode])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    Compactor(engine).compact()
    cold = LCMSREngine.from_bundle(IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops),
        grid_resolution=16, scoring_mode=mode,
    ))
    queries, _ = _queries(dataset)
    from repro.core.query import LCMSRQuery

    for keywords, delta, region in queries:
        query = LCMSRQuery.create(keywords, delta=delta, region=region)
        hot = engine.build_instance(query)
        ref = cold.build_instance(query)
        for name in SOLVERS:
            assert _signature(engine.solver(name).solve(hot)) == \
                _signature(cold.solver(name).solve(ref))


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_overlay_serving_matches_compacted_for_stats_preserving_script(
        dataset, base_bundles, mode):
    """Rating changes and coordinate moves: overlay answers == generation N+1."""
    rng = random.Random(SEED + 300)
    ops = _mutation_script(dataset.corpus, rng, stats_preserving=True)
    engine = LCMSREngine.from_bundle(base_bundles[mode])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)

    queries, _ = _queries(dataset)
    before = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    Compactor(engine).compact()
    after = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    assert before == after


def test_overlay_serving_merges_full_script_in_rating_mode(dataset, base_bundles):
    """In rating mode the overlay is exact for the *full* script (adds/removes
    included): object scores don't depend on collection statistics."""
    rng = random.Random(SEED + 400)
    ops = _mutation_script(dataset.corpus, rng)
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    queries, _ = _queries(dataset)
    before = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    Compactor(engine).compact()
    after = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    assert before == after


def test_overlay_object_in_base_empty_window_is_found(dataset, base_bundles):
    """The zero-mass window skip must not hide overlay-only objects."""
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    window = Rectangle(min_x - 300.0, min_y - 300.0, min_x + 60.0, min_y + 60.0)
    empty = engine.query(["zzz-nowhere"], delta=400.0, region=window)
    assert empty.is_empty
    overlay = DeltaOverlay(engine.bundle)
    overlay.add_object(GeoTextualObject.create(
        91000, min_x + 10.0, min_y + 10.0, ["zzz-nowhere"], rating=2.0))
    engine.attach_overlay(overlay)
    found = engine.query(["zzz-nowhere"], delta=400.0, region=window)
    assert not found.is_empty
    assert found.weight == pytest.approx(2.0)


# ------------------------------------------------------------ overlay contract
class TestOverlayValidation:
    @pytest.fixture()
    def overlay(self, base_bundles):
        return DeltaOverlay(base_bundles[ScoringMode.TEXT_RELEVANCE])

    def test_add_existing_id_rejected(self, overlay, dataset):
        existing = next(iter(dataset.corpus))
        with pytest.raises(DatasetError, match="live in the merged view"):
            overlay.add_object(existing)

    def test_update_unknown_id_rejected(self, overlay):
        with pytest.raises(DatasetError, match="unknown"):
            overlay.update_object(GeoTextualObject.create(87654, 1.0, 1.0, ["x"]))

    def test_remove_unknown_id_rejected(self, overlay):
        with pytest.raises(DatasetError, match="unknown"):
            overlay.remove_object(87654)

    def test_rate_unknown_id_rejected(self, overlay):
        with pytest.raises(DatasetError, match="unknown"):
            overlay.set_rating(87654, 3.0)

    def test_frozen_overlay_rejects_mutations(self, overlay, dataset):
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 3.0)
        overlay.freeze()
        with pytest.raises(DatasetError, match="frozen"):
            overlay.remove_object(next(iter(dataset.corpus)).object_id)
        overlay.unfreeze()
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 2.0)

    def test_remove_then_read_is_unknown(self, overlay, dataset):
        victim = next(iter(dataset.corpus)).object_id
        overlay.remove_object(victim)
        assert not overlay.is_live(victim)
        with pytest.raises(DatasetError, match="unknown"):
            overlay.get(victim)

    def test_version_counts_mutations(self, overlay, dataset):
        assert overlay.version == 0 and not overlay.has_pending
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 3.0)
        assert overlay.version == 1 and overlay.has_pending
        assert overlay.pending_count == 1

    def test_compact_without_pending_rejected(self, base_bundles):
        engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
        with pytest.raises(DatasetError, match="nothing to compact"):
            Compactor(engine).compact()


# ----------------------------------------------------------- delta log on disk
class TestDeltaLog:
    def test_roundtrip_append_clear(self, tmp_path):
        assert read_delta_log(tmp_path) == []
        ops = [{"op": "rate", "id": 1, "rating": 2.0}]
        write_delta_log(tmp_path, ops)
        assert read_delta_log(tmp_path) == ops
        total = append_delta_ops(tmp_path, [{"op": "remove", "id": 2}])
        assert total == 2
        assert [op["op"] for op in read_delta_log(tmp_path)] == ["rate", "remove"]
        clear_delta_log(tmp_path)
        assert read_delta_log(tmp_path) == []
        assert not (tmp_path / DELTA_LOG_NAME).exists()

    def test_malformed_log_rejected_with_recovery_hint(self, tmp_path):
        (tmp_path / DELTA_LOG_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="delete the file"):
            read_delta_log(tmp_path)

    def test_unknown_op_kind_rejected(self, base_bundles):
        overlay = DeltaOverlay(base_bundles[ScoringMode.TEXT_RELEVANCE])
        with pytest.raises(ArtifactError, match="unknown mutation op"):
            apply_ops(overlay, [{"op": "teleport", "id": 1}])

    def test_overlay_from_empty_log_is_none(self, base_bundles, tmp_path):
        assert overlay_from_delta_log(
            base_bundles[ScoringMode.TEXT_RELEVANCE], tmp_path) is None

    @staticmethod
    def _log_ops(count, start=0):
        """Ops of every kind and shape: nested keyword dicts and lists, floats,
        non-ASCII text (escaped by the encoder)."""
        ops = []
        for i in range(start, start + count):
            kind = i % 4
            if kind == 0:
                ops.append({"op": "add", "id": 90000 + i, "x": 10.5 + i, "y": 1e-7 * i,
                            "keywords": ["café", "bar"], "rating": 2.5})
            elif kind == 1:
                ops.append({"op": "update", "id": i, "x": -3.25, "y": 7.0,
                            "keywords": {"cafe": 2, "museum": 1}, "rating": 0.1 * i})
            elif kind == 2:
                ops.append({"op": "rate", "id": i, "rating": 1.0 / 3.0})
            else:
                ops.append({"op": "remove", "id": i})
        return ops

    def _expected_bytes(self, tmp_path, ops):
        reference = tmp_path / "reference"
        reference.mkdir(exist_ok=True)
        write_delta_log(reference, ops)
        return (reference / DELTA_LOG_NAME).read_bytes()

    def test_single_op_appends_equal_one_full_write(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        ops = self._log_ops(13)
        for count, op in enumerate(ops, start=1):
            assert append_delta_ops(root, [op]) == count
            assert (root / DELTA_LOG_NAME).read_bytes() == \
                self._expected_bytes(tmp_path, ops[:count])
        assert read_delta_log(root) == ops
        # An append of nothing still leaves write_delta_log's document.
        assert append_delta_ops(root, []) == len(ops)
        assert (root / DELTA_LOG_NAME).read_bytes() == self._expected_bytes(tmp_path, ops)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert append_delta_ops(empty, []) == 0
        assert (empty / DELTA_LOG_NAME).read_bytes() == self._expected_bytes(tmp_path, [])

    def test_external_rewrite_between_appends_is_detected(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        first = self._log_ops(3)
        for op in first:
            append_delta_ops(root, [op])
        # Another writer (a CLI `mutate` in another process) replaces the log
        # with a same-size document holding different ops.
        swapped = [dict(op) for op in first]
        swapped[2]["rating"] = 2.0 / 3.0
        write_delta_log(root, swapped)
        assert len((root / DELTA_LOG_NAME).read_bytes()) == \
            len(self._expected_bytes(tmp_path, first))
        extra = self._log_ops(1, start=7)
        assert append_delta_ops(root, extra) == 4
        assert (root / DELTA_LOG_NAME).read_bytes() == \
            self._expected_bytes(tmp_path, swapped + extra)

    def test_clear_between_appends_is_detected(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        for op in self._log_ops(5):
            append_delta_ops(root, [op])
        clear_delta_log(root)
        later = self._log_ops(2, start=20)
        assert append_delta_ops(root, later[:1]) == 1
        assert append_delta_ops(root, later[1:]) == 2
        assert (root / DELTA_LOG_NAME).read_bytes() == self._expected_bytes(tmp_path, later)
        # Cleared and rewritten with the very same bytes the appender last
        # wrote: the cached fragments still describe the file, so they are used.
        clear_delta_log(root)
        write_delta_log(root, later)
        assert append_delta_ops(root, self._log_ops(1, start=30)) == 3
        assert read_delta_log(root) == later + self._log_ops(1, start=30)


# --------------------------------------------------------- end-to-end, on disk
def test_disk_mutate_compact_serves_cold_equivalent(dataset, base_bundles, tmp_path):
    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.TEXT_RELEVANCE]
    bundle.save(root)
    rng = random.Random(SEED + 500)
    ops = _mutation_script(dataset.corpus, rng)
    append_delta_ops(root, ops)

    # Overlay serving straight from the artifact root.
    live = LCMSREngine.from_artifact(root)
    assert live.overlay is not None and live.overlay.has_pending
    queries, _ = _queries(dataset)
    keywords, delta, region = queries[1]
    live.query(keywords, delta=delta, region=region)  # overlay path exercises

    report = Compactor(live, root=root).compact()
    assert report.generation == "gen-0001"
    assert (root / "gen-0001" / "manifest.json").is_file()
    assert (root / CURRENT_NAME).read_text(encoding="utf-8").strip() == "gen-0001"
    assert read_delta_log(root) == []
    assert live.overlay is None  # swap dropped the overlay
    assert live.bundle_generation == 1

    # A fresh process (from_artifact) now serves the new generation, and it is
    # byte-identical to a cold rebuild of the mutated corpus.
    fresh = LCMSREngine.from_artifact(root)
    assert fresh.overlay is None
    cold = LCMSREngine.from_bundle(IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops),
        grid_resolution=16, scoring_mode=ScoringMode.TEXT_RELEVANCE,
    ))
    for keywords, delta, region in queries:
        for name in SOLVERS:
            assert _signature(fresh.query(keywords, delta=delta, region=region,
                                          algorithm=name)) == \
                _signature(cold.query(keywords, delta=delta, region=region,
                                      algorithm=name))
    # The swapped live engine agrees with the fresh load.
    assert _signature(live.query(keywords, delta=delta, region=region)) == \
        _signature(fresh.query(keywords, delta=delta, region=region))


def test_second_compaction_gets_next_generation_number(dataset, base_bundles,
                                                       tmp_path):
    root = tmp_path / "artifact"
    base_bundles[ScoringMode.RATING_IF_MATCH].save(root)
    some_id = next(iter(dataset.corpus)).object_id
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 4.0}])
    engine = LCMSREngine.from_artifact(root)
    assert Compactor(engine, root=root).compact().generation == "gen-0001"
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 1.5}])
    engine = LCMSREngine.from_artifact(root)
    assert engine.overlay is not None
    report = Compactor(engine, root=root).compact()
    assert report.generation == "gen-0002"
    assert resolve_generation(root) == root / "gen-0002"


def test_one_compaction_hashes_the_dataset_once(dataset, base_bundles, tmp_path,
                                                monkeypatch):
    from repro.service import persist

    root = tmp_path / "artifact"
    base_bundles[ScoringMode.TEXT_RELEVANCE].save(root)
    some_id = next(iter(dataset.corpus)).object_id
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 4.0}])
    engine = LCMSREngine.from_artifact(root)
    calls = []
    real = persist.dataset_fingerprint

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(persist, "dataset_fingerprint", counting)
    report = Compactor(engine, root=root).compact()
    assert len(calls) == 1
    # The report, the new manifest and the swapped-in bundle all agree, and
    # reading them back hashes nothing more.
    assert report.fingerprint == persist.read_manifest(report.path).fingerprint
    assert engine.bundle.fingerprint() == report.fingerprint
    assert len(calls) == 1


# ------------------------------------------------------------ generation store
class TestGenerationStore:
    def test_resolve_without_pointer_is_root(self, tmp_path):
        assert resolve_generation(tmp_path) == tmp_path

    def test_next_generation_name_never_reuses(self, tmp_path):
        assert next_generation_name(tmp_path) == "gen-0001"
        (tmp_path / "gen-0007").mkdir()
        assert next_generation_name(tmp_path) == "gen-0008"

    def test_partial_generation_ignored_with_warning(self, tmp_path):
        partial = tmp_path / "gen-0001"
        partial.mkdir()
        (partial / "scoring.npz").write_bytes(b"half-written")
        with pytest.warns(UserWarning, match="partially-written"):
            dirs = generation_dirs(tmp_path)
        assert dirs == []
        with pytest.warns(UserWarning, match="mid-compaction"):
            assert resolve_generation(tmp_path) == tmp_path

    def test_dangling_current_pointer_rejected_with_recovery(self, tmp_path):
        (tmp_path / CURRENT_NAME).write_text("gen-0003\n", encoding="utf-8")
        with pytest.raises(ArtifactError, match="compact"):
            resolve_generation(tmp_path)

    def test_current_pointer_with_invalid_name_rejected(self, tmp_path):
        (tmp_path / CURRENT_NAME).write_text("../escape\n", encoding="utf-8")
        with pytest.raises(ArtifactError):
            resolve_generation(tmp_path)

    def test_set_current_requires_manifest(self, tmp_path):
        (tmp_path / "gen-0001").mkdir()
        with pytest.raises(ArtifactError, match="refusing"):
            set_current_generation(tmp_path, "gen-0001")


# ----------------------------------------------- cache identity and staleness
def test_services_over_different_artifacts_never_cross_pollinate(base_bundles):
    """Regression: cache keys must carry the bundle identity."""
    other = build_ny_like(rows=8, cols=8, block_size=120.0, num_objects=140,
                          num_clusters=5, seed=SEED + 1)
    engine_a = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
    engine_b = LCMSREngine.from_bundle(IndexBundle.build(
        other.network, other.corpus, grid_resolution=16,
        scoring_mode=ScoringMode.TEXT_RELEVANCE))
    assert engine_a.bundle_cache_key != engine_b.bundle_cache_key

    # A mutation + compaction of the second world keeps the keys apart too
    # (fingerprint and generation both move).
    overlay = DeltaOverlay(engine_b.bundle)
    some = next(iter(engine_b.corpus))
    overlay.set_rating(some.object_id, 4.9)
    engine_b.attach_overlay(overlay)
    Compactor(engine_b).compact()
    assert engine_a.bundle_cache_key != engine_b.bundle_cache_key

    vocab = _vocab(engine_a.corpus)
    request = QueryRequest.create(vocab[:2], delta=500.0)
    with QueryService(engine_a, max_workers=2) as service_a, \
            QueryService(engine_b, max_workers=2) as service_b:
        service_a.run_batch([request])
        service_b.run_batch([request])
        keys_a = set(service_a._result_cache.keys())
        keys_b = set(service_b._result_cache.keys())
        assert keys_a and keys_b and not (keys_a & keys_b)
        assert {key.bundle_key for key in keys_a} == {engine_a.bundle_cache_key}
        assert {key.bundle_key for key in keys_b} == {engine_b.bundle_cache_key}


# --------------------------------------------------- sharded serving + swaps
def _mutate_and_compact(root, dataset):
    some_id = next(iter(dataset.corpus)).object_id
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 4.2}])
    engine = LCMSREngine.from_artifact(root)
    return Compactor(engine, root=root).compact()


def test_compaction_mirrors_shard_set_onto_new_generation(dataset, base_bundles,
                                                          tmp_path):
    from repro.service.sharding import build_shards, load_shard_set

    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.RATING_IF_MATCH]
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=500.0,
                 base_fingerprint=manifest.fingerprint)
    report = _mutate_and_compact(root, dataset)
    assert report.resharded
    shard_set = load_shard_set(root / "gen-0001")
    assert shard_set is not None and shard_set.num_shards == 2
    assert shard_set.halo_margin == 500.0


def test_stale_shard_set_against_new_generation_rejected(dataset, base_bundles,
                                                         tmp_path):
    import shutil

    from repro.service.sharding import (
        SHARD_SET_NAME,
        SHARDS_DIRNAME,
        build_shards,
        load_shard_set,
    )

    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.RATING_IF_MATCH]
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=500.0,
                 base_fingerprint=manifest.fingerprint)
    _mutate_and_compact(root, dataset)
    generation = root / "gen-0001"
    # Simulate an operator copying the *base* shard set over the new
    # generation's: its recorded base fingerprint no longer matches.
    shutil.copy2(root / SHARDS_DIRNAME / SHARD_SET_NAME,
                 generation / SHARDS_DIRNAME / SHARD_SET_NAME)
    with pytest.raises(ArtifactError, match="stale shard set.*rebuild"):
        load_shard_set(generation)


def test_sharded_service_refresh_swaps_generation(dataset, base_bundles, tmp_path):
    from repro.service.sharding import ShardedQueryService, build_shards

    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.RATING_IF_MATCH]
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=500.0,
                 base_fingerprint=manifest.fingerprint)
    vocab = _vocab(dataset.corpus)
    request = QueryRequest.create(vocab[:2], delta=450.0)
    with ShardedQueryService(root, num_workers=2) as service:
        assert service.served_path == root
        service.run_batch([request])  # pre-swap serving, warms the old pool
        _mutate_and_compact(root, dataset)
        assert service.refresh() is True
        assert service.served_path == root / "gen-0001"
        assert service.refresh() is False  # already serving CURRENT
        after = service.run_batch([request])[0]
        expected = LCMSREngine.from_artifact(root).query(
            request.keywords, delta=request.delta, region=request.region)
        assert _signature(after) == _signature(expected)


def test_generation_swap_invalidates_service_caches(dataset, base_bundles):
    """A swap retires every cache entry keyed to the old generation."""
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
    vocab = _vocab(dataset.corpus)
    requests = [QueryRequest.create(vocab[i:i + 2], delta=500.0) for i in range(4)]
    with QueryService(engine, max_workers=2) as service:
        service.run_batch(requests)
        old_key = engine.bundle_cache_key
        assert {k.bundle_key for k in service._result_cache.keys()} == {old_key}

        overlay = DeltaOverlay(engine.bundle)
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 3.3)
        engine.attach_overlay(overlay)
        Compactor(engine).compact()
        new_key = engine.bundle_cache_key
        assert new_key != old_key

        service.run_batch(requests[:1])
        result_keys = set(service._result_cache.keys())
        instance_keys = set(service._instance_cache.keys())
        assert result_keys and {k.bundle_key for k in result_keys} == {new_key}
        assert {k.bundle_key for k in instance_keys} <= {new_key}


def test_concurrent_queries_during_generation_swap(dataset, base_bundles):
    """Hammer a service through a swap: nothing stale survives the dust."""
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    vocab = _vocab(dataset.corpus)
    overlay = DeltaOverlay(engine.bundle)
    victim = next(iter(dataset.corpus))
    overlay.set_rating(victim.object_id, 4.7)
    engine.attach_overlay(overlay)
    compactor = Compactor(engine)

    requests = [QueryRequest.create(vocab[i % 4:i % 4 + 2], delta=450.0)
                for i in range(8)]
    errors = []
    started = threading.Barrier(5)

    with QueryService(engine, max_workers=4) as service:
        def hammer():
            try:
                started.wait(timeout=10)
                for _ in range(6):
                    service.run_batch(requests)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait(timeout=10)
        report = compactor.compact()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert report.mutations == 1

        # One post-swap query; afterwards every surviving cache entry must be
        # keyed to the new generation — no entry from generation N remains.
        service.run_batch(requests[:1])
        new_key = engine.bundle_cache_key
        assert ":g1:" in new_key
        for key in service._result_cache.keys():
            assert key.bundle_key == new_key
        for key in service._instance_cache.keys():
            assert key.bundle_key == new_key

        # And the served answers reflect the compacted world.
        expected_engine = LCMSREngine.from_bundle(engine.bundle)
        for request in requests[:3]:
            got = service.submit(request).result(timeout=30)
            want = expected_engine.query(request.keywords, delta=request.delta,
                                         region=request.region)
            assert _signature(got) == _signature(want)


# ------------------------------------------- columnar merge vs the loop oracle
def _loop_merged_node_order(overlay):
    """The per-node tuple loop the columnar merge replaced (kept as the oracle)."""
    index = overlay._index
    positions = np.asarray(index.obj_node_pos, dtype=np.int64)
    surviving = (~overlay._superseded_rows()) & (positions >= 0)
    rows = np.flatnonzero(surviving)
    sentinel = np.iinfo(np.int64).max
    first_touch = np.full(index.num_nodes, sentinel, dtype=np.int64)
    np.minimum.at(first_touch, positions[rows], rows)
    touched = np.flatnonzero(first_touch < sentinel)
    ordered = touched[np.argsort(first_touch[touched], kind="stable")]
    node_ids = index.node_ids
    node_x = index.node_x
    node_y = index.node_y
    order = [
        (int(node_ids[pos]), int(pos), float(node_x[pos]), float(node_y[pos]))
        for pos in ordered
    ]
    seen = {entry[0] for entry in order}
    position_of = overlay._node_positions()
    graph = overlay._bundle.graph_view()
    for object_id, obj in overlay._entries.items():
        if obj is None:
            continue
        node = overlay._nodes[object_id]
        if node in seen:
            continue
        seen.add(node)
        pos = position_of.get(node, -1)
        if pos >= 0:
            x, y = float(node_x[pos]), float(node_y[pos])
        else:
            x, y = graph.coords(node)
        order.append((node, pos, float(x), float(y)))
    return tuple(order)


def _loop_node_weights(overlay, keywords, window=None, candidate_nodes=None,
                       node_window=None):
    """The scalar merge loop the columnar merge replaced (kept as the oracle)."""
    keyword_list = list(keywords)
    base_sums = overlay._pipeline.node_sums(
        keyword_list, window=window, exclude_rows=overlay._superseded_rows()
    )
    query_vector = (
        overlay._bundle.vsm.query_vector(keyword_list)
        if overlay._mode is ScoringMode.TEXT_RELEVANCE
        else None
    )
    position_of = overlay._node_positions()
    totals = {}
    for object_id, obj in overlay._entries.items():
        if obj is None:
            continue
        if window is not None and not window.contains(obj.x, obj.y):
            continue
        score = overlay._score_object(obj, keyword_list, query_vector)
        node = overlay._nodes[object_id]
        if node not in totals:
            pos = position_of.get(node, -1)
            totals[node] = float(base_sums[pos]) if pos >= 0 else 0.0
        totals[node] = totals[node] + score
    weights = {}
    for node, pos, x, y in _loop_merged_node_order(overlay):
        value = totals.get(node)
        if value is None:
            if pos < 0:
                continue
            value = float(base_sums[pos])
        if not value > 0.0:
            continue
        if node_window is not None and not node_window.contains(x, y):
            continue
        weights[node] = value
    if candidate_nodes is not None:
        allowed = (
            candidate_nodes
            if isinstance(candidate_nodes, (set, frozenset))
            else set(candidate_nodes)
        )
        weights = {n: w for n, w in weights.items() if n in allowed}
    return weights


def _bits(weights):
    return [(node, value.hex()) for node, value in weights.items()]


def _point_strategy(dataset, mapped, unmapped):
    """Object coordinates: anywhere, on a node, or equidistant to two nodes."""
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    anywhere = st.tuples(st.floats(min_x - 100.0, max_x + 100.0),
                         st.floats(min_y - 100.0, max_y + 100.0))
    network = dataset.network
    on_mapped = st.sampled_from(sorted(mapped)).map(network.coords)
    # Nodes no base object maps to: overlay objects there sit at base
    # position -1 in the merged order.
    on_unmapped = st.sampled_from(sorted(unmapped)).map(network.coords)
    between = st.tuples(st.sampled_from(sorted(network.node_ids())),
                        st.sampled_from(sorted(network.node_ids()))).map(
        lambda pair: tuple((a + b) / 2.0 for a, b in zip(network.coords(pair[0]),
                                                         network.coords(pair[1]))))
    return st.one_of(anywhere, on_mapped, on_unmapped, between)


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_columnar_merge_equals_loop_oracle(dataset, base_bundles, mode):
    """Random add/update/remove/rate scripts: same dict order, bit-equal values."""
    bundle = base_bundles[mode]
    vocab = _vocab(dataset.corpus)
    mapped = {int(node) for node in bundle.columnar.node_ids}
    unmapped = set(dataset.network.node_ids()) - mapped
    assert unmapped, "the fixture world must have nodes without objects"
    base_ids = sorted(dataset.corpus.object_ids())
    points = _point_strategy(dataset, mapped, unmapped)
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    rectangles = st.one_of(st.none(), st.tuples(
        st.floats(min_x - 50.0, max_x), st.floats(min_y - 50.0, max_y),
        st.floats(50.0, 900.0), st.floats(50.0, 900.0)).map(
        lambda r: Rectangle(r[0], r[1], r[0] + r[2], r[1] + r[3])))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def check(data):
        overlay = DeltaOverlay(bundle)
        live = set(base_ids)
        next_id = 95000
        for _ in range(data.draw(st.integers(1, 14), label="ops")):
            kind = data.draw(st.sampled_from(["add", "update", "remove", "rate"]))
            if kind == "add" or not live:
                x, y = data.draw(points)
                terms = data.draw(st.lists(st.sampled_from(vocab), min_size=1,
                                           max_size=3))
                overlay.add_object(GeoTextualObject.create(
                    next_id, x, y, terms,
                    rating=data.draw(st.floats(0.0, 5.0))))
                live.add(next_id)
                next_id += 1
                continue
            target = data.draw(st.sampled_from(sorted(live)))
            if kind == "remove":
                overlay.remove_object(target)
                live.discard(target)
            elif kind == "rate":
                overlay.set_rating(target, data.draw(st.floats(0.0, 5.0)))
            else:
                current = overlay.get(target)
                x, y = data.draw(points)
                keywords = dict(current.keywords)
                if data.draw(st.booleans(), label="retext"):
                    keywords = {data.draw(st.sampled_from(vocab)): 1}
                overlay.update_object(dataclasses.replace(
                    current, x=x, y=y, keywords=keywords))
            # Reads between writes exercise the per-version order cache.
            if data.draw(st.booleans(), label="read"):
                assert _bits(overlay.node_weights(vocab[:2])) == \
                    _bits(_loop_node_weights(overlay, vocab[:2]))
        keywords = data.draw(st.lists(st.sampled_from(vocab), min_size=1,
                                      max_size=3, unique=True))
        window = data.draw(rectangles, label="window")
        node_window = data.draw(st.one_of(st.just(window), rectangles),
                                label="node_window")
        candidates = data.draw(st.one_of(
            st.none(),
            st.sets(st.sampled_from(sorted(dataset.network.node_ids())))),
            label="candidate_nodes")
        got = overlay.node_weights(keywords, window=window,
                                   candidate_nodes=candidates,
                                   node_window=node_window)
        want = _loop_node_weights(overlay, keywords, window=window,
                                  candidate_nodes=candidates,
                                  node_window=node_window)
        assert _bits(got) == _bits(want)

    check()


# -------------------------------------------- compaction with mapping reuse
def _equidistant_points(network):
    """Edge midpoints whose two endpoints are exactly equally far (float ties)."""
    points = []
    for edge in network.edges():
        (ux, uy), (vx, vy) = network.coords(edge.u), network.coords(edge.v)
        mx, my = (ux + vx) / 2.0, (uy + vy) / 2.0
        if (ux - mx) ** 2 + (uy - my) ** 2 == (vx - mx) ** 2 + (vy - my) ** 2:
            points.append((mx, my))
    return points


def _artifact_bytes(path):
    return {child.relative_to(path).as_posix(): child.read_bytes()
            for child in sorted(path.rglob("*")) if child.is_file()}


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_mapping_reuse_compaction_byte_identical_to_cold_rebuild(
        dataset, base_bundles, mode, tmp_path):
    """The compactor hands build_streaming the known object → node assignment
    instead of re-mapping; the generation it writes must still equal, byte for
    byte, a streamed build that maps every object from scratch — including
    objects moved by updates and objects sitting exactly between two nodes
    (smallest node id wins the tie on both paths)."""
    ties = _equidistant_points(dataset.network)
    assert len(ties) >= 6, "the fixture world must have exact midpoint ties"
    rng = random.Random(SEED + 700)
    ops = _mutation_script(dataset.corpus, rng)
    vocab = _vocab(dataset.corpus)
    moved = rng.sample(sorted(dataset.corpus.object_ids()), 6)
    for index, object_id in enumerate(moved[:3]):
        obj = dataset.corpus.get(object_id)
        x, y = ties[index]
        ops.append({"op": "update", "id": object_id, "x": x, "y": y,
                    "keywords": dict(obj.keywords), "rating": obj.rating})
    for index, object_id in enumerate(moved[3:]):
        obj = dataset.corpus.get(object_id)
        ops.append({"op": "update", "id": object_id,
                    "x": obj.x + rng.uniform(-400.0, 400.0),
                    "y": obj.y + rng.uniform(-400.0, 400.0),
                    "keywords": dict(obj.keywords), "rating": obj.rating})
    for index, (x, y) in enumerate(ties[3:6]):
        ops.append({"op": "add", "id": 93000 + index, "x": x, "y": y,
                    "keywords": vocab[index:index + 2], "rating": 1.5})

    root = tmp_path / "artifact"
    base_bundles[mode].save(root)
    engine = LCMSREngine.from_artifact(root)
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    Compactor(engine, root=root).compact()

    corpus = _expected_corpus(dataset.corpus, ops)
    # The same (thawed) road network the compactor built from, re-mapped.
    cold = IndexBundle.build_streaming(engine.bundle.network, iter(corpus),
                                       grid_resolution=16, scoring_mode=mode)
    assert list(engine.bundle.mapping.node_to_objects.items()) == \
        list(cold.mapping.node_to_objects.items())
    assert engine.bundle.mapping.object_to_node == cold.mapping.object_to_node
    cold.save(tmp_path / "cold")
    assert _artifact_bytes(root / "gen-0001") == _artifact_bytes(tmp_path / "cold")


def test_build_streaming_rejects_an_incomplete_assignment(dataset):
    corpus = list(dataset.corpus)
    partial = {obj.object_id: 0 for obj in corpus[1:]}
    with pytest.raises(DatasetError, match="no node in the given assignment"):
        IndexBundle.build_streaming(dataset.network, iter(corpus), node_of=partial)


# ------------------------------------- overlay identity and retired-entry sweep
def test_replaced_overlay_never_serves_the_old_overlays_answer(dataset, base_bundles):
    """Regression: two overlays attached in turn both count versions from 0.

    A Greedy answer cached under overlay A at version 1 must not be served
    under overlay B at version 1; the key carries each overlay's serial.
    """
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    vocab = _vocab(dataset.corpus)
    request = QueryRequest.create(vocab[:2], delta=500.0, algorithm="greedy")
    answer = engine.query(request.keywords, delta=request.delta, algorithm="greedy")
    carrier = next(iter(answer.region.nodes))
    victim = engine.mapping.objects_at(carrier)[0]
    with QueryService(engine, max_workers=1) as service:
        overlay_a = DeltaOverlay(engine.bundle)
        overlay_a.set_rating(victim, 9.0)
        engine.attach_overlay(overlay_a)
        key_a = engine.bundle_cache_key
        service.execute(request)

        overlay_b = DeltaOverlay(engine.bundle)
        overlay_b.remove_object(victim)
        engine.attach_overlay(overlay_b)
        assert overlay_a.version == overlay_b.version == 1
        assert overlay_a.serial != overlay_b.serial
        assert engine.bundle_cache_key != key_a

        served = service.execute(request)
        with QueryService(engine, max_workers=1) as fresh:
            expected = fresh.execute(request)
        assert _signature(served) == _signature(expected)


def test_mutation_sweeps_entries_keyed_to_retired_overlay_versions(dataset,
                                                                  base_bundles):
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
    overlay = DeltaOverlay(engine.bundle)
    engine.attach_overlay(overlay)
    vocab = _vocab(dataset.corpus)
    requests = [QueryRequest.create(vocab[i:i + 2], delta=450.0, algorithm=name)
                for i in range(3) for name in ("greedy", "app")]
    ids = iter(sorted(dataset.corpus.object_ids()))
    with QueryService(engine, max_workers=2) as service:
        for step in range(3):
            service.run_batch(requests)
            current = engine.bundle_cache_key
            assert {k.bundle_key for k in service._result_cache.keys()} == {current}
            assert {k.bundle_key for k in service._instance_cache.keys()} == {current}
            overlay.set_rating(next(ids), 1.0 + step)
            assert engine.bundle_cache_key != current
            # The first read after the mutation sweeps every retired entry.
            service.execute(requests[0])
            live = engine.bundle_cache_key
            assert {k.bundle_key for k in service._result_cache.keys()} == {live}
            assert {k.bundle_key for k in service._instance_cache.keys()} <= {live}


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_tail_node_with_no_in_window_entry_gets_no_weight(dataset, base_bundles, mode):
    """An overlay-only node (base position -1) whose entries all lie outside
    ``window`` carries no weight, whatever the base sums hold."""
    bundle = base_bundles[mode]
    index = bundle.columnar
    mapped = {int(node) for node in index.node_ids}
    unmapped = sorted(set(dataset.network.node_ids()) - mapped)
    # A window around one object of the last base node: the base sum at the
    # last table position (what index -1 would read) is positive.
    last = index.num_nodes - 1
    row = int(index.object_rows_at_node(last)[0])
    anchor = dataset.corpus.get(int(index.object_ids[row]))
    window = Rectangle(anchor.x - 1.0, anchor.y - 1.0, anchor.x + 1.0, anchor.y + 1.0)
    keywords = sorted(anchor.keywords)[:1]
    assert bundle.weight_pipeline().node_sums(keywords, window=window)[last] > 0.0

    overlay = DeltaOverlay(bundle)
    far = next(node for node in unmapped
               if not window.contains(*dataset.network.coords(node)))
    x, y = dataset.network.coords(far)
    overlay.add_object(GeoTextualObject.create(96000, x, y, keywords, rating=3.0))
    weights = overlay.node_weights(keywords, window=window)
    assert far not in weights
    assert _bits(weights) == _bits(_loop_node_weights(overlay, keywords, window=window))
