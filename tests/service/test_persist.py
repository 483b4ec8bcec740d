"""On-disk index-bundle artifacts: round trips, integrity checks, determinism.

Covers the guarantees :mod:`repro.service.persist` documents:

* save → load → query equality with the in-memory bundle (all solvers, top-k,
  NY-style and USANW-style datasets),
* manifest enforcement — unsupported format versions and checksum mismatches
  (corruption) are rejected with :class:`ArtifactError`,
* the memory-mapped CSR arrays come back read-only,
* two same-seed builds produce byte-identical artifacts (the determinism
  regression test for the dataset generators and the serialisation layer),
* the fingerprint-keyed artifact cache used by the evaluation runner,
* the deferred object graph: serving a loaded artifact never unpickles
  ``index.pkl``; the first write-path access loads it exactly once, and a
  replaced or corrupt file raises :class:`ArtifactError` at that access.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.anytime import QueryPolicy
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.result import TopKResult
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.usanw import build_usanw_like
from repro.engine import LCMSREngine
from repro.evaluation.runner import ExperimentRunner
from repro.exceptions import ArtifactError
from repro.network.subgraph import Rectangle
from repro.service import (
    FORMAT_VERSION,
    IndexBundle,
    QueryRequest,
    QueryService,
    cached_dataset_bundle,
    dataset_fingerprint,
    read_manifest,
    verify_artifact,
)
from repro.service.generations import Compactor, DeltaOverlay, apply_op
from repro.service.persist import INDEX_NAME, MANIFEST_NAME, NETWORK_NAME, SCORING_NAME
from repro.service.sharding import build_shards
from repro.textindex.relevance import RelevanceScorer, ScoringMode


def _tiny_dataset(seed: int = 3):
    return build_ny_like(rows=12, cols=12, block_size=120.0, num_objects=220,
                         num_clusters=5, seed=seed)


def _assert_same_result(result_a, result_b):
    assert result_a.region.nodes == result_b.region.nodes
    assert result_a.region.edges == result_b.region.edges
    assert result_a.length == pytest.approx(result_b.length, abs=1e-12)
    assert result_a.weight == pytest.approx(result_b.weight, abs=1e-12)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One saved artifact (plus its source bundle) shared by the read-only tests."""
    dataset = _tiny_dataset()
    bundle = IndexBundle.from_dataset(dataset)
    path = tmp_path_factory.mktemp("artifacts") / "tiny-ny"
    bundle.save(path)
    return path, bundle


class TestRoundTrip:
    def test_loaded_bundle_answers_identically_for_all_solvers(self, artifact):
        path, bundle = artifact
        built_engine = LCMSREngine.from_bundle(bundle)
        loaded_engine = LCMSREngine.from_artifact(path)
        small_window = Rectangle(100.0, 100.0, 430.0, 430.0)
        for algorithm, kwargs in [
            ("app", {}),
            ("tgen", {}),
            ("greedy", {}),
            ("exact", {"region": small_window}),
        ]:
            built = built_engine.query(
                ["cafe", "restaurant"], delta=700.0, algorithm=algorithm, **kwargs
            )
            loaded = loaded_engine.query(
                ["cafe", "restaurant"], delta=700.0, algorithm=algorithm, **kwargs
            )
            _assert_same_result(built, loaded)

    def test_topk_round_trip(self, artifact):
        path, bundle = artifact
        built = LCMSREngine.from_bundle(bundle).query_topk(
            ["cafe"], delta=600.0, k=3, algorithm="tgen"
        )
        loaded = LCMSREngine.from_artifact(path).query_topk(
            ["cafe"], delta=600.0, k=3, algorithm="tgen"
        )
        assert len(built.results) == len(loaded.results)
        for result_b, result_l in zip(built.results, loaded.results):
            _assert_same_result(result_b, result_l)

    def test_usanw_style_round_trip(self, tmp_path):
        dataset = build_usanw_like(num_nodes=180, extent=5000.0, num_objects=180,
                                   num_clusters=4, seed=5)
        bundle = IndexBundle.from_dataset(dataset)
        bundle.save(tmp_path / "usanw")
        loaded = IndexBundle.load(tmp_path / "usanw")
        built_engine = LCMSREngine.from_bundle(bundle)
        loaded_engine = LCMSREngine.from_bundle(loaded)
        keywords = ["sunset", "beach"]
        for algorithm in ("app", "tgen", "greedy"):
            _assert_same_result(
                built_engine.query(keywords, delta=1200.0, algorithm=algorithm),
                loaded_engine.query(keywords, delta=1200.0, algorithm=algorithm),
            )

    def test_eager_load_matches_mmap_load(self, artifact):
        path, _ = artifact
        eager = IndexBundle.load(path, mmap=False)
        mapped = IndexBundle.load(path, mmap=True)
        result_e = LCMSREngine.from_bundle(eager).query(["bar"], delta=500.0)
        result_m = LCMSREngine.from_bundle(mapped).query(["bar"], delta=500.0)
        _assert_same_result(result_e, result_m)

    def test_query_service_accepts_artifact_path(self, artifact):
        path, bundle = artifact
        reference = LCMSREngine.from_bundle(bundle).query(["cafe"], delta=600.0)
        with QueryService(path, max_workers=2) as service:
            [result] = service.run_batch([QueryRequest.create(["cafe"], delta=600.0)])
        _assert_same_result(reference, result)

    def test_runner_from_loaded_bundle_matches_direct_runner(self, artifact):
        path, bundle = artifact
        from repro.core.query import LCMSRQuery
        from repro.core.tgen import TGENSolver

        query = LCMSRQuery.create(["cafe"], delta=800.0)
        direct = ExperimentRunner.from_bundle(bundle)
        loaded = ExperimentRunner.from_bundle(IndexBundle.load(path))
        _assert_same_result(
            direct.run_single(query, TGENSolver()).result,
            loaded.run_single(query, TGENSolver()).result,
        )


class TestIntegrity:
    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            IndexBundle.load(tmp_path / "nowhere")

    def test_format_version_mismatch_is_rejected(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "versioned"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="format version"):
            IndexBundle.load(path)

    def test_pre_bump_artifact_is_rejected_with_a_rebuild_hint(self, tmp_path):
        # Format version 3 added the bound-aggregate columns to scoring.npz;
        # a version-2 artifact is missing them, so the loader must reject it
        # outright and tell the operator how to get a current one.
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "pre-bump"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["format_version"] = FORMAT_VERSION - 1
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="rebuild the artifact"):
            IndexBundle.load(path)
        with pytest.raises(ArtifactError, match="python -m repro build"):
            read_manifest(path)

    @pytest.mark.parametrize("victim", [NETWORK_NAME, SCORING_NAME, INDEX_NAME])
    def test_corruption_is_rejected_by_checksums(self, tmp_path, victim):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "corrupt"
        bundle.save(path)
        target = path / victim
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one byte in the middle
        target.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            IndexBundle.load(path)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            verify_artifact(path)

    def test_corrupt_npz_raises_artifact_error_even_without_verify(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "trusted-corrupt"
        bundle.save(path)
        (path / NETWORK_NAME).write_bytes(b"not a zip file at all")
        with pytest.raises(ArtifactError, match=NETWORK_NAME):
            IndexBundle.load(path, verify=False)

    def test_resaving_a_mmap_loaded_bundle_over_itself_is_safe(self, tmp_path):
        # The writer must not truncate files that the loaded bundle's memmaps
        # still point at (payloads are written to temp siblings and renamed).
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=9))
        path = tmp_path / "self-resave"
        bundle.save(path)
        loaded = IndexBundle.load(path)  # mmap-backed
        loaded.save(path, overwrite=True)
        reference = LCMSREngine.from_bundle(bundle).query(["cafe"], delta=600.0)
        # The original mapping still reads correctly AND the artifact reloads.
        _assert_same_result(
            reference, LCMSREngine.from_bundle(loaded).query(["cafe"], delta=600.0)
        )
        _assert_same_result(
            reference, LCMSREngine.from_artifact(path).query(["cafe"], delta=600.0)
        )
        assert not list(path.glob("*.tmp"))

    def test_duplicate_node_ids_are_rejected_at_construction(self):
        import numpy as np

        from repro.exceptions import GraphError
        from repro.network.compact import CompactNetwork

        with pytest.raises(GraphError, match="duplicate node ids"):
            CompactNetwork(
                np.array([1, 1], dtype=np.int64),
                np.zeros(2), np.zeros(2),
                np.array([0, 0, 0], dtype=np.int32),
                np.array([], dtype=np.int32),
                np.array([], dtype=np.float64),
            )

    def test_save_refuses_to_overwrite_without_flag(self, artifact):
        path, bundle = artifact
        with pytest.raises(ArtifactError, match="already exists"):
            bundle.save(path)
        # With the flag it succeeds (and the artifact stays loadable).
        bundle.save(path, overwrite=True)
        assert verify_artifact(path).fingerprint == read_manifest(path).fingerprint


class TestMmapSemantics:
    def test_mmap_loaded_arrays_are_read_only(self, artifact):
        path, _ = artifact
        loaded = IndexBundle.load(path)
        ids, xs, ys = loaded.compact.csr_node_arrays()
        indptr, indices, lengths = loaded.compact.csr_index_arrays()
        for array in (ids, xs, ys, indptr, indices, lengths):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_bound_columns_load_as_read_only_memmaps(self, artifact):
        # The format-version-3 aggregate columns ride in scoring.npz and must
        # come back as read-only memmaps like every other persisted array —
        # and still drive a working UpperBoundIndex.
        path, _ = artifact
        index = IndexBundle.load(path).weight_pipeline().index
        for name in (
            "bound_meta", "obj_cell", "node_cell", "cell_sigma_mass",
            "cell_sigma_max", "cell_node_mass", "cell_obj_count",
            "cell_post_count",
        ):
            array = getattr(index, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array.reshape(-1)[:1] = 0
        from repro.core.bounds import UpperBoundIndex

        bounds = UpperBoundIndex.from_columnar(index, "text_relevance")
        window = Rectangle(0.0, 0.0, 1e6, 1e6)
        assert bounds.window_mass_bound(window) > 0.0

    def test_loaded_bundle_thaws_road_network_on_demand(self, artifact):
        path, bundle = artifact
        loaded = IndexBundle.load(path)
        assert loaded.network is None
        thawed = loaded.road_network()
        assert thawed.num_nodes == bundle.network.num_nodes
        assert thawed.num_edges == bundle.network.num_edges
        assert loaded.network is thawed  # cached


class TestDeterminism:
    def test_same_seed_builds_produce_byte_identical_artifacts(self, tmp_path):
        paths = []
        for index in range(2):
            dataset = _tiny_dataset(seed=21)
            bundle = IndexBundle.from_dataset(dataset)
            path = tmp_path / f"build-{index}"
            bundle.save(path)
            paths.append(path)
        first, second = paths
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{name} differs between two same-seed builds"
            )

    def test_from_dataset_bundle_shares_one_vsm(self):
        # The scorer must reference the grid's model, not a duplicate — otherwise
        # every artifact stores (and every load restores) the model twice.
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=21))
        assert bundle.scorer.vector_space_model is bundle.vsm
        assert bundle.grid.vector_space_model is bundle.vsm

    def test_different_seeds_produce_different_fingerprints(self):
        dataset_a = _tiny_dataset(seed=21)
        dataset_b = _tiny_dataset(seed=22)
        assert dataset_fingerprint(dataset_a.network, dataset_a.corpus) != \
            dataset_fingerprint(dataset_b.network, dataset_b.corpus)


class TestArtifactCache:
    def test_runner_cache_saves_then_reloads(self, tmp_path):
        dataset = _tiny_dataset(seed=30)
        cache = tmp_path / "cache"
        runner_first = ExperimentRunner(dataset, artifact_cache_dir=cache)
        [artifact_dir] = list(cache.iterdir())
        manifest = read_manifest(artifact_dir)
        assert manifest.fingerprint == dataset_fingerprint(dataset.network, dataset.corpus)

        runner_second = ExperimentRunner(dataset, artifact_cache_dir=cache)
        # The second runner's bundle came from disk: no dict network attached.
        assert runner_second.bundle.network is None

        from repro.core.query import LCMSRQuery
        from repro.core.greedy import GreedySolver

        query = LCMSRQuery.create(["cafe"], delta=700.0)
        _assert_same_result(
            runner_first.run_single(query, GreedySolver()).result,
            runner_second.run_single(query, GreedySolver()).result,
        )

    def test_cache_never_aliases_across_grid_resolutions(self, tmp_path):
        # Same network + corpus content, different index parameters: the cache
        # must serve a bundle built at the *requested* resolution.
        from dataclasses import replace

        from repro.index.grid import GridIndex

        dataset_48 = _tiny_dataset(seed=32)
        dataset_24 = replace(
            dataset_48,
            grid=GridIndex(dataset_48.corpus, resolution=24,
                           vsm=dataset_48.grid.vector_space_model),
        )
        cache = tmp_path / "cache"
        assert cached_dataset_bundle(dataset_48, cache).grid_resolution == 48
        assert cached_dataset_bundle(dataset_24, cache).grid_resolution == 24
        # And the original entry still serves the original resolution.
        assert cached_dataset_bundle(dataset_48, cache).grid_resolution == 48

    def test_stale_cache_entry_is_rebuilt(self, tmp_path):
        dataset = _tiny_dataset(seed=31)
        cache = tmp_path / "cache"
        bundle = cached_dataset_bundle(dataset, cache)
        [artifact_dir] = list(cache.iterdir())
        # Sabotage the stored fingerprint: the cache must treat it as stale.
        manifest_path = artifact_dir / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["fingerprint"] = "0" * 64
        manifest_path.write_text(json.dumps(raw))
        rebuilt = cached_dataset_bundle(dataset, cache)
        assert rebuilt.network is not None  # fresh build, not a load
        assert read_manifest(artifact_dir).fingerprint == \
            dataset_fingerprint(dataset.network, dataset.corpus)
        assert bundle.describe().split(",")[0] == rebuilt.describe().split(",")[0]


# ------------------------------------------------------- deferred object graph
def _signature(result):
    """Everything an answer carries that must be bit-equal (floats exactly)."""
    if isinstance(result, TopKResult):
        return tuple(_signature(r) for r in result.results)
    return (result.region.nodes, result.region.edges, result.weight, result.length)


_SMALL_WINDOW = Rectangle(100.0, 100.0, 430.0, 430.0)
_READS = [
    QueryRequest.create(["cafe", "restaurant"], delta=700.0, algorithm="app"),
    QueryRequest.create(["cafe", "restaurant"], delta=700.0, algorithm="tgen"),
    QueryRequest.create(["cafe", "restaurant"], delta=700.0, algorithm="greedy"),
    QueryRequest.create(["cafe"], delta=500.0, region=_SMALL_WINDOW,
                        algorithm="exact"),
    QueryRequest.create(["cafe"], delta=600.0, k=3, algorithm="tgen"),
    QueryRequest.create(["bar", "cafe"], delta=600.0, algorithm="greedy",
                        policy=QueryPolicy.sampled(0.5, seed=3)),
]


@pytest.fixture()
def unpickles(monkeypatch):
    """Records every ``pickle.loads`` call — the only way ``index.pkl`` is read."""
    calls = []
    real = pickle.loads

    def counting(data, *args, **kwargs):
        calls.append(len(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(pickle, "loads", counting)
    return calls


@pytest.fixture(scope="module")
def mode_artifacts(tmp_path_factory):
    """One built bundle and its saved artifact per scoring mode."""
    dataset = _tiny_dataset()
    root = tmp_path_factory.mktemp("modes")
    artifacts = {}
    for mode in ScoringMode:
        bundle = IndexBundle.build(dataset.network, dataset.corpus,
                                   grid_resolution=16, scoring_mode=mode)
        bundle.save(root / mode.value)
        artifacts[mode] = (root / mode.value, bundle)
    return artifacts


def _serve(engine):
    with QueryService(engine, max_workers=1) as service:
        return [_signature(service.execute(request)) for request in _READS]


def _graph(bundle):
    return (bundle.corpus, bundle.mapping, bundle.vsm, bundle.grid, bundle.scorer)


class TestDeferredObjectGraph:
    @pytest.mark.parametrize("mode", list(ScoringMode), ids=lambda m: m.value)
    def test_serving_reads_never_unpickle(self, mode_artifacts, unpickles, mode):
        path, built = mode_artifacts[mode]
        engine = LCMSREngine.from_artifact(path)
        engine.attach_overlay(DeltaOverlay(engine.bundle))  # nothing pending
        served = _serve(engine)
        assert unpickles == []
        assert not engine.bundle.object_graph_loaded
        assert "cells deferred" in engine.bundle.describe()
        assert served == _serve(LCMSREngine.from_bundle(built))
        # The scorer attaches the very pipeline the reads ran on.
        pipeline = engine.bundle.weight_pipeline()
        assert engine.bundle.scorer.pipeline is pipeline
        assert engine.bundle.weight_pipeline() is pipeline
        assert len(unpickles) == 1

    def test_overlay_mutation_loads_the_graph_once(self, artifact, unpickles):
        path, bundle = artifact
        engine = LCMSREngine.from_artifact(path)
        overlay = DeltaOverlay(engine.bundle)
        engine.attach_overlay(overlay)
        assert unpickles == []
        some_id = next(iter(bundle.corpus)).object_id
        apply_op(overlay, {"op": "rate", "id": some_id, "rating": 4.5})
        assert len(unpickles) == 1
        engine.query(["cafe"], delta=600.0, algorithm="greedy")
        Compactor(engine).compact()
        assert len(unpickles) == 1

    def test_build_shards_loads_the_graph_once(self, artifact, unpickles, tmp_path):
        path, _ = artifact
        loaded = IndexBundle.load(path)
        target = tmp_path / "sharded"
        loaded.save(target)
        build_shards(loaded, target, num_shards=2, halo_margin=300.0)
        assert len(unpickles) == 1
        assert loaded.object_graph_loaded

    def test_save_loads_the_graph_once(self, artifact, unpickles, tmp_path):
        path, _ = artifact
        loaded = IndexBundle.load(path)
        manifest = loaded.save(tmp_path / "copy")
        assert len(unpickles) == 1
        assert manifest.fingerprint == read_manifest(path).fingerprint
        for name in (NETWORK_NAME, SCORING_NAME):
            assert (tmp_path / "copy" / name).read_bytes() == (path / name).read_bytes()
        assert _serve(LCMSREngine.from_artifact(tmp_path / "copy")) == _serve(
            LCMSREngine.from_artifact(path)
        )

    def test_racing_first_accesses_unpickle_once(self, artifact, monkeypatch):
        path, _ = artifact
        calls = []
        real = pickle.loads

        def slow(data, *args, **kwargs):
            calls.append(1)
            time.sleep(0.05)  # widen the race window
            return real(data, *args, **kwargs)

        monkeypatch.setattr(pickle, "loads", slow)
        loaded = IndexBundle.load(path)
        barrier = threading.Barrier(8, timeout=10)
        seen = [None] * 8

        def worker(index):
            barrier.wait()
            first = ("corpus", "mapping", "vsm", "grid", "scorer")[index % 5]
            getattr(loaded, first)
            seen[index] = _graph(loaded)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert all(graph is not None for graph in seen)
        for graph in seen:
            assert all(a is b for a, b in zip(graph, seen[0]))

    def test_index_pkl_replaced_after_load_is_rejected_at_first_access(
        self, artifact, tmp_path
    ):
        path, bundle = artifact
        copy = tmp_path / "swapped"
        shutil.copytree(path, copy)
        loaded = IndexBundle.load(copy)
        # A valid pickle of another dataset: only the checksum can tell.
        other = tmp_path / "other"
        IndexBundle.from_dataset(_tiny_dataset(seed=8)).save(other)
        shutil.copyfile(other / INDEX_NAME, copy / INDEX_NAME)
        reference = LCMSREngine.from_bundle(bundle).query(["cafe"], delta=600.0)
        engine = LCMSREngine.from_bundle(loaded)
        _assert_same_result(reference, engine.query(["cafe"], delta=600.0))
        with pytest.raises(ArtifactError, match="checksum mismatch for index.pkl"):
            engine.corpus
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            loaded.scorer

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_index_pkl_without_verify_fails_at_first_access(
        self, artifact, tmp_path, damage
    ):
        path, _ = artifact
        copy = tmp_path / "corrupt"
        shutil.copytree(path, copy)
        blob = (copy / INDEX_NAME).read_bytes()
        (copy / INDEX_NAME).write_bytes(
            b"not a pickle at all" if damage == "garbage" else blob[: len(blob) // 2]
        )
        loaded = IndexBundle.load(copy, verify=False)
        with pytest.raises(ArtifactError, match="cannot deserialise index.pkl"):
            loaded.corpus
        with pytest.raises(ArtifactError):
            DeltaOverlay(loaded).remove_object(0)

    def test_compressed_artifacts_defer_too(self, artifact, unpickles, tmp_path):
        path, bundle = artifact
        bundle.save(tmp_path / "zlib", compress="zlib")
        raw = LCMSREngine.from_artifact(path)
        packed = LCMSREngine.from_artifact(tmp_path / "zlib")
        assert _serve(packed) == _serve(raw)
        assert unpickles == []
        assert len(packed.corpus) == len(bundle.corpus)
        assert len(unpickles) == 1

    def test_lm_bundle_with_mismatched_smoothing_serves_scalar_and_refuses_save(
        self, mode_artifacts, tmp_path
    ):
        _, built = mode_artifacts[ScoringMode.LANGUAGE_MODEL]
        scorer = RelevanceScorer(
            built.corpus, built.mapping, mode=ScoringMode.LANGUAGE_MODEL,
            language_model_smoothing=0.5, vsm=built.vsm, columnar=built.columnar,
        )
        mismatched = dataclasses.replace(built, scorer=scorer)
        assert mismatched.weight_pipeline() is None
        query = LCMSRQuery.create(["cafe", "restaurant"], delta=700.0)
        scalar = TGENSolver().solve(
            build_instance(mismatched.graph_view(), query, scorer=scorer)
        )
        served = LCMSREngine.from_bundle(mismatched).query(
            ["cafe", "restaurant"], delta=700.0, algorithm="tgen"
        )
        assert _signature(served) == _signature(scalar)
        with pytest.raises(ArtifactError, match="smoothing"):
            mismatched.save(tmp_path / "mismatched")
        assert not (tmp_path / "mismatched").exists()
