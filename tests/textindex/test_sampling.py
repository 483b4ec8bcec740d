"""The sampled σ_v estimator: exactness escape hatch, determinism, CI sanity.

The sampler's contracts:

* **Escape hatch** — ``rate=1.0`` enumerates every stratum, so the estimate is
  the exact ``node_sums`` answer with zero variance.
* **Determinism** — the same ``(keywords, window, epsilon, seed)`` produces a
  bit-identical estimate however the index was obtained (fresh build, pickle
  round trip, artifact save/load), and the solvers answer a sampled instance
  exactly as the dict-keyed oracle does.
* **Unbiased-ish with honest CIs** — across seeds, the true σ_v lies inside the
  95% half-width at least ~90% of the time (the committed benchmark measures
  this at scale; here a fast smoke-level check).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.tgen import TGENSolver
from repro.exceptions import IndexError_
from repro.network.subgraph import Rectangle
from repro.textindex.columnar import WeightPipeline
from repro.textindex.relevance import ScoringMode

from tests.core.dict_reference import DictGreedy, DictTGEN
from tests.textindex.test_columnar import random_setup

KEYWORDS = ("cafe", "bar", "museum")


def pipeline_for(seed: int = 11, mode=ScoringMode.TEXT_RELEVANCE):
    corpus, network, mapping, columnar = random_setup(seed)
    return network, WeightPipeline(columnar, mode)


class TestEscapeHatch:
    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_full_rate_is_exact_with_zero_variance(self, mode):
        _, pipeline = pipeline_for(mode=mode)
        sampled = pipeline.node_sums_sampled(KEYWORDS, rate=1.0)
        exact = pipeline.node_sums(KEYWORDS)
        assert sampled.exact
        # Scoring only the selected rows must reproduce the full aggregation.
        np.testing.assert_allclose(sampled.sums, exact, rtol=0, atol=1e-12)
        assert np.all(sampled.variance == 0.0)
        assert np.all(sampled.ci_halfwidth() == 0.0)

    def test_tiny_epsilon_saturates_to_the_full_frame(self):
        _, pipeline = pipeline_for()
        # ceil(4/eps^2) far exceeds the 240-object frame -> full enumeration.
        sampled = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.01)
        assert sampled.exact
        np.testing.assert_allclose(
            sampled.sums, pipeline.node_sums(KEYWORDS), rtol=0, atol=1e-12
        )

    def test_windowed_full_rate_matches_windowed_exact(self):
        _, pipeline = pipeline_for()
        window = Rectangle(20.0, 20.0, 220.0, 240.0)
        sampled = pipeline.node_weights_sampled(
            KEYWORDS, rate=1.0, window=window, node_window=window
        )
        exact = pipeline.node_weights(KEYWORDS, window=window, node_window=window)
        assert sampled.exact
        assert sampled.weights == exact

    def test_empty_window_yields_an_empty_estimate(self):
        _, pipeline = pipeline_for()
        window = Rectangle(10_000.0, 10_000.0, 10_010.0, 10_010.0)
        sampled = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.3, window=window)
        assert sampled.frame_size == 0 and sampled.sample_size == 0
        assert np.all(sampled.sums == 0.0)


class TestValidation:
    def test_exactly_one_of_epsilon_and_rate(self):
        _, pipeline = pipeline_for()
        with pytest.raises(IndexError_):
            pipeline.node_sums_sampled(KEYWORDS)
        with pytest.raises(IndexError_):
            pipeline.node_sums_sampled(KEYWORDS, epsilon=0.1, rate=0.5)

    def test_ranges(self):
        _, pipeline = pipeline_for()
        for bad_eps in (0.0, 1.0, -0.2):
            with pytest.raises(IndexError_):
                pipeline.node_sums_sampled(KEYWORDS, epsilon=bad_eps)
        for bad_rate in (0.0, 1.5):
            with pytest.raises(IndexError_):
                pipeline.node_sums_sampled(KEYWORDS, rate=bad_rate)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        _, pipeline = pipeline_for()
        a = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.3, rng=7)
        b = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.3, rng=7)
        assert np.array_equal(a.sums, b.sums)
        assert np.array_equal(a.variance, b.variance)
        assert a.sample_size == b.sample_size

    def test_different_seeds_differ(self):
        # A dense corpus: strata exceed the per-stratum enumeration floor, so
        # the sampler genuinely subsamples and the draw depends on the seed.
        corpus, network, mapping, columnar = random_setup(11, num_objects=1200)
        pipeline = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
        a = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.3, rng=7)
        b = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.3, rng=8)
        assert not a.exact and not b.exact
        # Not a hard guarantee in general, but on this corpus the draws differ.
        assert not np.array_equal(a.sums, b.sums)

    def test_identical_across_pickle_round_trip(self):
        corpus, network, mapping, columnar = random_setup(11)
        restored = pickle.loads(pickle.dumps(columnar))
        a = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
        b = WeightPipeline(restored, ScoringMode.TEXT_RELEVANCE)
        wa = a.node_weights_sampled(KEYWORDS, epsilon=0.3, rng=5)
        wb = b.node_weights_sampled(KEYWORDS, epsilon=0.3, rng=5)
        assert wa.weights == wb.weights
        assert wa.variance == wb.variance

    @pytest.mark.parametrize(
        "solver, oracle",
        [(GreedySolver(), DictGreedy()), (TGENSolver(), DictTGEN())],
        ids=["Greedy", "TGEN"],
    )
    def test_identical_to_the_dict_oracle(self, solver, oracle):
        network, pipeline = pipeline_for()
        query = LCMSRQuery.create(KEYWORDS, delta=120.0)
        instance = build_instance(
            network.frozen_view() if hasattr(network, "frozen_view") else network,
            query,
            pipeline=pipeline,
            sample_epsilon=0.3,
            sample_seed=5,
        )
        dict_result = oracle.solve(instance)
        dense_result = solver.solve(instance)
        assert dict_result.region.nodes == dense_result.region.nodes
        assert dict_result.weight == dense_result.weight

    def test_sampled_instance_carries_the_sampling_record(self):
        network, pipeline = pipeline_for()
        query = LCMSRQuery.create(KEYWORDS, delta=120.0)
        instance = build_instance(
            network, query, pipeline=pipeline, sample_epsilon=0.3, sample_seed=5
        )
        assert instance.sampling is not None
        assert instance.weights == instance.sampling.weights
        exact_instance = build_instance(network, query, pipeline=pipeline)
        assert exact_instance.sampling is None


class TestEstimatorQuality:
    def test_estimates_are_nonnegative_and_variance_finite(self):
        _, pipeline = pipeline_for()
        sampled = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.4, rng=3)
        assert np.all(sampled.sums >= 0.0)
        assert np.all(np.isfinite(sampled.variance))
        assert np.all(sampled.variance >= 0.0)

    def test_ci_covers_the_truth_for_most_seeds(self):
        """Smoke-level CI coverage: ≥ 80% of (seed, node) pairs within ±CI.

        The committed benchmark (benchmarks/bench_anytime.py) measures the
        coverage criterion (≥ 90%) at scale; this fast check guards the
        estimator against gross mis-calibration (e.g. a dropped FPC term).
        """
        _, pipeline = pipeline_for()
        exact = pipeline.node_sums(KEYWORDS)
        heavy = np.flatnonzero(exact > np.percentile(exact[exact > 0], 50))
        covered = 0
        total = 0
        for seed in range(20):
            sampled = pipeline.node_sums_sampled(KEYWORDS, epsilon=0.35, rng=seed)
            half = sampled.ci_halfwidth()
            for pos in heavy:
                total += 1
                if abs(sampled.sums[pos] - exact[pos]) <= half[pos] + 1e-12:
                    covered += 1
        assert total > 0
        assert covered / total >= 0.8

    def test_region_ci_sums_member_variances(self):
        _, pipeline = pipeline_for()
        sampled = pipeline.node_weights_sampled(KEYWORDS, epsilon=0.35, rng=2)
        nodes = list(sampled.weights)[:3]
        expected = sum(sampled.variance[n] for n in nodes)
        if expected > 0.0:
            assert sampled.region_ci(nodes) == pytest.approx(
                1.96 * expected ** 0.5
            )
        assert sampled.region_ci([]) == 0.0

    def test_mean_over_seeds_approaches_the_truth(self):
        """HT unbiasedness smoke check on the total mass."""
        _, pipeline = pipeline_for()
        exact_total = float(pipeline.node_sums(KEYWORDS).sum())
        estimates = [
            float(pipeline.node_sums_sampled(KEYWORDS, epsilon=0.35, rng=s).sums.sum())
            for s in range(24)
        ]
        mean = sum(estimates) / len(estimates)
        assert mean == pytest.approx(exact_total, rel=0.15)
