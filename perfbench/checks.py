"""Correctness checks the benchmark applies to every run.

Each check returns a list of failure descriptions (empty when all is well);
every entry counts as one failed operation and makes the run exit non-zero.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import digest, regions_of


def _same(a, b) -> bool:
    """Byte-identity of two answers: nodes, edges, and the exact float bits of
    weight and length of every region, in rank order."""
    if digest(a) != digest(b):
        return False
    return [r.region.edges for r in regions_of(a)] == [r.region.edges for r in regions_of(b)]


def _keywords(request):
    from repro import LCMSRQuery

    return LCMSRQuery.create(request.keywords, delta=request.delta, region=request.region).keywords


def feasible(request, result) -> List[str]:
    """Every returned region is connected and no longer than ∆."""
    for rank, item in enumerate(regions_of(result)):
        region = item.region
        if not region.is_connected():
            return [f"{request.algorithm} answer #{rank} is not connected"]
        if not region.satisfies(request.delta):
            return [f"{request.algorithm} answer #{rank} has length {region.length} > ∆={request.delta}"]
    return []


def weighted(request, result, pipeline) -> List[str]:
    """Each region's weight equals σ_v summed over its nodes, with σ_v
    recomputed through ``WeightPipeline.node_weights`` for the request."""
    sigma = pipeline.node_weights(_keywords(request), window=request.region,
                                  node_window=request.region)
    for rank, item in enumerate(regions_of(result)):
        expected = math.fsum(sigma.get(node, 0.0) for node in item.region.nodes)
        if not math.isclose(item.weight, expected, rel_tol=1e-9, abs_tol=1e-12):
            return [f"{request.algorithm} answer #{rank} weight {item.weight!r} "
                    f"!= recomputed σ sum {expected!r}"]
    return []


def gateway_reference(root: Path, universe: Sequence, served: Dict[int, object],
                      tracer=None) -> Tuple[List[str], int]:
    """Compare every distinct gateway answer with in-process unsharded serving.

    Exact answers must be byte-identical to a ``QueryService`` over the base
    artifact, feasible and correctly weighted. An ``anytime`` answer must be
    feasible, correctly weighted, and its weight plus its
    ``quality_regret_bound`` must reach the exact answer's weight. A
    ``sampled`` answer must be feasible; it is estimated from the routed
    shard's own strata, so it can differ from the unsharded estimate — those
    differences are counted and returned, not failed. With a tracer, the load
    and the replay are traced: they supply the pre-solve layer metrics the
    worker process cannot report.

    Returns:
        ``(failures, sampled answers that differ from unsharded serving)``.
    """
    from repro import LCMSREngine, QueryService

    if tracer is not None:
        tracer.install()
        tracer.active = True
    engine = LCMSREngine.from_artifact(root, with_overlay=False)
    reference = QueryService(engine, max_workers=1, result_cache_size=0, instance_cache_size=0)
    pipeline = engine.bundle.weight_pipeline()
    failures: List[str] = []
    divergent = 0
    for sequence, (index, answer) in enumerate(served.items()):
        request = universe[index]
        kind = "exact" if request.policy is None else request.policy.kind
        if tracer is not None:
            with tracer.request(sequence, name="replay"):
                expected = reference.execute(request)
        else:
            expected = reference.execute(request)
        problems = feasible(request, answer)
        if kind == "anytime":
            exact = reference.execute(replace(request, policy=None))
            bound = answer.stats.get("quality_regret_bound", 0.0)
            if answer.weight + bound < exact.weight * (1.0 - 1e-12):
                problems.append(f"anytime answer {answer.weight!r} + regret bound {bound!r} "
                                f"< exact weight {exact.weight!r}")
            problems = problems or weighted(request, answer, pipeline)
        elif kind == "sampled":
            divergent += not _same(answer, expected)
        elif not _same(answer, expected):
            problems.append("gateway answer differs from in-process unsharded serving")
        else:
            problems = problems or weighted(request, answer, pipeline)
        failures.extend(f"request {index}: {p}" for p in problems[:1])
    reference.close()
    if tracer is not None:
        tracer.uninstall()
    return failures, divergent


def _content(corpus) -> Dict[int, tuple]:
    return {o.object_id: (o.x, o.y, tuple(sorted(o.keywords.items())), o.rating) for o in corpus}


def expected_content(base_corpus, ops: Sequence[dict]) -> Dict[int, tuple]:
    """The mutated corpus content, derived from the op semantics directly
    (add / remove / rate) rather than through the overlay code."""
    from repro import GeoTextualObject

    model = _content(base_corpus)
    for op in ops:
        if op["op"] == "add":
            obj = GeoTextualObject.create(op["id"], op["x"], op["y"], op["keywords"], op["rating"])
            model[obj.object_id] = _content([obj])[obj.object_id]
        elif op["op"] == "remove":
            del model[op["id"]]
        elif op["op"] == "rate":
            x, y, keywords, _ = model[op["id"]]
            model[op["id"]] = (x, y, keywords, float(op["rating"]))
    return model


def mutated_equals_cold(engine, root: Path, base_artifact: Path, ops: Sequence[dict],
                        reads: Sequence) -> List[str]:
    """After the last compaction, the served world equals a cold rebuild.

    Folds any still-pending mutations with one more compaction, then checks
    that (a) the persisted generation holds exactly the mutated corpus and
    (b) the live engine and the reopened artifact both answer every read of
    the pool byte-identically to an engine built cold from that corpus.
    """
    from repro import IndexBundle, LCMSREngine, ObjectCorpus, QueryService
    from repro.service import generations

    if engine.overlay is not None and engine.overlay.pending_count:
        generations.Compactor(engine, root).compact()
    failures: List[str] = []
    disk = LCMSREngine.from_artifact(root)
    want = expected_content(IndexBundle.load(base_artifact).corpus, ops)
    if _content(disk.bundle.corpus) != want:
        failures.append("compacted corpus differs from the mutated corpus")
    bundle = disk.bundle
    cold = LCMSREngine.from_bundle(IndexBundle.build(
        bundle.road_network(), ObjectCorpus(list(bundle.corpus)),
        grid_resolution=bundle.grid_resolution, scoring_mode=bundle.scoring_mode))
    services = [QueryService(e, max_workers=1, result_cache_size=0, instance_cache_size=0)
                for e in (engine, disk, cold)]
    for index, request in enumerate(reads):
        live, reopened, reference = (s.execute(request) for s in services)
        if not (_same(live, reference) and _same(reopened, reference)):
            failures.append(f"read {index}: post-compaction answer differs from a cold rebuild")
    for service in services:
        service.close()
    return failures
