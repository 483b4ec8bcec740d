"""Preparation step, run in its own process before every benchmark run.

Builds the cached world artifacts a workload serves (once per checkout) and
writes the run's generated inputs — requests, arrival stream, mutation script —
to a JSON file. The serving process then reads only that file and the
artifact, so nothing the generator allocated counts in its memory or timings.

Usage::

    python3 perfbench/prepare.py --workload explore-solve --seed 1 \\
        --scale default --build-dir .bench_build/perfbench --out inputs.json
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from pathlib import Path

from common import (
    ANYTIME_DEADLINE_MS,
    QUERY_SET_SEED,
    SCALES,
    SRC,
    Scale,
    WorldSpec,
    encode_request,
    read_json,
    write_json,
)

sys.path.insert(0, str(SRC))

from repro import QueryPolicy, QueryRequest, build_ny_like, generate_workload  # noqa: E402
from repro.service import IndexBundle, build_shards, read_manifest  # noqa: E402

STREAM_LENGTH = 40_000
"""Arrivals/reads pre-drawn per run; more than any run at its rates consumes."""

PASSES = 40
"""Seeded orders of the explore set pre-drawn per run (one per pass)."""

ZIPF_EXPONENT = 1.0
"""Skew of gateway-hot request popularity. Most requests hit the worker's
result cache, so the gateway process is the busy one and the pair needs about
one CPU; with skew 0.6 the worker was busy too, and throughput followed the
host's CPU steal (830–1190 req/s over five seeds)."""


def _dataset(world: WorldSpec):
    return build_ny_like(rows=world.rows, cols=world.cols, num_objects=world.objects,
                         num_clusters=world.clusters, seed=world.seed)


def ensure_world(world: WorldSpec, build_dir: Path) -> Path:
    """Return the cached artifact of ``world``, building it on first use.

    The build goes to a temporary sibling that is renamed into place, so an
    interrupted build never leaves a half-written world behind.
    """
    target = build_dir / "worlds" / world.key()
    if (target / "READY").is_file():
        return target
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    dataset = _dataset(world)
    bundle = IndexBundle.from_dataset(dataset)
    artifact = tmp / "artifact"
    bundle.save(artifact)
    if world.shards:
        build_shards(bundle, artifact, num_shards=world.shards, halo_margin=world.halo,
                     base_fingerprint=read_manifest(artifact).fingerprint)
    if world.pool:
        queries = generate_workload(dataset, num_queries=world.pool, num_keywords=3,
                                    delta=world.pool_delta, area_km2=world.pool_area_km2,
                                    seed=world.seed + 1000)
        write_json(tmp / "pool.json", [
            [list(q.keywords), [q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y]]
            for q in queries
        ])
    (tmp / "READY").write_text("ok\n")
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return target


def _distinct(queries):
    seen, out = set(), []
    for query in queries:
        key = (tuple(sorted(query.keywords)), query.region)
        if key not in seen:
            seen.add(key)
            out.append(query)
    return out


def explore_inputs(scale: Scale, seed: int) -> dict:
    """The fixed explore set — TGEN k=1, APP k=1 and TGEN top-3 in rotation,
    every request distinct — and one seeded order of it per pass."""
    rng = random.Random(seed)
    dataset = _dataset(scale.explore_world)
    queries = _distinct(generate_workload(
        dataset, num_queries=scale.explore_queries, num_keywords=3,
        delta=scale.explore_delta, area_km2=scale.explore_area_km2, seed=QUERY_SET_SEED))
    rotation = (("tgen", 1), ("app", 1), ("tgen", 3))
    requests = [
        QueryRequest.create(q.keywords, q.delta, region=q.region,
                            algorithm=rotation[i % 3][0], k=rotation[i % 3][1])
        for i, q in enumerate(queries)
    ]
    passes = [rng.sample(range(len(requests)), len(requests)) for _ in range(PASSES)]
    return {"requests": [encode_request(r) for r in requests], "passes": passes}


def gateway_inputs(scale: Scale, seed: int, world_dir: Path) -> dict:
    """The fixed request universe, and a seeded Zipf-skewed arrival stream.

    The universe takes a fixed subset of the world's pool. Every selected
    (keywords, window) pair is asked at each ∆ of the scale (exact Greedy),
    so requests that differ only in ∆ share an instance-cache entry; one pair
    in ten is also asked as ``sampled(0.2)`` Greedy and one in twenty as
    ``anytime(10 ms)`` TGEN. The Zipf rank of every request is fixed too, so
    each seed sends the same popularity profile.
    """
    from repro import Rectangle

    fixed = random.Random(QUERY_SET_SEED)
    pool = read_json(world_dir / "pool.json")
    order = list(range(len(pool)))
    fixed.shuffle(order)
    chosen = [pool[i] for i in order[: scale.gateway_pairs]]
    spare = [pool[i] for i in order[scale.gateway_pairs:]]
    universe = []
    for index, (keywords, box) in enumerate(chosen):
        region = Rectangle(*box)
        for delta in scale.gateway_deltas:
            universe.append(QueryRequest.create(keywords, delta, region=region, algorithm="greedy"))
        top = max(scale.gateway_deltas)
        if index % 10 == 0:
            universe.append(QueryRequest.create(
                keywords, top, region=region, algorithm="greedy",
                policy=QueryPolicy.sampled(0.2)))
        if index % 20 == 5:
            universe.append(QueryRequest.create(
                keywords, top, region=region, algorithm="tgen",
                policy=QueryPolicy.anytime(ANYTIME_DEADLINE_MS)))
    fixed.shuffle(universe)
    warmup = [QueryRequest.create(k, min(scale.gateway_deltas), region=Rectangle(*b),
                                  algorithm="greedy") for k, b in spare]
    rng = random.Random(seed)
    weights = [rank ** -ZIPF_EXPONENT for rank in range(1, len(universe) + 1)]
    stream = rng.choices(range(len(universe)), weights=weights, k=STREAM_LENGTH)
    gaps = [rng.expovariate(1.0) for _ in range(STREAM_LENGTH)]
    return {
        "requests": [encode_request(r) for r in universe],
        "warmup": [encode_request(r) for r in warmup],
        "stream": stream,
        "gaps": gaps,
    }


def mutate_inputs(scale: Scale, seed: int) -> dict:
    """Greedy reads cycling through a fixed pool in seeded orders, and a seeded mixed
    mutation script (rate / remove / add in rotation, as the generations
    benchmark draws them)."""
    rng = random.Random(seed)
    dataset = _dataset(scale.explore_world)
    queries = _distinct(generate_workload(
        dataset, num_queries=scale.mutate_reads_pool, num_keywords=3,
        delta=scale.mutate_delta, area_km2=scale.mutate_area_km2, seed=QUERY_SET_SEED))
    reads = [QueryRequest.create(q.keywords, q.delta, region=q.region, algorithm="greedy")
             for q in queries]
    vocab = [term for term, _ in dataset.corpus.most_frequent_terms(10)]
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    ids = sorted(dataset.corpus.object_ids())
    touched = rng.sample(ids, min(scale.mutate_ops, len(ids)))
    first_new = max(ids) + 1
    ops = []
    for index, object_id in enumerate(touched):
        kind = index % 3
        if kind == 0:
            ops.append({"op": "rate", "id": object_id, "rating": round(rng.uniform(0.5, 5.0), 2)})
        elif kind == 1:
            ops.append({"op": "remove", "id": object_id})
        else:
            ops.append({"op": "add", "id": first_new + index,
                        "x": rng.uniform(min_x, max_x), "y": rng.uniform(min_y, max_y),
                        "keywords": rng.sample(vocab, 2),
                        "rating": round(rng.uniform(0.5, 5.0), 2)})
    # Seeded permutations of the pool back to back: a read recurs only after
    # more distinct reads than the result cache holds, so reads miss the
    # caches and the latency distribution has one mode.
    stream = []
    while len(stream) < STREAM_LENGTH:
        stream.extend(rng.sample(range(len(reads)), len(reads)))
    return {"requests": [encode_request(r) for r in reads], "ops": ops, "stream": stream}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="default", choices=sorted(SCALES))
    parser.add_argument("--build-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    explore_dir = ensure_world(scale.explore_world, args.build_dir)
    if args.workload == "explore-solve":
        payload = explore_inputs(scale, args.seed)
        payload["world"] = str(explore_dir)
    elif args.workload == "gateway-hot":
        world_dir = ensure_world(scale.gateway_world, args.build_dir)
        payload = gateway_inputs(scale, args.seed, world_dir)
        payload["world"] = str(world_dir)
    elif args.workload == "mutate-read":
        payload = mutate_inputs(scale, args.seed)
        payload["world"] = str(explore_dir)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
