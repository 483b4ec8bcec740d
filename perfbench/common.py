"""Shared pieces of the benchmark: world specs, request encoding, statistics.

The benchmark lives outside ``src/`` and drives the ``repro`` package only
through its public functions. Every module here is imported by ``run.py``
(which puts ``<checkout>/src`` on ``sys.path`` first) and by ``prepare.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_BUILD_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_DIR = BENCH_DIR / "golden"
GOLDEN_SEED = 1
"""The seed whose answer digests are committed under ``golden/``."""

QUERY_SET_SEED = 7
"""Seed of the fixed query sets. ``--seed`` orders them and draws arrivals,
reads and mutations: per-query cost is heavy-tailed, so query sets drawn per
seed spread the medians of different seeds by more than the bounds allow."""

WORKLOADS = ("explore-solve", "gateway-hot", "mutate-read")

ANYTIME_DEADLINE_MS = 10.0
"""Deadline of the gateway-hot ``anytime`` TGEN requests."""

TAIL_PERCENTILES = (90.0, 95.0, 99.0)
"""Candidate tail percentiles: the highest, up to the workload's ceiling, with
at least 10 samples beyond it is used. The ceiling keeps the percentile fixed
when a faster program completes more requests in the same run time."""


@dataclass(frozen=True)
class WorldSpec:
    """One seeded NY-like world, built once per checkout and cached."""

    name: str
    rows: int
    cols: int
    objects: int
    clusters: int
    seed: int = 42
    shards: int = 0
    halo: float = 0.0
    pool: int = 0
    """Size of the query pool generated at build time (0: none)."""
    pool_delta: float = 0.0
    pool_area_km2: float = 0.0

    def key(self) -> str:
        """Cache directory name: changes whenever any parameter changes."""
        text = json.dumps(self.__dict__, sort_keys=True)
        return f"{self.name}-{hashlib.sha256(text.encode()).hexdigest()[:10]}"


@dataclass(frozen=True)
class Scale:
    """Every size knob of one benchmark scale."""

    explore_world: WorldSpec
    gateway_world: WorldSpec
    explore_queries: int
    explore_delta: float
    explore_area_km2: float
    gateway_pairs: int
    gateway_deltas: Tuple[float, ...]
    gateway_clients: int
    """Requests kept outstanding in the closed phase."""
    gateway_closed_share: float
    """Share of the run the closed phase lasts."""
    gateway_rates: Tuple[float, ...]
    gateway_shares: Tuple[float, ...]
    """Share of the run each rung of ``gateway_rates`` lasts."""
    gateway_limit_ms: float
    gateway_setups: int
    mutate_reads_pool: int
    mutate_ops: int
    mutate_delta: float
    mutate_area_km2: float
    mutate_read_ratio: int
    mutate_compact_at: int
    setups: int
    golden_answers: int


SCALES: Dict[str, Scale] = {
    "default": Scale(
        explore_world=WorldSpec("ny42", 42, 42, 6000, 30),
        gateway_world=WorldSpec(
            "ny64-60k", 64, 64, 60_000, 40, shards=4, halo=1000.0,
            pool=600, pool_delta=1000.0, pool_area_km2=1.0,
        ),
        explore_queries=300,
        explore_delta=1000.0,
        explore_area_km2=1.0,
        gateway_pairs=240,
        gateway_deltas=(600.0, 800.0, 1000.0),
        gateway_clients=16,
        gateway_closed_share=0.6,
        gateway_rates=(150.0, 300.0, 600.0, 1200.0),
        gateway_shares=(0.1, 0.1, 0.1, 0.1),
        gateway_limit_ms=50.0,
        gateway_setups=3,
        mutate_reads_pool=700,
        mutate_ops=4000,
        mutate_delta=2000.0,
        mutate_area_km2=4.0,
        mutate_read_ratio=4,
        mutate_compact_at=100,
        setups=9,
        golden_answers=12,
    ),
    "smoke": Scale(
        explore_world=WorldSpec("ny16", 16, 16, 600, 8, seed=3),
        gateway_world=WorldSpec(
            "ny20-4k", 20, 20, 4000, 10, seed=3, shards=4, halo=600.0,
            pool=60, pool_delta=600.0, pool_area_km2=0.36,
        ),
        explore_queries=30,
        explore_delta=600.0,
        explore_area_km2=0.36,
        gateway_pairs=20,
        gateway_deltas=(400.0, 600.0),
        gateway_clients=2,
        gateway_closed_share=0.5,
        gateway_rates=(20.0, 40.0),
        gateway_shares=(0.25, 0.25),
        gateway_limit_ms=200.0,
        gateway_setups=2,
        mutate_reads_pool=20,
        mutate_ops=300,
        mutate_delta=600.0,
        mutate_area_km2=0.36,
        mutate_read_ratio=2,
        mutate_compact_at=15,
        setups=2,
        golden_answers=6,
    ),
}


# ---------------------------------------------------------------------- requests
def encode_request(request) -> dict:
    """Render a ``QueryRequest`` as plain JSON (the inputs file format)."""
    region = request.region
    policy = request.policy
    return {
        "keywords": list(request.keywords),
        "delta": request.delta,
        "region": None if region is None else [region.min_x, region.min_y, region.max_x, region.max_y],
        "algorithm": request.algorithm,
        "k": request.k,
        "policy": None if policy is None else [policy.kind, policy.deadline_ms, policy.epsilon, policy.seed],
    }


def decode_request(raw: dict):
    """Inverse of :func:`encode_request`."""
    from repro import QueryPolicy, QueryRequest, Rectangle

    policy = None
    if raw["policy"] is not None:
        kind, deadline_ms, epsilon, seed = raw["policy"]
        if kind == "anytime":
            policy = QueryPolicy.anytime(deadline_ms)
        elif kind == "sampled":
            policy = QueryPolicy.sampled(epsilon, seed=seed)
        else:
            policy = QueryPolicy.exact()
    region = None if raw["region"] is None else Rectangle(*raw["region"])
    return QueryRequest.create(
        raw["keywords"], raw["delta"], region=region,
        algorithm=raw["algorithm"], k=raw["k"], policy=policy,
    )


def request_label(request) -> str:
    """A stable, human-readable identity of a request (golden files key on it)."""
    region = request.region
    box = "-" if region is None else ",".join(float(v).hex() for v in (
        region.min_x, region.min_y, region.max_x, region.max_y))
    policy = "exact" if request.policy is None else request.policy.cache_token()
    return (f"{request.algorithm}|k{request.k}|{'+'.join(request.keywords)}|"
            f"{float(request.delta).hex()}|{box}|{policy}")


# ---------------------------------------------------------------------- answers
def regions_of(result) -> list:
    """The regions of a ``RegionResult`` (one) or a ``TopKResult`` (ranked)."""
    if hasattr(result, "results"):
        return list(result.results)
    return [result]


def digest(result) -> list:
    """Answer digest: region node ids and ``float.hex`` of weight and length."""
    return [
        {
            "nodes": sorted(int(n) for n in item.region.nodes),
            "weight": float(item.weight).hex(),
            "length": float(item.length).hex(),
        }
        for item in regions_of(result)
    ]


# ---------------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float], ceiling: float) -> Tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest candidate percentile up to
    ``ceiling`` that still has at least ten samples above it (nearest-rank)."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = None
    for pct in TAIL_PERCENTILES:
        if pct <= ceiling and n - math.ceil(pct / 100.0 * n) >= 10:
            chosen = pct
    if chosen is None:  # too few samples for any tail: report the median
        return median(ordered), 50.0, n
    rank = math.ceil(chosen / 100.0 * n)
    return float(ordered[rank - 1]), chosen, n


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids() -> List[int]:
    """PIDs of this process's live children (every thread's children)."""
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(pids))


def tree_bytes(path: Path, skip_prefix: Optional[str] = None) -> int:
    """Bytes of every regular file under ``path`` (skipping top-level entries
    whose name starts with ``skip_prefix``)."""
    total = 0
    for entry in path.iterdir():
        if skip_prefix and entry.name.startswith(skip_prefix):
            continue
        if entry.is_dir():
            total += tree_bytes(entry)
        elif entry.is_file():
            total += entry.stat().st_size
    return total


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path: Path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
