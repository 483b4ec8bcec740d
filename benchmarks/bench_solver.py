"""Solver time of Greedy, TGEN and APP on the dense position-indexed substrate.

Not a paper figure — this records the solve-time trajectory of the paper's
online algorithms as they run in the engine: on the
:class:`~repro.core.dense.DenseInstance` arrays the columnar pipeline attaches
at build time. Instances are built once and shared, so the timings isolate the
solver hot loops (instance building is measured by ``bench_scoring.py``).
Greedy and TGEN run over a mixed windowed / window-less workload; APP runs on
the windowed instances only (a window-less APP solve builds the terminal metric
closure of the whole network, out of reach in pure Python at these scales).
Greedy solves in well under a millisecond, so its loop runs ``GREEDY_INNER``
passes per timing sample to get out of timer jitter.

Byte-identity of these solvers against the frozen dict-keyed reference loops is
enforced at tier-1 by the parity suites (``make test-parity``); this benchmark
only checks that every timed answer is feasible. There is no speed bar: the
numbers are a record, not a claim.

Set ``REPRO_BENCH_JSON=<path>`` (the ``make bench-json`` target does) to write
the measured numbers as JSON, so the repo's performance history is recorded run
over run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_solver.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.core.app import APPSolver
from repro.core.greedy import GreedySolver
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentRunner
from repro.service.bundle import IndexBundle

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

# (label, rows, cols, objects, clusters, delta, area_km2)
if FULL_SCALE:
    CONFIGS = [
        ("small", 24, 24, 2000, 10, 1200.0, 2.0),
        ("medium", 48, 48, 9000, 30, 1600.0, 2.0),
        ("large", 80, 80, 26000, 70, 2400.0, 4.0),
    ]
elif SMOKE_SCALE:
    CONFIGS = [("small", 20, 20, 1500, 8, 900.0, 1.5)]
else:
    CONFIGS = [
        ("small", 24, 24, 2000, 10, 1200.0, 2.0),
        ("large", 64, 64, 16000, 55, 2000.0, 3.0),
    ]

SEED = 42
REPEATS = 1 if SMOKE_SCALE else 3
GREEDY_INNER = 2 if SMOKE_SCALE else 25


def _build_workload(dataset, num_queries: int, delta: float, area_km2: float):
    """Mixed workload: windowed queries plus window-less variants."""
    windowed = generate_workload(
        dataset,
        num_queries=num_queries,
        num_keywords=3,
        delta=delta,
        area_km2=area_km2,
        seed=9,
    )
    return windowed + [query.with_region(None) for query in windowed[: num_queries // 2]]


def _time_solves(solver, instances, inner: int) -> float:
    """Best-of-REPEATS total solve time over the instances (x inner passes)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(inner):
            for instance in instances:
                solver.solve(instance)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_solver_dense_times():
    rows_out: List[List[object]] = []
    records: List[Dict[str, object]] = []
    for label, rows, cols, objects, clusters, delta, area in CONFIGS:
        dataset = build_ny_like(
            rows=rows, cols=cols, block_size=120.0,
            num_objects=objects, num_clusters=clusters, seed=SEED,
        )
        bundle = IndexBundle.from_dataset(dataset)
        runner = ExperimentRunner.from_bundle(bundle, weight_backend="columnar")
        num_queries = 2 if SMOKE_SCALE else 4
        queries = _build_workload(dataset, num_queries, delta, area)
        built = [runner.build(query) for query in queries]
        assert all(instance.dense is not None for instance in built), (
            "the columnar pipeline over a frozen network attaches the substrate"
        )

        # (solver, inner passes, indices of the instances it runs on)
        everything = list(range(len(queries)))
        windowed = [i for i, query in enumerate(queries) if query.region is not None]
        solvers = [
            (GreedySolver(), GREEDY_INNER, everything),
            (TGENSolver(), 1, everything),
            (APPSolver(), 1, windowed),
        ]
        # Feasibility first (also warms every path).
        for solver, _, picks in solvers:
            for index in picks:
                result = solver.solve(built[index])
                assert result.length <= delta + 1e-9, (label, solver.name)

        config_record: Dict[str, object] = {
            "config": label,
            "rows": rows,
            "cols": cols,
            "objects": objects,
            "delta": delta,
            "queries": len(queries),
            "repeats": REPEATS,
        }
        for solver, inner, picks in solvers:
            seconds = _time_solves(solver, [built[i] for i in picks], inner)
            rows_out.append([
                f"{label} ({rows}x{cols}, Δ={delta:.0f})",
                solver.name,
                len(picks) * inner,
                seconds,
            ])
            config_record[f"{solver.name.lower()}_dense_seconds"] = seconds
        records.append(config_record)

    print()
    print(format_table(
        ["configuration", "solver", "solves", "dense (s)"],
        rows_out,
        title="solver time on shared instances: dense substrate",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload = {
            "benchmark": "bench_solver",
            "smoke": SMOKE_SCALE,
            "full": FULL_SCALE,
            "configs": records,
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")
