"""The repo benchmark: one workload, one seed, one fresh process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` installs the layer wrappers of ``spans.py`` and reports the
per-layer metrics instead. Every answer is checked (``checks.py``, plus the
committed golden digests for seed 1); any wrong answer makes the run print
``"correct": false`` and exit 1. The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the lines
above it are a readable report, and the full record (provenance stamp,
per-rung figures, spans) goes under ``.bench_build/perfbench/results/``.

See ``perfbench/BENCHMARK.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    DEFAULT_BUILD_DIR,
    GOLDEN_DIR,
    GOLDEN_SEED,
    ROOT,
    SCALES,
    SRC,
    WORKLOADS,
    read_json,
    write_json,
)

PREPARE_TIMEOUT_S = 840


def _provenance(args, scale) -> dict:
    """Commit, host and library stamp recorded with every result."""
    import numpy

    def git(*cmd: str) -> str:
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                 text=True, timeout=30, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    sha = git("rev-parse", "HEAD")
    world = scale.gateway_world if args.workload == "gateway-hot" else scale.explore_world
    return {
        "commit": sha or "unknown (not a git checkout)",
        "dirty": bool(git("status", "--porcelain")) if sha else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "scale": args.scale,
        "world": dict(world.__dict__),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "flush_policy": "delta log and CURRENT: atomic replace (temp file + rename), no fsync",
        "worker_start_method": multiprocessing.get_start_method(),
    }


def _golden_failures(path: Path, answers: list) -> list:
    if not path.is_file():
        return [f"golden digest file {path.name} is missing"]
    golden = read_json(path)["answers"]
    if len(answers) < len(golden):
        return [f"only {len(answers)} of {len(golden)} golden answers were served"]
    return [f"answer {i} ({label}) differs from its golden digest"
            for i, ((label, got), (want_label, want)) in enumerate(zip(answers, golden))
            if label != want_label or got != want]


GATEWAY_LAYERS = ("sharding.", "anytime.", "textindex.sampled.ms", "bench.late_ms")
"""Per-layer metrics that only the sharded gateway path produces."""


def _add_gateway_layers(outcome, gateway) -> None:
    """Fold a gateway-hot phase into a traced explore-solve run.

    gateway-hot is not in BENCHMARK.json's workload list (its end-to-end figures
    follow the host's CPU steal too closely to compare runs), so the traced
    explore-solve run, whose own end-to-end figures are untouched, carries
    the gateway path's per-layer metrics: sharding, anytime, sampled σ and
    the open-loop generator.
    """
    outcome.attempted += gateway.attempted
    outcome.failures.extend(f"gateway phase: {f}" for f in gateway.failures)
    outcome.layers.update({k: v for k, v in gateway.layers.items()
                           if k.startswith(GATEWAY_LAYERS)})
    for name in ("max_rate_qps", "miss_frac"):
        outcome.report[name] = gateway.report[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="default", choices=sorted(SCALES),
                        help="'smoke' runs tiny worlds (the benchmark's own tests)")
    parser.add_argument("--build-dir", type=Path, default=DEFAULT_BUILD_DIR,
                        help="cache of built worlds, run scratch space and results")
    parser.add_argument("--golden-dir", type=Path, default=GOLDEN_DIR)
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's answer digests as the golden ones")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOAD_FUNCTIONS, Outcome, Run

    spec = read_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    scale = SCALES[args.scale]
    build_dir = args.build_dir.resolve()
    run_dir = build_dir / "runs" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    def prepare(workload: str) -> dict:
        inputs_path = run_dir / f"{workload}-inputs.json"
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "prepare.py"), "--workload", workload,
             "--seed", str(args.seed), "--scale", args.scale, "--build-dir", str(build_dir),
             "--out", str(inputs_path)],
            check=True, timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr)
        return read_json(inputs_path)

    try:
        run = Run(seconds=args.seconds, scale=scale, inputs=prepare(args.workload),
                  run_dir=run_dir, tracer=Tracer() if args.trace else None)
        started = time.time()
        outcome: Outcome = WORKLOAD_FUNCTIONS[args.workload](run)
        if args.trace and args.workload == "explore-solve":
            _add_gateway_layers(outcome, WORKLOAD_FUNCTIONS["gateway-hot"](Run(
                seconds=args.seconds / 2, scale=scale, inputs=prepare("gateway-hot"),
                run_dir=run_dir, tracer=Tracer())))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    golden_path = args.golden_dir / f"{args.scale}-{args.workload}.json"
    if args.write_golden:
        write_json(golden_path, {"seed": args.seed, "scale": args.scale,
                                 "answers": outcome.answers})
    elif args.seed == GOLDEN_SEED:
        outcome.failures.extend(_golden_failures(golden_path, outcome.answers))

    attempted = max(1, outcome.attempted)
    failed = min(len(outcome.failures), attempted)
    values = dict(outcome.e2e)
    values.update(outcome.layers)
    values["failed_frac"] = failed / attempted
    for name in ("tgen_p50_ms", "app_p50_ms", "topk_p50_ms", "write_p50_ms", "write_tail_ms",
                 "compact_s", "miss_frac", "max_rate_qps", "write_bytes_per_op"):
        values[name] = float(outcome.report.get(name, 0.0))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload did not measure {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    results_dir = build_dir / "results"
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {
        "provenance": _provenance(args, scale),
        "started_unix": started,
        "metrics": metrics,
        "all_values": values,
        "report": outcome.report,
        "failures": outcome.failures,
    }
    if run.tracer is not None:
        record["spans"] = run.tracer.summary()
        run.tracer.write(results_dir / f"{stem}.spans.jsonl")
    write_json(results_dir / f"{stem}.json", record)

    for name, value in sorted(values.items()):
        print(f"{name:34s} {value:.6g}")
    for name, value in sorted(outcome.report.items()):
        if not isinstance(value, (list, dict)):
            print(f"report.{name:27s} {value}")
    for failure in outcome.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
