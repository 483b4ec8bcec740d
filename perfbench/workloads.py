"""The three workloads: explore-solve, gateway-hot and mutate-read.

Each workload function takes a :class:`Run` and returns a :class:`Outcome`:
the end-to-end metrics, the per-layer metrics (traced runs), the workload's
own report-only figures, and every correctness failure it found. The serving
objects are opened from the artifact path only; all inputs come from the
inputs file that ``prepare.py`` wrote for the run's seed.

In a traced run the layer wrappers record spans for every other request
(even sequence numbers) and pass straight through for the rest, so the same
run measures traced and untraced end-to-end latency on interleaved requests;
their difference is the reported tracing overhead.
"""

from __future__ import annotations

import math
import queue
import shutil
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
from common import (
    ANYTIME_DEADLINE_MS,
    Scale,
    child_pids,
    decode_request,
    digest,
    median,
    peak_rss_mb,
    request_label,
    tail,
    tree_bytes,
)
from spans import QUERY_PATH_SPANS, Tracer

MAX_IN_FLIGHT = 4096
"""Gateway admission bound: high enough that overload queues instead of
refusing, so a missed rate shows as latency, not as failed requests."""

P95 = 95.0
"""The tail percentile the gateway-hot latency limit applies to."""


@dataclass
class Run:
    seconds: float
    scale: Scale
    inputs: dict
    run_dir: Path
    tracer: Optional[Tracer]


@dataclass
class Outcome:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)
    answers: List[list] = field(default_factory=list)
    """``[label, digest]`` of the deterministic answer prefix (golden check)."""


# ---------------------------------------------------------------------- helpers
def _shifted_warmup(request):
    """A warm-up request outside the measured set: the first request's keywords
    over its window moved by half a metre, so it shares no cache key."""
    from repro import QueryRequest, Rectangle

    r = request.region
    return QueryRequest.create(
        request.keywords, request.delta, algorithm="greedy",
        region=Rectangle(r.min_x + 0.5, r.min_y + 0.5, r.max_x + 0.5, r.max_y + 0.5))


def _set_tracing(run: Run, sequence: int) -> bool:
    """Record spans for even sequence numbers only (wrappers stay installed)."""
    if run.tracer is None:
        return False
    run.tracer.install()
    run.tracer.active = sequence % 2 == 0
    return run.tracer.active


def _latency_metrics(outcome: Outcome, latencies_ms: List[float], ceiling: float) -> None:
    value, pct, samples = tail(latencies_ms, ceiling)
    outcome.e2e["read_p50_ms"] = median(latencies_ms)
    outcome.e2e["read_tail_ms"] = value
    outcome.report["read_tail_percentile"] = pct
    outcome.report["read_samples"] = samples


def _stat_median(spans, key: str) -> float:
    values = [s[6][key] for s in spans if s[6] and key in s[6]]
    return median(values)


def layer_metrics(tracer: Tracer, timings, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans plus workload-side figures.

    Query-path layers count only spans under a measured request (set-up and
    warm-up calls have no request id); a layer the workload never calls
    reports 0.
    """
    spans = tracer.by_name()
    for name in QUERY_PATH_SPANS:
        spans[name] = [s for s in spans.get(name, []) if s[5] is not None]

    def ms(name: str) -> float:
        return median([(s[4] - s[3]) * 1000.0 for s in spans.get(name, [])])

    builds = len(spans.get("core.build_instance", []))
    weighted = sum(len(spans.get(n, [])) for n in
                   ("textindex.sigma", "textindex.sampled", "generations.overlay_sigma"))
    tgen = spans.get("core.solve.tgen", [])
    skipped = sum(s[6].get("edges_skipped", 0.0) for s in tgen if s[6])
    processed = sum(s[6].get("edges_processed", 0.0) for s in tgen if s[6])
    misses = [t for t in timings if not t.result_cache_hit]
    layers = {
        "network.window.ms": ms("network.window"),
        "network.window.nodes": _stat_median(spans.get("network.window", []), "nodes"),
        "textindex.sigma.ms": ms("textindex.sigma"),
        "textindex.sigma.relevant_nodes": _stat_median(
            spans.get("textindex.sigma", []), "relevant_nodes"),
        "textindex.sampled.ms": ms("textindex.sampled"),
        "textindex.sigma.skip_frac": (1.0 - weighted / builds) if builds else 0.0,
        "core.dense.ms": ms("core.dense"),
        "core.solve.tgen.ms": ms("core.solve.tgen"),
        "core.solve.app.ms": ms("core.solve.app"),
        "core.solve.greedy.ms": ms("core.solve.greedy"),
        "core.solve.topk.ms": ms("core.solve.topk"),
        "core.tgen.tuples": _stat_median(tgen, "tuples_generated"),
        "core.tgen.edge_skip_frac": skipped / (skipped + processed) if skipped + processed else 0.0,
        "core.app.bs_steps": _stat_median(spans.get("core.solve.app", []), "binary_search_iterations"),
        "core.app.gw_runs": _stat_median(spans.get("core.solve.app", []), "gw_runs"),
        "core.greedy.scanned": _stat_median(spans.get("core.solve.greedy", []),
                                            "greedy_candidates_scanned"),
        "service.result_hit_frac": (
            sum(t.result_cache_hit for t in timings) / len(timings) if timings else 0.0),
        "service.instance_hit_frac": (
            sum(t.instance_cache_hit for t in misses) / len(misses) if misses else 0.0),
        "service.overhead.ms": median([
            (t.total_seconds - t.build_seconds - t.solve_seconds) * 1000.0 for t in misses]),
        "sharding.route.ms": ms("sharding.route"),
        "persist.load.ms": ms("persist.load"),
        "engine.from_artifact.ms": ms("engine.from_artifact"),
        "generations.apply.ms": ms("generations.apply"),
        "generations.log_append.ms": ms("generations.log_append"),
        "generations.overlay_sigma.ms": ms("generations.overlay_sigma"),
        "generations.compact.ms": ms("generations.compact"),
        "generations.pending": _stat_median(spans.get("generations.log_append", []), "pending"),
        "trace.uncovered_frac": tracer.uncovered_frac(),
    }
    for name in ("anytime.expired_frac", "anytime.overshoot_ms", "sharding.gateway_wait.ms",
                 "sharding.in_flight", "sharding.rejected", "sharding.shed",
                 "sharding.sampled_divergent_frac", "generations.log_bytes",
                 "bench.late_ms", "trace.overhead_ms"):
        layers[name] = float(extra.get(name, 0.0))
    return layers


def _overhead_ms(latencies_ms: List[float], traced_flags: List[bool]) -> float:
    on = [v for v, flag in zip(latencies_ms, traced_flags) if flag]
    off = [v for v, flag in zip(latencies_ms, traced_flags) if not flag]
    return median(on) - median(off) if on and off else 0.0


# ---------------------------------------------------------------------- explore-solve
def explore_solve(run: Run) -> Outcome:
    """Closed loop, one client, in-process ``QueryService.execute_timed``."""
    from repro import LCMSREngine, QueryService

    outcome = Outcome()
    requests = [decode_request(r) for r in run.inputs["requests"]]
    path = Path(run.inputs["world"]) / "artifact"
    warm = _shifted_warmup(requests[0])
    if run.tracer is not None:
        run.tracer.install()
    setups = []
    service = None
    for _ in range(run.scale.setups):
        if service is not None:
            service.close()
        start = time.perf_counter()
        service = QueryService(LCMSREngine.from_artifact(path), max_workers=1)
        service.execute(warm)
        setups.append(time.perf_counter() - start)
    service.reset_stats()

    latencies: List[float] = []
    by_type: Dict[str, List[float]] = defaultdict(list)
    traced: List[bool] = []
    results = []
    # Whole passes over the set, each in its own seeded order with emptied
    # caches, until the run time is used up: every run measures the same
    # requests, so different seeds differ only in order.
    start = time.perf_counter()
    for order in run.inputs["passes"]:
        if time.perf_counter() - start >= run.seconds:
            break
        service.clear_caches()
        for index in order:
            request = requests[index]
            on = _set_tracing(run, len(latencies))
            t0 = time.perf_counter()
            if on:
                with run.tracer.request(len(latencies)):
                    result, _ = service.execute_timed(request)
            else:
                result, _ = service.execute_timed(request)
            elapsed = (time.perf_counter() - t0) * 1000.0
            latencies.append(elapsed)
            traced.append(on)
            by_type["topk" if request.k > 1 else request.algorithm].append(elapsed)
            results.append((request, result))
    wall = time.perf_counter() - start
    if run.tracer is not None:
        run.tracer.uninstall()
    rss = peak_rss_mb()
    timings = service.stats().timings
    service.close()

    outcome.attempted = len(results)
    pipeline = service.engine.bundle.weight_pipeline()
    for request, result in results:
        outcome.failures.extend(checks.feasible(request, result)
                                or checks.weighted(request, result, pipeline))
    outcome.answers = [[request_label(r), digest(res)]
                       for r, res in results[: run.scale.golden_answers]]
    outcome.e2e.update({
        "setup_s": median(setups),
        "rss_mb": rss,
        "artifact_mb": tree_bytes(path) / 1e6,
        "qps": len(results) / wall,
    })
    _latency_metrics(outcome, latencies, ceiling=95.0)
    outcome.report.update({
        "setup_runs_s": setups,
        "tgen_p50_ms": median(by_type["tgen"]),
        "app_p50_ms": median(by_type["app"]),
        "topk_p50_ms": median(by_type["topk"]),
        "requests_by_type": {k: len(v) for k, v in by_type.items()},
    })
    if run.tracer is not None:
        outcome.layers = layer_metrics(run.tracer, timings, {
            "trace.overhead_ms": _overhead_ms(latencies, traced)})
    return outcome


# ---------------------------------------------------------------------- gateway-hot
@dataclass
class _Sent:
    """One gateway request as the generator and the completion callback saw it
    (``rung`` is -1 in the closed phase)."""

    index: int
    rung: int
    due: float
    submitted: float
    traced: bool
    root_span: Optional[int] = None
    done: Optional[float] = None
    failed: bool = False
    result: object = None
    completion: int = -1

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def gateway_hot(run: Run) -> Outcome:
    """Sharded 1-worker gateway, fed by one generator thread in two phases.

    First a closed loop keeps a fixed number of requests outstanding: its
    throughput and latencies are the end-to-end metrics. Then an open loop
    offers a fixed ladder of Poisson rates, each request timed from its due
    time: the rates that meet the latency limit are per-layer figures.
    """
    from repro import ShardedQueryService

    outcome = Outcome()
    scale = run.scale
    universe = [decode_request(r) for r in run.inputs["requests"]]
    warmups = [decode_request(r) for r in run.inputs["warmup"]]
    root = Path(run.inputs["world"]) / "artifact"

    # Set-up: open the gateway and force the worker's shard loads with one
    # warm-up request per shard (spare pool entries, outside the measured set).
    setups = []
    service = None
    warm_set: List = []
    for _ in range(scale.gateway_setups):
        if service is not None:
            service.close()
        start = time.perf_counter()
        service = ShardedQueryService(root, num_workers=1, max_in_flight=MAX_IN_FLIGHT)
        if not warm_set:
            by_shard: Dict[int, object] = {}
            for request in warmups:
                by_shard.setdefault(service.router.route(request.region).shard, request)
            warm_set = [by_shard[s] for s in sorted(by_shard)]
        for request in warm_set:
            service.execute(request)
        setups.append(time.perf_counter() - start)
    service.reset_stats()

    feed = _Feed(run, service, universe)
    closed_seconds = run.seconds * scale.gateway_closed_share
    generator = threading.Thread(target=feed.drive, name="perfbench-generator", args=(
        closed_seconds, scale.gateway_clients,
        [(rate, run.seconds * share) for rate, share in zip(scale.gateway_rates,
                                                            scale.gateway_shares)]))
    generator.start()
    generator.join()
    rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in child_pids())
    artifact_bytes = tree_bytes(service.served_path, skip_prefix="gen-")
    timings = service.stats().timings
    rejected, shed = service.rejected, service.shed
    service.close()

    closed = [s for s in feed.sent if s.rung < 0]
    closed_ok = [s for s in closed if not s.failed]
    outcome.attempted = len(feed.sent)
    outcome.failures.extend(feed.errors)
    outcome.e2e.update({
        "setup_s": median(setups),
        "rss_mb": rss,
        "artifact_mb": artifact_bytes / 1e6,
        "qps": len(closed_ok) / feed.closed_wall,
    })
    # p90, not p95: the p95 falls among requests queued behind a 10 ms
    # anytime solve, so it tracks how many of those a seed draws.
    _latency_metrics(outcome, [s.latency_ms for s in closed_ok], ceiling=90.0)

    limit = scale.gateway_limit_ms
    rungs = []
    for rung, (rate, share) in enumerate(zip(scale.gateway_rates, scale.gateway_shares)):
        mine = [s for s in feed.sent if s.rung == rung]
        ok = [s for s in mine if not s.failed]
        lat = sorted(s.latency_ms for s in ok)
        p95 = lat[max(0, math.ceil(P95 / 100.0 * len(lat)) - 1)] if lat else math.inf
        # No growing backlog: the queue left at the rung's end clears within
        # the latency limit.
        drain_ms = max(0.0, (max((s.done for s in mine), default=0.0)
                             - feed.rung_ends[rung]) * 1000.0)
        rungs.append({
            "rate": rate, "requests": len(mine), "failed": len(mine) - len(ok),
            "p50_ms": median(lat), "p95_ms": p95, "drain_ms": drain_ms,
            "meets_limit": len(ok) == len(mine) and p95 <= limit and drain_ms <= limit,
        })
    passing = [r for r in rungs if r["meets_limit"]]
    offered = [s for s in feed.sent if s.rung >= 0]
    misses = sum(1 for s in offered if s.failed or s.latency_ms > limit)

    served: Dict[int, object] = {}
    for item in feed.sent:
        if item.result is not None and item.index not in served:
            served[item.index] = item.result
    failures, divergent = checks.gateway_reference(root, universe, served, run.tracer)
    outcome.failures.extend(failures)
    sampled = sum(1 for i in served if universe[i].policy is not None
                  and universe[i].policy.kind == "sampled")
    # Anytime answers depend on the deadline clock, so only the others are golden.
    deterministic = [i for i in served if universe[i].policy is None
                     or universe[i].policy.kind != "anytime"]
    outcome.answers = [[request_label(universe[i]), digest(served[i])]
                       for i in deterministic[: scale.golden_answers]]
    outcome.report.update({
        "setup_runs_s": setups,
        "rungs": rungs,
        "latency_limit_ms": limit,
        "limit_percentile": P95,
        "max_rate_qps": passing[-1]["rate"] if passing else 0.0,
        "miss_frac": misses / len(offered) if offered else 0.0,
        "universe_requests": len(universe),
        "sampled_served": sampled,
        "sampled_divergent_frac": divergent / sampled if sampled else 0.0,
        "distinct_served": len(served),
    })
    if run.tracer is not None:
        anytime = [s.result for s in feed.sent if s.result is not None
                   and universe[s.index].policy is not None
                   and universe[s.index].policy.kind == "anytime"]
        expired = [a for a in anytime if a.stats.get("budget_expired", 0.0)]
        waits = []
        for item in feed.sent:
            if not 0 <= item.completion < len(timings):
                continue
            worker = timings[item.completion].total_seconds
            waits.append((item.done - item.submitted - worker) * 1000.0)
            if item.root_span is not None:
                run.tracer.record("worker.execute", item.done - worker, item.done,
                                  item.root_span, item.completion)
                run.tracer.record("request", item.due, item.done, None, item.completion,
                                  span_id=item.root_span)
        outcome.layers = layer_metrics(run.tracer, timings, {
            "anytime.expired_frac": len(expired) / len(anytime) if anytime else 0.0,
            "anytime.overshoot_ms": median([
                a.runtime_seconds * 1000.0 - ANYTIME_DEADLINE_MS for a in expired]),
            "sharding.gateway_wait.ms": median(waits),
            "sharding.in_flight": float(feed.in_flight_peak),
            "sharding.rejected": float(rejected),
            "sharding.shed": float(shed),
            "sharding.sampled_divergent_frac": outcome.report["sampled_divergent_frac"],
            "bench.late_ms": median(feed.late),
            "trace.overhead_ms": _overhead_ms([s.latency_ms for s in closed_ok],
                                              [s.traced for s in closed_ok]),
        })
    return outcome


class _Feed:
    """The gateway-hot generator: the closed phase, then the rate ladder."""

    def __init__(self, run: Run, service, universe) -> None:
        self.run = run
        self.service = service
        self.universe = universe
        self.stream = run.inputs["stream"]
        self.gaps = run.inputs["gaps"]
        self.position = 0
        self.sent: List[_Sent] = []
        self.late: List[float] = []
        self.errors: List[str] = []
        self.rung_ends: List[float] = []
        self.closed_wall = 0.0
        self.in_flight_peak = 0
        self._completions = 0
        self._finished: "queue.Queue[_Sent]" = queue.Queue()

    def _on_done(self, item: _Sent, future) -> None:
        # Runs on the gateway's result thread right after the gateway recorded
        # this answer's QueryTiming, so the completion order indexes the timings.
        item.done = time.perf_counter()
        try:
            item.result = future.result()
            item.completion = self._completions
            self._completions += 1
        except Exception as exc:  # any serving error is a failed request
            item.failed = True
            self.errors.append(f"request {item.index}: {type(exc).__name__}: {exc}")
        self._finished.put(item)

    def _submit(self, rung: int, due: float) -> Optional[_Sent]:
        from repro.exceptions import QueryError

        run = self.run
        on = _set_tracing(run, len(self.sent))
        index = self.stream[self.position % len(self.stream)]
        self.position += 1
        item = _Sent(index, rung, due, time.perf_counter(), on)
        self.late.append((item.submitted - due) * 1000.0)
        self.sent.append(item)
        try:
            if on:
                item.root_span = run.tracer.new_id()
                run.tracer.push(item.root_span, len(self.sent) - 1)
                try:
                    future = self.service.submit(self.universe[index])
                finally:
                    run.tracer.pop()
            else:
                future = self.service.submit(self.universe[index])
        except QueryError as exc:
            item.failed, item.done = True, time.perf_counter()
            self.errors.append(f"request {index} refused: {exc}")
            return None
        self.in_flight_peak = max(self.in_flight_peak, self.service.in_flight)
        future.add_done_callback(lambda f, it=item: self._on_done(it, f))
        return item

    def _drain(self, outstanding: int) -> None:
        for _ in range(outstanding):
            self._finished.get(timeout=120)

    def drive(self, closed_seconds: float, clients: int, ladder) -> None:
        # Closed phase: each completion releases the next request.
        start = time.perf_counter()
        outstanding = sum(self._submit(-1, time.perf_counter()) is not None
                          for _ in range(clients))
        while outstanding:
            self._finished.get(timeout=120)
            outstanding -= 1
            if time.perf_counter() - start < closed_seconds:
                outstanding += self._submit(-1, time.perf_counter()) is not None
        self.closed_wall = time.perf_counter() - start
        # Open phase: Poisson arrivals at each rate, timed from the due time;
        # each rung's backlog drains before the next starts.
        for rung, (rate, seconds) in enumerate(ladder):
            rung_start = due = time.perf_counter()
            outstanding = 0
            while True:
                due += self.gaps[self.position % len(self.gaps)] / rate
                if due - rung_start >= seconds:
                    break
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                outstanding += self._submit(rung, due) is not None
            self.rung_ends.append(rung_start + seconds)
            self._drain(outstanding)
        if self.run.tracer is not None:
            self.run.tracer.uninstall()


# ---------------------------------------------------------------------- mutate-read
def mutate_read(run: Run) -> Outcome:
    """Closed loop, one client: Greedy reads interleaved with durable
    mutations; a background compaction whenever the overlay reaches the
    threshold. Writes wait while a compaction runs; reads do not."""
    from repro import LCMSREngine, QueryService
    from repro.service import generations

    outcome = Outcome()
    scale = run.scale
    reads = [decode_request(r) for r in run.inputs["requests"]]
    ops, stream = run.inputs["ops"], run.inputs["stream"]
    root = run.run_dir / "artifact"
    shutil.copytree(Path(run.inputs["world"]) / "artifact", root)
    warm = _shifted_warmup(reads[0])
    if run.tracer is not None:
        run.tracer.install()

    setups = []
    service = None
    for _ in range(scale.setups):
        if service is not None:
            service.close()
        start = time.perf_counter()
        engine = LCMSREngine.from_artifact(root)
        engine.attach_overlay(generations.DeltaOverlay(engine.bundle))
        service = QueryService(engine, max_workers=1)
        service.execute(warm)
        setups.append(time.perf_counter() - start)
    service.reset_stats()
    engine = service.engine
    log_path = root / generations.DELTA_LOG_NAME

    read_ms: List[float] = []
    traced: List[bool] = []
    write_ms: List[float] = []
    log_bytes: List[int] = []
    compact_s: List[float] = []
    cycle_bytes: List[int] = []
    results = []
    compaction = None
    compaction_started = 0.0
    compaction_done = [0.0]
    writes = 0
    bytes_since_compaction = 0
    reads_done = 0
    step = 0

    def finish_compaction() -> None:
        nonlocal compaction, bytes_since_compaction
        report = compaction.result()
        compact_s.append(compaction_done[0] - compaction_started)
        cycle_bytes.append(bytes_since_compaction + tree_bytes(report.path))
        bytes_since_compaction = 0
        engine.attach_overlay(generations.DeltaOverlay(engine.bundle))
        compaction = None

    start = time.perf_counter()
    deadline = start + run.seconds
    while time.perf_counter() < deadline:
        if compaction is not None and compaction.done():
            finish_compaction()
        is_write = step % (scale.mutate_read_ratio + 1) == scale.mutate_read_ratio
        step += 1
        if is_write and compaction is None and writes < len(ops):
            t0 = time.perf_counter()
            generations.apply_op(engine.overlay, ops[writes])
            generations.append_delta_ops(root, [ops[writes]])
            write_ms.append((time.perf_counter() - t0) * 1000.0)
            writes += 1
            size = log_path.stat().st_size
            log_bytes.append(size)
            bytes_since_compaction += size
            if engine.overlay.pending_count >= scale.mutate_compact_at:
                compaction_started = time.perf_counter()
                compaction = generations.Compactor(engine, root).compact_in_background()
                compaction.add_done_callback(
                    lambda _: compaction_done.__setitem__(0, time.perf_counter()))
            continue
        request = reads[stream[reads_done % len(stream)]]
        on = _set_tracing(run, reads_done)
        t0 = time.perf_counter()
        if on:
            with run.tracer.request(reads_done):
                result = service.execute(request)
        else:
            result = service.execute(request)
        read_ms.append((time.perf_counter() - t0) * 1000.0)
        traced.append(on)
        results.append((request, result))
        reads_done += 1
    wall = time.perf_counter() - start
    if compaction is not None:
        compaction.result()
        finish_compaction()
    if run.tracer is not None:
        run.tracer.uninstall()
    rss = peak_rss_mb()
    artifact_bytes = tree_bytes(generations.resolve_generation(root), skip_prefix="gen-")
    timings = service.stats().timings
    service.close()

    outcome.attempted = reads_done + writes
    for request, result in results:
        outcome.failures.extend(checks.feasible(request, result))
    outcome.answers = [[request_label(r), digest(res)]
                       for r, res in results[: scale.golden_answers]]
    outcome.failures.extend(checks.mutated_equals_cold(
        engine, root, Path(run.inputs["world"]) / "artifact", ops[:writes], reads))

    outcome.e2e.update({
        "setup_s": median(setups),
        "rss_mb": rss,
        "artifact_mb": artifact_bytes / 1e6,
        "qps": reads_done / wall,
    })
    _latency_metrics(outcome, read_ms, ceiling=99.0)
    write_tail, write_pct, _ = tail(write_ms, ceiling=99.0)
    folded = scale.mutate_compact_at * len(cycle_bytes)
    bytes_per_op = sum(cycle_bytes) / folded if folded else 0.0
    outcome.report.update({
        "setup_runs_s": setups,
        "writes": writes,
        "reads": reads_done,
        "write_p50_ms": median(write_ms),
        "write_tail_ms": write_tail,
        "write_tail_percentile": write_pct,
        "compactions": len(compact_s),
        "compact_s": median(compact_s),
        "write_bytes_per_op": bytes_per_op,
        "flush_policy": "atomic replace (temp file + rename), no fsync",
    })
    if run.tracer is not None:
        outcome.layers = layer_metrics(run.tracer, timings, {
            "generations.log_bytes": median(log_bytes),
            "trace.overhead_ms": _overhead_ms(read_ms, traced),
        })
    return outcome


WORKLOAD_FUNCTIONS = {
    "explore-solve": explore_solve,
    "gateway-hot": gateway_hot,
    "mutate-read": mutate_read,
}
