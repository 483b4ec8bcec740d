"""The benchmark's own tests, at smoke size.

Every workload runs on tiny worlds (``--scale smoke``) in a subprocess, the
way the benchmark is always run. The tests check the output contract — the
metrics printed are exactly those ``BENCHMARK.json`` declares, each with its
unit — and that a wrong answer makes the command fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# gateway-hot is not in BENCHMARK.json's list but stays runnable by hand.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["gateway-hot"]


@pytest.fixture(scope="module")
def build_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perfbench-build")


def _run(build_dir: Path, workload: str, trace: int = 0, golden_dir: Path = None,
         cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
           "--build-dir", str(build_dir)]
    if golden_dir is not None:
        cmd += ["--golden-dir", str(golden_dir)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=cwd)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_follows_the_format():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(build_dir, workload, trace):
    proc = _run(build_dir, workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        spans = build_dir / "results" / f"{workload}-s1-t1.spans.jsonl"
        lines = [json.loads(line) for line in spans.read_text().splitlines()]
        assert lines and all({"id", "parent", "name", "start", "end", "request"} <= set(s)
                             for s in lines)


def test_tampered_golden_digest_fails(build_dir, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(BENCH / "golden", golden)
    path = golden / "smoke-explore-solve.json"
    data = json.loads(path.read_text())
    region = data["answers"][0][1][0]
    region["weight"] = (float.fromhex(region["weight"]) * 2.0 + 1.0).hex()
    path.write_text(json.dumps(data))
    proc = _run(build_dir, "explore-solve", golden_dir=golden)
    assert proc.returncode != 0
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_the_program(build_dir, tmp_path):
    """With only BENCHMARK.json and the benchmark's own files there is no
    program to measure: the command must fail and print no result."""
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(build_dir, "explore-solve", cwd=bare, script=bare / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
