"""Tiny-size smoke run of the whole benchmark driver, traced and untraced.

    python3 -m pytest perfbench

It checks the result format, the oracle verdicts, answer determinism and
the layer counters; it has no wall-clock gate, because timings on shared
cores are noisy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from hostspeed import REFERENCE_NS, HostSpeed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 20261017  # not used while the workloads were tuned
TINY = 8


def drive(workload: str, trace: int, cwd: Path = ROOT, runner: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", str(HELD_OUT_SEED),
         "--seconds", "0", "--trace", str(trace), "--min-requests", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(workload: str, trace: int) -> tuple:
    done = drive(workload, trace)
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    runs = [result_of(workload, trace) for trace in (0, 1, 0)]
    for (report, result), trace in zip(runs, (0, 1, 0)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["failed"] == 0, report["oracle_failures"]
        assert result["correct"] and result["attempted"] >= TINY
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert report["env"]["python"] and report["env"]["source_sha256"]
        assert (report["wall_clock"] is None) == bool(trace)
    # same seed, byte-identical answers, with and without tracing
    assert len({report["answers_sha256"] for report, _ in runs}) == 1
    assert runs[1][0]["traced_answers_identical"]
    layers = runs[1][1]["metrics"]
    multipoly_calls = sum(v["value"] for k, v in layers.items()
                          if k.startswith("multipoly.") and k.endswith("_calls"))
    if workload == "calculus":
        assert multipoly_calls == 0
        assert layers["ring.mul_calls"]["value"] > 0
    else:
        assert multipoly_calls > 0


def test_fails_without_the_program(tmp_path):
    """In a tree holding only the benchmark, the driver exits nonzero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = drive("calculus", 0, cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""


def test_host_speed_correction():
    """A request timed among probes that ran twice as slow as the reference
    counts half its wall time; one among probes at the reference counts all."""
    host = HostSpeed()
    host.times.extend(range(0, 100, 10))
    host.costs.extend([REFERENCE_NS] * 5 + [2 * REFERENCE_NS] * 5)
    assert host.corrected([5, 85], [1000, 1000]) == [1000, 500]
