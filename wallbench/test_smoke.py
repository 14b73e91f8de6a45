"""Smoke test of the wall-clock benchmark; makes no timing assertions.

Each workload runs at its smallest size, traced and untraced; every
metric named in BENCHMARK.json must be printed with its unit, and the
simulated requests must reproduce the stored digests.

    python3 -m pytest wallbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("wallbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_run_prints_every_metric_and_matches_digests(workload,
                                                              trace):
    # the digest check is only meaningful with stored digests
    assert DIGESTS[workload]["smoke"]["0"]
    out = _run(ROOT, "--workload", workload, "--seed", "0",
               "--seconds", "0", "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], out.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert ({m["name"]: m["unit"] for m in expected}
            == {k: v["unit"] for k, v in result["metrics"].items()})


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
