"""Tests of the benchmark itself, on the reduced-size workloads.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from array import array

import pytest

import job
import run
import tracer

RUN = os.path.join(run.HERE, "run.py")


def bench(tmp_root, workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=tmp_root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("workload", job.WORKLOADS)
def test_smoke_end_to_end(workload):
    res = bench(run.ROOT, workload, 0)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == declared("end_to_end")
    assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", job.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (bench(run.ROOT, workload, 1, seed=3) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == declared("per_layer")
    counts = [{k: m["value"] for k, m in res["metrics"].items()
               if m["unit"] != "s" and k != "trace.overhead_ratio"}
              for res in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["algebra.gen_mult.calls"] > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lhv-check", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_mismatch_is_a_failure(tmp_path):
    out = tmp_path / "res.json"
    out.write_text(json.dumps({"exit_code": 0, "verdict": "v", "digest": "d"}))
    ok = run.Child(0, 1.0, 1.0, 1.0)
    golden = {"exit_code": 0, "verdict": "v", "digest": "d"}
    assert run.job_ok(ok, str(out), dict(golden))
    assert not run.job_ok(ok, str(out), dict(golden, digest="other"))
    assert not run.job_ok(ok, str(out), dict(golden, verdict="other"))
    assert not run.job_ok(run.Child(1, 1.0, 1.0, 1.0), str(out), dict(golden))


def test_self_time_subtracts_children():
    # root [0, 10] with children a [1, 4] and b [5, 6]; a has child c [2, 3]
    names = ["root", "a", "b", "c"]
    ids = array("i", [0, 1, 2, 3])
    parents = array("i", [-1, 0, 0, 1])
    starts = array("d", [0.0, 1.0, 5.0, 2.0])
    ends = array("d", [10.0, 4.0, 6.0, 3.0])
    got = tracer.self_times(names, ids, parents, starts, ends)
    assert got == {"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0}
