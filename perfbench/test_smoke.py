"""Smoke test of the benchmark itself, on tiny instances; runs in seconds.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as R  # noqa: E402
import workloads as W  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_tiny_run_passes_every_check(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def _tiny_queries(name: str):
    pkg = importlib.import_module("frobstab")
    impl = W.WORKLOADS[name]()
    gen = impl.generate(pkg, 3, "tiny")
    digests = W.read_digests()["tiny"][name]
    return impl.queries(pkg, impl.load(pkg, gen), gen, digests)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_every_recorded_digest_is_checked(name):
    qs = _tiny_queries(name)
    digests = W.read_digests()["tiny"][name]
    assert sorted({q.qid for q in qs if "digest" in q.want}) == sorted(digests)


def test_wrong_expected_value_is_reported_as_failure():
    queries = _tiny_queries("trunc_sparse")
    q = next(q for q in queries if "stable_dim" in q.want)
    res = q.call()
    assert q.failures(res) == []
    q.want["stable_dim"] += 1
    assert len(q.failures(res)) == 1
    q.want["stable_dim"] -= 1
    q.want["digest"] = "0" * 16
    assert len(q.failures(res)) == 1
    assert q.failures(RuntimeError("boom"))

    tally = R.Tally()
    R.run_passes([q], 0.0, tally)
    assert (tally.attempted, tally.failed) == (1, 1) and "digest" in tally.messages[0]


def test_dense_q_basis_comes_from_the_seed():
    pkg = importlib.import_module("frobstab")
    impl = W.DenseQ()
    a, b, a2 = (impl.generate(pkg, s, "tiny") for s in (1, 2, 1))
    assert a == a2
    assert a["basis"]["trunc"][1]["json"] != b["basis"]["trunc"][1]["json"]


def test_fails_without_the_package_sources():
    bare = os.path.join(HERE, "_bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for f in os.listdir(HERE):
            if os.path.isfile(os.path.join(HERE, f)):
                shutil.copy(os.path.join(HERE, f), os.path.join(bare, "perfbench"))
        proc = _run("--workload", "selftest", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
