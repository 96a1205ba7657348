"""Tests of the benchmark itself (not collected by the package's test run).

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(workload):
    proc = run(workload, 5, 0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = proc.stdout.strip().splitlines()[:-1]
    for name in list(expected) + ["failed_share"]:
        assert any(line.split()[:1] == [name] for line in table), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = result_of(run(workload, 9, 1)), result_of(run(workload, 9, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    assert counts(first) == counts(second)
    assert first["attempted"] == second["attempted"]
    values = {k: v["value"] for k, v in first["metrics"].items()}
    if workload == "conn-flatness":
        # every zero test on polynomial connections is exact
        assert values["scalar.is_zero.sampled"] == 0
    if workload == "lc-metric":
        # trig metrics reach the sampled branch; each job is one riemann
        # CLI call, which makes four christoffel calls
        assert values["scalar.is_zero.sampled"] > 0
        assert values["riemann.christoffel.calls"] == 4 * first["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_knflat_reader_inverts_the_renderer():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
        from ndga import knflat
    finally:
        del sys.path[:2]
    for n, k in [(4, 2), (6, 3), (7, 4)]:
        for _, element in knflat.nabla_power_expansion(n, k):
            assert workloads.parse_delta_element(knflat.render_element(element)) == element
