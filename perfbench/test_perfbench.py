"""Self-tests of the benchmark, on the tiny job lists of --quick mode.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import oracle
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in out["metrics"].items()}
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_workloads_match_the_declaration():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


def test_counts_repeat_between_traced_runs():
    counts = [
        {k: v["value"] for k, v in result("census", 1)["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["arrangement.flats"] > 0


def _run_worker(spec, tmp_path, mode="plain"):
    spec = workloads.write_inputs(spec, str(tmp_path))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), str(path), mode,
         repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("mode", ["plain", "traced"])
def test_a_wrong_expectation_is_a_failure(tmp_path, mode):
    spec = workloads.build("envelope", 1, quick=True)
    section = next(j for j in spec["jobs"] if j["kind"] == "section")
    spec["arrangements"][section["arr"]]["expect"]["exponents"] = [1, 1, 1, 2]
    jobs = _run_worker(spec, tmp_path, mode)["jobs"]
    failed = [j for j in jobs if j["errors"]]
    assert len(failed) == 1 and "cokernel ranks" in failed[0]["errors"][0]


@pytest.mark.parametrize("mode", ["plain", "traced"])
@pytest.mark.parametrize("actual, expected", [(3, 0), (0, 3)])
def test_a_wrong_exit_code_is_a_failure(tmp_path, mode, actual, expected):
    spec = workloads.build("census", 1, quick=True)
    job = next(j for j in spec["jobs"] if j["exit"] == actual)
    job["exit"] = expected
    jobs = _run_worker(spec, tmp_path, mode)["jobs"]
    assert sum(1 for j in jobs if j["errors"]) == 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_invariants(workload):
    a, b = workloads.build(workload, 1), workloads.build(workload, 2)
    assert a == workloads.build(workload, 1)
    assert [x["forms"] for x in a["arrangements"]] != \
        [x["forms"] for x in b["arrangements"]]

    def invariants(spec):
        return sorted(json.dumps(x["expect"], sort_keys=True)
                      for x in spec["arrangements"])

    assert invariants(a) == invariants(b)
    assert workloads.properties(a)["hyperplanes"] == \
        workloads.properties(b)["hyperplanes"]


def test_generic_inputs_are_generic():
    spec = workloads.build("lattice", 3)
    for arr in spec["arrangements"]:
        if "generic" in arr["expect"]:
            d, dim = arr["expect"]["generic"]
            assert len(arr["forms"]) == d
            for rows in itertools.combinations(arr["forms"], dim):
                assert workloads.int_det(rows) != 0


def test_closed_forms():
    assert workloads.int_det([[2, 1], [1, 1]]) == 1
    assert workloads.int_det([[1, 2], [2, 4]]) == 0
    assert workloads.int_det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3
    assert oracle.linear_product([1, 2, 3]) == [1, 6, 11, 6]
    assert oracle.divide_one_plus_t([1, 6, 11, 6]) == [1, 5, 6]
    assert oracle.lcs_ranks([1, 2, 3], 3) == [6, 4, 10]
    assert oracle.hilbert_series([1, 1, 1, 1], 2, 5) == [1, 3, 6, 10, 15, 21]
    braid3 = {"supersolvable": True, "exponents": [1, 2, 3]}
    assert oracle.envelope_dims(braid3, 6, 4) == [1, 5, 19, 65, 211]
    assert workloads.braid(5, workloads.random.Random(0))[1]["flats"] == 203


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_percentile_is_inclusive():
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
