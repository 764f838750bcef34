"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()
SPEC = run.benchmark_spec()
TINY = {"harness": 5, "arrangement": 1, "homogenize": 2}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    result = run.run(workload, 0, 0, trace=False, size=TINY[workload])
    assert result["errors"] == {}
    line = run.report(workload, 0, result, SPEC, trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tracing_is_transparent_and_counts_repeat(workload):
    plain = run.run(workload, 0, 0, trace=False, size=TINY[workload])
    first = run.run(workload, 0, 0, trace=True, size=TINY[workload])
    second = run.run(workload, 0, 0, trace=True, size=TINY[workload])
    assert first["errors"] == {} and second["errors"] == {}
    assert plain["digest"] == first["digest"] == second["digest"]
    line = run.report(workload, 0, first, SPEC, trace=True)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "bits", "fraction") and m["name"] != "trace.overhead_frac"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_tracer_restores_the_package():
    import logderiv
    from logderiv import derivmod, groebner, harness
    from tracer import Tracer

    before = (groebner.buchberger, derivmod.syzygies, harness.verify_degree_identity,
              logderiv.normal_form, derivmod.FactoredPolynomial.validate)
    with Tracer():
        assert derivmod.syzygies is not before[1]
        assert harness.verify_degree_identity is not before[2]
    after = (groebner.buchberger, derivmod.syzygies, harness.verify_degree_identity,
             logderiv.normal_form, derivmod.FactoredPolynomial.validate)
    assert after == before


def test_injected_fault_fails_one_problem_and_the_command():
    n = TINY["harness"]
    result = run.run("harness", 0, 0, trace=False, size=n, inject_fault=True)
    line = run.report("harness", 0, result, SPEC, trace=False)
    # n instances; only instance 0 of the first call (sub-seed 1) carries the fault
    assert line["attempted"] == n
    assert line["failed"] == 1 and not line["correct"]
    assert list(result["errors"]) == ["h1:0"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harness", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_records_cover_the_default_seed():
    import workloads

    for workload in workloads.WORKLOADS:
        golden = run.load_golden(workload)
        tasks = workloads.fixed_prefix(workload, workloads.build(workload, workloads.DEFAULT_SEED),
                                       workloads.HARNESS_GOLDEN_CALLS)
        assert golden["seed"] == workloads.DEFAULT_SEED
        assert len(golden["cli"]) == len(run.CLI_EXAMPLES[workload])
        assert all(entry["exit"] == 0 for entry in golden["cli"])
        assert len(golden["records"]) >= len(tasks)
        json.dumps(golden)
