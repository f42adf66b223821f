"""Smoke tests of the benchmark at tiny sizes (grids of at most 10).

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("fd-heat", "thermal-pmor", "thermal-sweep")


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of each workload."""
    return {w: [result(w, 1), result(w, 1)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, spec):
    res = result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert units(res["metrics"]) == {m["name"]: m["unit"]
                                     for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload, spec, traced):
    first, second = traced[workload]
    for res in (first, second):
        assert res["correct"]
        assert units(res["metrics"]) == {m["name"]: m["unit"]
                                         for m in spec["per_layer"]}
        assert res["metrics"]["trace.coverage"]["value"] >= 0.9
    assert first["metrics"]["operators.lu_count"]["value"] > 0
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert second["metrics"][name]["value"] == m["value"], name


def test_sweep_factorizes_once_per_cell(traced):
    # cells share shifts across rows, so counting OperatorSets by id()
    # would take a recycled id for reuse
    for res in traced["thermal-sweep"]:
        m = res["metrics"]
        assert m["operators.lu_count"]["value"] == m["sgrid.cells"]["value"]
        assert m["sgrid.cells"]["value"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "fd-heat", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
