"""Smoke test of the benchmark harness on tiny inputs.

Run from the repository root: python3 -m pytest -q bench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import read_spans  # noqa: E402
from workloads import Census, Faithful, Quotients  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = [Census(("A2",)), Quotients(("A3",)), Faithful(("A3",))]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_end_to_end_metric_is_emitted(workload, tmp_path):
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, results_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["passes"] >= run.MIN_PASSES
    assert len(result["setup_s_samples"]) >= run.MIN_PASSES
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]] > 0, m["name"]
    assert json.loads((tmp_path / f"{workload.name}-seed3-trace0.json").read_text())


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_emits_layers_and_nested_spans(workload, tmp_path):
    result = run.run_workload(workload, seed=3, seconds=0, trace=True, results_dir=tmp_path)
    assert result["correct"]
    for m in SPEC["per_layer"]:
        assert m["name"] in result["layers"], m["name"]
    names, spans = read_spans(str(tmp_path / f"{workload.name}-seed3-trace1.spans"))
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert len(start) == result["layers"]["trace.spans"] > 0
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        assert start[i] <= end[i]
        if p >= 0:
            assert p < i and start[p] <= start[i] and end[i] <= end[p]
            child[p] += end[i] - start[i]
    for i in range(len(start)):
        assert child[i] <= end[i] - start[i] + 1e-9, names[spans["name_id"][i]]


def test_quotient_layer_is_traced_where_the_package_shadows_it(tmp_path):
    result = run.run_workload(Quotients(("A3",)), seed=1, seconds=0, trace=True,
                              results_dir=tmp_path)
    layers = result["layers"]
    assert layers["quotient.kernel_generators.calls"] > 0
    assert layers["quotient.quotient.self_s"] > 0
    assert layers["system.colors.cache_hits"] > 0


def test_faithful_checks_the_a3_count(tmp_path):
    result = run.run_workload(Faithful(("A3",)), seed=2, seconds=0, trace=False,
                              results_dir=tmp_path)
    assert result["checks"] == 2  # A3 (1,0,1) gives 5, and the passes agree


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results",
                                                                           "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "census",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
