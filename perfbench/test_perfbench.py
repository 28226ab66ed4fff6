"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

They check that every named metric is emitted with its unit, that every gate
is evaluated, that a forced gate failure shows in the failure count, and
that tracing leaves the solver outputs bit-identical.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "rate-small": dict(workloads.RATE_SMALL, decoder=(101, 4, [8], 32, 3.0, "tanh", 1.0),
                       iterations=3, grid=[16, 64], round=(1, 2),
                       projection={"steps": 5, "learning_rate": 0.03, "restarts": 2},
                       ratio_range=(0.0, 1e9), setup_repeats=2),
    "solve-preset": dict(workloads.SOLVE_PRESET, decoder=(0, 4, [8, 8], 32, 3.0, "tanh", 1.0),
                         n=16, iterations=3, min_cosine=-1.0, setup_repeats=2,
                         projection={"steps": 5, "learning_rate": 0.1, "restarts": 1}),
    "check-sweep": dict(workloads.CHECK_SWEEP, suites=("adjoint", "mvt"),
                        setup_repeats=2),
}

# Gate settings no correct run can meet.
IMPOSSIBLE = {
    "rate-small": {"ratio_range": (100.0, 200.0)},
    "solve-preset": {"min_cosine": 2.0},
    "check-sweep": {"suites": ("jle",), "extra_args": ["--n", "1"]},
}

GATES = {"rate-small": {"median_error_ratio"}, "solve-preset": {"median_cosine"},
         "check-sweep": set()}


def tiny_run(name, trace, **override):
    return workloads.WORKLOADS[name](7, 0.0, trace, dict(TINY[name], **override))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_and_gates(name):
    run = tiny_run(name, False)
    metrics = bench.end_to_end(run)
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(n, u) for n, u, _, _ in bench.END_TO_END]
    assert all(v["value"] > 0 for v in metrics.values()), metrics
    assert set(run.gates) == GATES[name]
    assert all(g["passed"] for g in run.gates.values()), run.gates
    assert run.attempted > 0 and run.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_forced_gate_failure_counts(name):
    run = tiny_run(name, False, **IMPOSSIBLE[name])
    assert run.failed > 0
    assert bench.end_to_end(run)["success_frac"]["value"] < 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_metrics_and_identical_outputs(name, tmp_path):
    run = tiny_run(name, True)
    assert [(k, v["unit"]) for k, v in run.layers.items()] == \
        [(n, u) for n, u, _ in tracing.PER_LAYER]
    assert run.gates["traced_equals_untraced"]["passed"]
    assert run.failed == 0
    run.tracer.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        assert len(spans["name"]) > 0
        assert (spans["end"] >= spans["start"]).all()


def test_two_process_sweep_leaves_no_process():
    import multiprocessing
    from multiprocessing import resource_tracker
    tiny_run("check-sweep", False)
    assert multiprocessing.active_children() == []
    # spawn and forkserver pools start a tracker that outlives the run
    assert resource_tracker._resource_tracker._pid is None


def test_traced_layers_are_restored():
    from genprior import genmodel
    original = genmodel.forward
    tracer = tracing.Tracer()
    with tracer:
        assert genmodel.forward is not original
    assert genmodel.forward is original


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
