"""Tests of the benchmark itself.

    python3 -m pytest -q bench

Every workload runs at a tiny size on the default seed and on seed 1;
the default seed also runs two traced passes, whose counts must agree.
"""
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, TINY_SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# layers each workload exists to exercise, and layers it must bypass
CALLED = {
    "chart-prism": ["simplices.evaluate_bary.points",
                    "lie.cochain_derivative.calls",
                    "forms.pullback_integral.calls"],
    "spherical-cochains": ["simplices.in_open_hemisphere.calls",
                           "groups.so4_of.calls",
                           "cochains.kronecker_pair.calls",
                           "checks_known_red"],
    "sphere-atlas": ["forms.sphere_integral.calls",
                     "hamiltonian.SphereFunction.evaluate.points",
                     "hamiltonian.poisson.calls",
                     "contact.contact_bracket.calls"],
    "finite-exact": ["snf.SmithSolver.calls", "cochains.with_error.calls"],
}
BYPASSED = {
    "chart-prism": ["simplices.in_open_hemisphere.calls",
                    "forms.sphere_integral.calls", "snf.SmithSolver.calls"],
    "spherical-cochains": ["forms.sphere_integral.calls",
                           "snf.SmithSolver.calls"],
    "sphere-atlas": ["simplices.in_open_hemisphere.calls",
                     "cochains.with_error.calls", "snf.SmithSolver.calls"],
    "finite-exact": ["quadrature.integrate_on_cube.calls",
                     "simplices.in_open_hemisphere.calls"],
}


def test_spec_matches_workloads_and_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds)


def _passes(name, seed, trace_plan):
    deadline = time.monotonic() + run.TIME_LIMIT_S
    job = {"src": str(run.SRC), "workload": name, "seed": seed,
           "sizes": TINY_SIZES[name]}
    passes = []
    for traced in trace_plan:
        result, _, _ = run.spawn_worker(dict(job, trace=traced), deadline)
        result["traced"] = traced
        passes.append(result)
    return passes


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_at_tiny_size(name, seed):
    plan = (False, True, True) if seed == DEFAULT_SEED else (False, True)
    passes = _passes(name, seed, plan)
    verdict = run.judge(passes, run.load_reference()["verdicts"])
    assert verdict["failed"] == 0, verdict["problems"]
    assert not verdict["problems"]
    raw = {"passes": passes, "setup_s": [1.0]}
    e2e = run.metrics_of(raw, verdict, trace=0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    layer = run.metrics_of(raw, verdict, trace=1)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(layer[k] > 0 for k in CALLED[name]), name
    assert all(layer[k] == 0 for k in BYPASSED[name]), name


def test_judge_gates_against_reference():
    verdicts = {"s": {"a": True, "red": False}}

    def call(checks, error=None):
        return {"suite": "s", "wall_s": 1.0, "error": error,
                "checks": [{"id": i, "pass": ok, "computed": 0.0}
                           for i, ok in checks]}

    passes = [{"traced": False, "counts": None, "calls": [
        call([("a", True), ("red", False)]),     # known red: counted
        call([("a", True), ("red", True)]),      # turned green: fine
        call([("a", False), ("red", False)]),    # pinned green fails
        call([("red", False)]),                  # pinned check missing
        call([], error="Traceback"),             # raised
    ]}]
    verdict = run.judge(passes, verdicts)
    assert verdict["attempted"] == 5
    assert verdict["failed"] == 3
    assert verdict["known_red_per_pass"] == 3


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    leaf_t = tracer.wrap("leaf", leaf)

    def outer(depth):
        time.sleep(0.02)
        leaf_t()
        if depth:
            outer_t(depth - 1)

    outer_t = tracer.wrap("outer", outer)
    outer_t(1)
    assert tracer.calls == {"outer": 2, "leaf": 2}
    assert tracer.self_ns["outer"] < tracer.total_ns["outer"]
    assert tracer.total_ns["outer"] >= (tracer.self_ns["outer"]
                                        + tracer.self_ns["leaf"])
    assert tracer.self_ns["leaf"] >= 0.04e9


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "finite-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
