"""Benchmark of cocyclelab's ``verify`` suites, end to end and per layer.

    python3 bench/run.py --workload sphere-atlas --seed 3 --seconds 30 \\
        --trace 0

Run from the root of a source checkout; ``cocyclelab`` is imported from
its ``src`` directory, nothing is installed.  Every pass runs the
workload's suites through ``cocyclelab.suites.run_suite`` in a fresh
interpreter, one pass at a time, with BLAS and OpenMP held to one thread.
A run first starts one import-only interpreter (a set-up probe), then
makes passes until the next one would end after ``--seconds``, with a
minimum number of passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians
over the passes.  Pass times are in reference units: each call's time
over the time of the worker's fixed ``reference_kernel`` run just before
and after it, which cancels most of the drift in machine speed (see
README.md).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: counts from the traced passes (which must
agree exactly), medians of their timings, per-suite and per-pass seconds
from the untraced passes and the tracing overhead between the two.

Every ``run_suite`` call is judged against the verdicts pinned in
``reference.json``: it fails if it raises, or if a check fails that passes
in the reference.  The run is correct when no call fails and every pass
computed the same values.  The last line of standard output is the JSON
result; a human-readable summary goes to standard error and the full
record, with the environment, to ``results/`` beside this file.
``--workload all`` runs every workload in turn.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = {0: 3, 1: 4}
TIME_LIMIT_S = 170.0
# one worker at a time, one BLAS/OpenMP thread in it: never more threads
# than cores, and no pool fighting other load for them
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def _worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn_worker(job, deadline):
    """Run one worker; return (its result, spawn time, exit time)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, env=_worker_env(), cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {job}") from exc
    exited = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with code {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1]), spawned, exited


def run_workload(name, seed, seconds, trace, deadline):
    """A set-up probe, then passes; returns the raw samples."""
    start = time.monotonic()
    probe, spawned, _ = spawn_worker({"src": str(SRC), "workload": None},
                                     deadline)
    setup = [probe["import_done"] - spawned]
    job = {"src": str(SRC), "workload": name, "seed": seed, "sizes": None}
    passes = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        result, spawned, exited = spawn_worker(dict(job, trace=traced),
                                               deadline)
        setup.append(result["import_done"] - spawned)
        result["traced"] = traced
        passes.append(result)
        if (len(passes) >= MIN_PASSES[trace]
                and exited - start + (exited - spawned) > seconds):
            break
    return {"setup_s": setup, "passes": passes,
            "versions": probe["versions"]}


def load_reference():
    return json.loads((BENCH_DIR / "reference.json").read_text())


def judge(passes, verdicts):
    """Gate every run_suite call against the pinned verdicts, and check
    that passes agree on computed values and on traced counts."""
    attempted = failed = known_red = 0
    problems = []
    for p in passes:
        for call in p["calls"]:
            attempted += 1
            pinned = verdicts.get(call["suite"], {})
            bad = [] if call["error"] is None else ["raised"]
            got = {c["id"]: c["pass"] for c in call["checks"]}
            if call["error"] is None:
                bad += [f"missing {cid}" for cid in pinned if cid not in got]
            for cid, passed in got.items():
                if passed:
                    continue
                if pinned.get(cid) is False:
                    known_red += 1
                else:
                    bad.append(f"{cid} failed")
            if bad:
                failed += 1
                problems.append(f"{call['suite']}: {', '.join(bad)}"
                                + (f"\n{call['error']}" if call["error"]
                                   else ""))
    values = {json.dumps([[c["suite"], c["checks"]] for c in p["calls"]])
              for p in passes}
    if len(values) > 1:
        problems.append("passes computed different values")
    counts = {json.dumps(p["counts"], sort_keys=True)
              for p in passes if p["traced"]}
    if len(counts) > 1:
        problems.append("traced passes gave different counts")
    return {"attempted": attempted, "failed": failed,
            "known_red_per_pass": known_red // len(passes),
            "problems": problems}


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass_s(p, key):
    """Seconds of one pass: its run_suite calls, reference kernel left
    out."""
    return sum(c[key] for c in p["calls"])


def _pass_ref(p, key):
    """One pass in reference-kernel units: each call's time over the
    kernel's time around it, summed."""
    return sum(c[key] / c[f"ref_{key}"] for c in p["calls"])


def metrics_of(raw, verdict, trace):
    """Metric values of one run, keyed as in BENCHMARK.json."""
    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        return {
            "wall_ref": _median([_pass_ref(p, "wall_s") for p in plain]),
            "cpu_ref": _median([_pass_ref(p, "cpu_s") for p in plain]),
            "setup_s": _median(raw["setup_s"]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
            "ops_ok_ratio": 1.0 - verdict["failed"] / verdict["attempted"],
        }
    traced = [p for p in passes if p["traced"]]
    out = dict(traced[0]["counts"])
    for key in traced[0]["timings"]:
        out[key] = _median([p["timings"][key] for p in traced])
    all_suites = {s for w in WORKLOADS.values() for s in w.suites}
    for suite in sorted(all_suites):
        out[f"suites.{suite}.wall_s"] = _median(
            [sum(c["wall_s"] for c in p["calls"] if c["suite"] == suite)
             for p in plain])
    out["pass.wall_s"] = _median([_pass_s(p, "wall_s") for p in plain])
    out["pass.cpu_s"] = _median([_pass_s(p, "cpu_s") for p in plain])
    out["trace.overhead_ratio"] = (
        _median([_pass_ref(p, "wall_s") for p in traced])
        / _median([_pass_ref(p, "wall_s") for p in plain]) - 1.0)
    out["checks_known_red"] = verdict["known_red_per_pass"]
    return out


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "cocyclelab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(versions):
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        **versions,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "platform": platform.platform(),
    }


def _load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return units, layer_units


def _record(path, record):
    try:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
    except OSError as exc:
        print(f"warning: could not write {path}: {exc}", file=sys.stderr)


def bench_one(name, seed, seconds, trace, units, deadline):
    raw = run_workload(name, seed, seconds, trace, deadline)
    verdict = judge(raw["passes"], load_reference()["verdicts"])
    values = metrics_of(raw, verdict, trace)
    if set(values) != set(units):
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    counts = raw["passes"][1]["counts"] if trace else None
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "sizes": WORKLOADS[name].sizes,
              "repeat": WORKLOADS[name].repeat,
              "environment": environment(raw["versions"]),
              "verdict": verdict, "counts": counts,
              "timings": {k: v for k, v in values.items()
                          if counts is None or k not in counts},
              "metrics": metrics, "setup_samples_s": raw["setup_s"],
              "passes": raw["passes"]}
    _record(BENCH_DIR / "results" / f"{name}-seed{seed}-trace{trace}.json",
            record)
    print(f"{name} seed={seed} trace={trace} passes={len(raw['passes'])} "
          f"setup_samples={len(raw['setup_s'])} "
          f"ops={verdict['attempted']} failed={verdict['failed']} "
          f"ops_failed_ratio={verdict['failed'] / verdict['attempted']:g} "
          f"checks_known_red={verdict['known_red_per_pass']}",
          file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for problem in verdict["problems"]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    return verdict, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        if not (SRC / "cocyclelab" / "__init__.py").is_file():
            raise BenchError(f"no cocyclelab sources under {SRC}")
        e2e_units, layer_units = _load_spec()
        units = layer_units if args.trace else e2e_units
        names = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        deadline = time.monotonic() + TIME_LIMIT_S * len(names)
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            verdict, metrics = bench_one(name, args.seed, args.seconds,
                                         args.trace, units, deadline)
            out["correct"] &= verdict["failed"] == 0 \
                and not verdict["problems"]
            out["attempted"] += verdict["attempted"]
            out["failed"] += verdict["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            out["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
