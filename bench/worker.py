"""One benchmark pass in a fresh interpreter, the way each ``verify`` call
starts.

    python3 bench/worker.py '<job as JSON>'

The job gives the source directory to import ``cocyclelab`` from, and
either ``"workload": null`` (an import-only set-up probe) or a workload
name with its seed, sizes and whether to trace.  The worker prints one
JSON line: when the import finished on the system-wide monotonic clock,
then per ``run_suite`` call its wall and CPU time, the reference kernel's
times around it, check verdicts and computed values, and for the pass its
peak memory and, when traced, the per-layer counts and timings.
"""
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def reference_kernel():
    """Fixed work that shares no code with cocyclelab: interpreted integer
    arithmetic and small-array numpy calls, the mix the suites spend
    their time in.  About 0.2 s on a 2-core x86-64 virtual machine.

    The machine's speed drifts by a third within a minute under load from
    other tenants; a call's time divided by this kernel's time next to it
    cancels most of that drift, and no change to cocyclelab moves it."""
    import numpy as np
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    grid = np.linspace(0.0, 1.0, 256)
    for i in range(4_000):
        wave = np.sin(grid) * np.cos(grid + i)
        acc += int(np.stack([wave, grid], axis=-1).sum(axis=0)[1])
    return acc


def _timed(fn, *args):
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    out = fn(*args)
    return out, time.perf_counter() - wall0, _cpu_s() - cpu0


def _versions():
    import numpy
    import scipy
    out = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        out["blas"] = None
    return out


def _run_suite_call(run_suite, suite, cfg):
    try:
        report = run_suite(suite, dict(cfg))
    except Exception:  # a raising suite is a failed call
        return [], traceback.format_exc(limit=4)
    return [{"id": c.id, "pass": c.passed, "computed": c.computed}
            for c in report.checks], None


def run_pass(job):
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import cocyclelab
    from cocyclelab.suites import run_suite
    import_done = time.monotonic()
    if Path(cocyclelab.__file__).resolve().parent != src / "cocyclelab":
        raise SystemExit(f"imported cocyclelab from {cocyclelab.__file__}, "
                         f"not from {src}")
    result = {"import_done": import_done}
    if job["workload"] is None:
        result["versions"] = _versions()
        return result

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    workload = WORKLOADS[job["workload"]]
    cfg = workload.config(job["seed"], job.get("sizes"))
    tracer = None
    if job["trace"]:
        from tracing import Tracer, instrument, layer_metrics
        tracer = Tracer()
        instrument(tracer)

    calls = []
    _, ref_wall, ref_cpu = _timed(reference_kernel)
    for _ in range(workload.repeat):
        for suite in workload.suites:
            if tracer is not None:
                tracer.forget_seen()
            (checks, error), wall, cpu = _timed(_run_suite_call, run_suite,
                                                suite, cfg)
            _, next_wall, next_cpu = _timed(reference_kernel)
            calls.append({"suite": suite, "wall_s": wall, "cpu_s": cpu,
                          "ref_wall_s": (ref_wall + next_wall) / 2.0,
                          "ref_cpu_s": (ref_cpu + next_cpu) / 2.0,
                          "checks": checks, "error": error})
            ref_wall, ref_cpu = next_wall, next_cpu
    result.update(calls=calls, peak_rss_mb=_peak_rss_mb(), counts=None,
                  timings=None)
    if tracer is not None:
        result["counts"], result["timings"] = layer_metrics(tracer)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
