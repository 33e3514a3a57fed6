"""Pin the verdict of every check of every workload at the default seed.

    python3 bench/pin_reference.py

Runs one untraced pass of each workload, at its benchmark sizes and the
default seed, and writes ``reference.json`` beside this file.  The
benchmark gates every later ``run_suite`` call against these verdicts:
a check pinned as passing must pass, a check pinned as failing (the
known-red ``cs-pairing`` pairings) is counted, never failed.  Re-pin only
on the commit a benchmark baseline is taken from.
"""
from __future__ import annotations

import json
import sys
import time

from run import BENCH_DIR, SRC, TIME_LIMIT_S, _git_sha, spawn_worker
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    verdicts = {}
    for name in sorted(WORKLOADS):
        result, _, _ = spawn_worker(
            {"src": str(SRC), "workload": name, "seed": DEFAULT_SEED,
             "sizes": None, "trace": False},
            time.monotonic() + TIME_LIMIT_S)
        for call in result["calls"]:
            if call["error"] is not None:
                sys.exit(f"{call['suite']} raised:\n{call['error']}")
            verdicts[call["suite"]] = {c["id"]: c["pass"]
                                       for c in call["checks"]}
    reference = {"seed": DEFAULT_SEED, "git_sha": _git_sha(),
                 "verdicts": verdicts}
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    red = [f"{s}/{c}" for s, checks in sorted(verdicts.items())
           for c, ok in sorted(checks.items()) if not ok]
    print(f"wrote {path}; known red: {', '.join(red) or 'none'}")


if __name__ == "__main__":
    main()
