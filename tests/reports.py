"""Print the nine ``verify`` suites' reports without their timings.

Runs every suite through ``run_suite`` at its default configuration, at
the default seed 0x5EED and at seeds 1 to 4, and prints one line of JSON
per (seed, suite), keys sorted, each check's ``ms`` left out.  Two source
trees that compute the same values print the same bytes, so a refactor
that should not change a result is checked by one ``cmp``:

    python tests/reports.py > after.txt
    cmp before.txt after.txt

Run it from the root of a source checkout (about 15 s).  pytest does not
collect this file (its name does not start with ``test_``), so it is not
part of the unit tests.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cocyclelab.suites import DEFAULT_CONFIG, list_suites, run_suite  # noqa: E402

SEEDS = (DEFAULT_CONFIG["seed"], 1, 2, 3, 4)


def main():
    for seed in SEEDS:
        for name, _ in list_suites():
            report = run_suite(name, {"seed": seed}).as_dict()
            for check in report["checks"]:
                del check["ms"]
            print(json.dumps({"seed": seed, "report": report},
                             sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
