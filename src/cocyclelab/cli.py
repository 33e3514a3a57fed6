"""Command-line driver: ``verify <suite> [--config PATH] [--out PATH]
[--json]``.

``verify list`` prints the available suites, ``verify all`` runs every
suite in turn.  The process exits 0 exactly when every executed check
passed, 1 when a check failed, 2 on an unknown suite, a configuration
file that cannot be read as UTF-8 text, a configuration key or value
that ``DEFAULT_CONFIG`` does not admit or an unwritable ``--out``, and 3,
with the traceback on standard error, when a suite raises anything but a
package error.  A package error raised inside a check fails that check
only; the remaining checks and suites still run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .errors import ConfigParse, UnknownSuite
from .suites import list_suites, parse_config, run_suite


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run quantitative verification suites and emit "
                    "machine-readable reports.")
    parser.add_argument("suite",
                        help="suite name, or 'list' / 'all'")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat KEY=VALUE configuration file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a single configuration key")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout")
    return parser


def _load_config(args) -> dict:
    cfg = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigParse(f"cannot read {args.config}: {exc}") from exc
        cfg.update(parse_config(text))
    if args.set:
        cfg.update(parse_config("\n".join(args.set)))
    return cfg


def _print_human(report):
    print(f"suite {report.suite}: "
          f"{'PASS' if report.passed else 'FAIL'}")
    for c in report.checks:
        status = "ok  " if c.passed else "FAIL"
        outcome = f"error {c.error}" if c.error is not None \
            else f"computed {c.computed:.9g}"
        print(f"  [{status}] {c.id}: expected {c.expected:.9g}, "
              f"{outcome}, tol {c.tol:.3g} ({c.ms:.0f} ms)")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.out is not None and (os.path.isdir(args.out)
                                 or not os.path.isdir(args.out.parent)):
        print(f"error: cannot write {args.out}: not a file in an existing "
              "directory", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args)
        if args.suite == "list":
            for name, describes in list_suites():
                print(f"{name:22s} {describes}")
            return 0
        names = [name for name, _ in list_suites()] \
            if args.suite == "all" else [args.suite]
        reports = [run_suite(n, cfg) for n in names]
    except ConfigParse as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except UnknownSuite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program, not of its input
        traceback.print_exc()
        return 3

    for report in reports:
        _print_human(report)

    payload = reports[0].as_dict() if len(reports) == 1 else {
        "suites": [r.as_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    text = json.dumps(payload, indent=2)
    if args.json:
        print(text)
    if args.out is not None:
        try:
            args.out.write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
