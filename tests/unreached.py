"""List the functions and methods of ``src/cocyclelab`` that no suite
reaches.

Runs every ``verify`` suite once through ``run_suite`` at the smallest
counts under a ``sys.setprofile`` hook, then compares the code objects
that were entered with every top-level function and class-body method in
the package's modules.  A name that was never entered and is not on
``ALLOWED`` below is printed, and the script exits 1.  An ``ALLOWED``
entry that names nothing in the package, or a function that the suites do
enter, exits 1 too, so the list cannot go stale.  Run it from the root of
a source checkout:

    python tests/unreached.py

pytest does not collect this file (its name does not start with
``test_``), so it is not part of the unit tests.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "cocyclelab"

# the smallest count each count key admits; order and tolerances keep
# their defaults, so every suite still takes all of its code paths
SMALLEST = {"defect_tuples": 1, "prism_simplices": 1, "adinv_triples": 1,
            "contact_samples": 1}

# whole modules that the suites do not run
ALLOWED_MODULES = {
    "cli": "the command line; tests/test_cli.py and the console-script "
           "step of CI run it",
    "errors": "exception classes only; a class body defines no function "
              "the suites call",
}

# "module.qualname": why it may stay unreached, one line each
ALLOWED = {
    # accessors and small conveniences of the value types
    "groups.UnitQuaternion.inverse": "group inverse of the value type",
    "groups.UnitQuaternion.isclose": "comparison of the value type",
    "groups.Rotation.identity": "identity of the value type",
    "groups.Rotation.inverse": "group inverse of the value type",
    "groups.Rotation.isclose": "comparison of the value type",
    "hamiltonian.SphereFunction.degree": "degree accessor",
    "simplices.GeodesicSimplex.face":
        "simplex protocol, as ParametrizedMap.face, which prism reaches",
    "simplices.GeodesicSimplex.corner_vertices":
        "simplex protocol, as ParametrizedMap.corner_vertices, which "
        "prism reaches",
    # kept for a later suite
    "finite.FiniteGroupTable.quaternion8":
        "Q8, the first nonabelian group for configured-homology",
    "suites.parse_config": "reads the command line's --config files",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names():
    """{(file, first line): "module.qualname"} for every top-level
    function and method; a decorated definition starts at its first
    decorator, as its code object does."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module == "__init__" or module in ALLOWED_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name, sub) for sub in node.body]
            for owner, fn in members:
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    continue
                first = min([fn.lineno]
                            + [d.lineno for d in fn.decorator_list])
                qual = fn.name if owner is None else f"{owner}.{fn.name}"
                out[(str(path), first)] = f"{module}.{qual}"
    return out


def reached_code():
    """(file, first line) of every code object entered while the suites
    run at the smallest counts."""
    sys.path.insert(0, str(SRC))
    from cocyclelab.suites import list_suites, run_suite

    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    # as ``verify all --json`` does: list, run, report
    sys.setprofile(hook)
    try:
        reports = [run_suite(name, SMALLEST).as_dict()
                   for name, _ in list_suites()]
    finally:
        sys.setprofile(None)
    failed = [f"{r['suite']}: {c['id']}" for r in reports
              for c in r["checks"] if "error" in c]
    if failed:
        # a check that raised skipped the rest of its body
        raise SystemExit("checks raised, so coverage is incomplete:\n  "
                         + "\n  ".join(failed))
    return seen


def main():
    names = defined_names()
    seen = reached_code()
    known = set(names.values())
    stale = sorted(set(ALLOWED) - known)
    reached = sorted(qual for key, qual in names.items()
                     if key in seen and qual in ALLOWED)
    unreached = sorted(
        qual for key, qual in names.items()
        if key not in seen and qual not in ALLOWED
        and not _is_dunder(qual.rsplit(".", 1)[1]))
    for qual in unreached:
        print(f"unreached: {qual}")
    for qual in stale:
        print(f"allowed but not defined: {qual}")
    for qual in reached:
        print(f"allowed but reached: {qual}")
    print(f"{len(names)} functions and methods, "
          f"{len(unreached)} unreached and not allowed")
    return 1 if unreached or stale or reached else 0


if __name__ == "__main__":
    sys.exit(main())
