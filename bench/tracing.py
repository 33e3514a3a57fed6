"""Span recording around calls into cocyclelab's layers.

The benchmark does not change the library: ``instrument`` wraps public
functions and methods of the layer modules at run time, in the worker
process only, and every wrapper records one span.  Spans are aggregated in
memory as they close:

* ``calls``: spans closed, nested ones included;
* ``total``: wall time of the outermost span of each name (a nested span
  of the same name is not counted twice);
* ``self``: span time minus the time of its child spans, which is the
  layer's own work.  Time spent in the recorder's hooks is charged to no
  layer.

Hooks attached to a wrapper add work counts (points, nodes, entries,
repeats).  A repeat is work whose inputs and result were already seen in
the same ``run_suite`` call, so repeating a suite inside a pass adds none.  Counts depend only on the inputs, so two traced passes of the
same workload and seed give identical counts; timings are kept apart.
"""
from __future__ import annotations

import functools
import hashlib
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Aggregates spans by name as they close; see the module docstring."""

    def __init__(self):
        self._stack = []          # open spans: [name, child_ns]
        self._open = Counter()    # open spans per name
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self._seen = {}

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recording a span ``name``; ``hook(tracer, outer,
        args, result)`` runs after a call that returned."""
        stack, is_open = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            outer = is_open[name] == 0
            is_open[name] += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                is_open[name] -= 1
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if outer:
                    self.total_ns[name] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                h0 = perf_counter_ns()
                hook(self, outer, args, result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - h0
            return result

        return traced

    def forget_seen(self):
        """Start a new scope for ``seen_before``: one ``run_suite`` call."""
        self._seen.clear()

    def seen_before(self, layer, key):
        """True when ``key`` was already recorded for ``layer`` in this
        scope."""
        seen = self._seen.setdefault(layer, set())
        if key in seen:
            return True
        seen.add(key)
        return False


def _count_points(layer):
    def hook(tracer, outer, args, result):
        if outer:
            tracer.counts[f"{layer}.points"] += len(result)
    return hook


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _evaluate_cube_hook(tracer, outer, args, result):
    # input nodes plus output identify (cell, node set): a different cell
    # at the same nodes gives a different output
    if not outer:
        return
    n = len(result)
    tracer.counts["simplices.evaluate_cube.points"] += n
    if tracer.seen_before("evaluate_cube", _digest(args[1], result)):
        tracer.counts["simplices.evaluate_cube.repeat_points"] += n


def _hemisphere_hook(tracer, outer, args, result):
    if result:
        tracer.counts["simplices.in_open_hemisphere.accepted"] += 1


def _cube_nodes_hook(tracer, outer, args, result):
    n, spec = args[1], args[2]
    cells = 2 ** (spec.depth * n)
    tracer.counts["quadrature.integrate_on_cube.nodes"] += cells * (
        spec.order ** n + (spec.order + 2) ** n)


def _element_key(g):
    for attr in ("matrix", "vec"):
        arr = getattr(g, attr, None)
        if arr is not None:
            return np.asarray(arr).tobytes()
    return repr(g).encode()


def _with_error_hook(tracer, outer, args, result):
    cochain, t = args[0], args[1]
    key = (cochain.label, tuple(_element_key(g) for g in t), repr(result))
    if tracer.seen_before("with_error", key):
        tracer.counts["cochains.with_error.repeats"] += 1


def _smith_entries_hook(tracer, outer, args, result):
    mat = args[1]
    tracer.counts["snf.SmithSolver.entries"] += \
        len(mat) * (len(mat[0]) if mat else 0)


def _layer_targets():
    """(span name, owner, attribute, hook) for every traced entry point."""
    from cocyclelab import (cochains, contact, finite, forms, groups,
                            hamiltonian, lie, quadrature, simplices, snf)
    return [
        ("simplices.evaluate_cube", simplices.GeodesicSimplex, "evaluate_cube",
         _evaluate_cube_hook),
        ("simplices.evaluate_cube", simplices.ParametrizedMap, "evaluate_cube",
         _evaluate_cube_hook),
        ("simplices.evaluate_bary", simplices.GeodesicSimplex, "evaluate",
         _count_points("simplices.evaluate_bary")),
        ("simplices.evaluate_bary", simplices.ParametrizedMap, "evaluate",
         _count_points("simplices.evaluate_bary")),
        ("simplices.in_open_hemisphere", simplices, "in_open_hemisphere",
         _hemisphere_hook),
        ("forms.pullback_integral", forms, "pullback_integral", None),
        ("forms.sphere_integral", forms, "sphere_integral", None),
        ("forms.DifferentialForm.evaluate", forms.DifferentialForm, "evaluate",
         _count_points("forms.DifferentialForm.evaluate")),
        ("quadrature.integrate_on_cube", quadrature, "integrate_on_cube",
         _cube_nodes_hook),
        ("cochains.with_error", cochains.HomogeneousCochain, "with_error",
         _with_error_hook),
        ("cochains.kronecker_pair", cochains, "kronecker_pair", None),
        ("hamiltonian.SphereFunction.evaluate", hamiltonian.SphereFunction,
         "evaluate", _count_points("hamiltonian.SphereFunction.evaluate")),
        ("hamiltonian.poisson", hamiltonian, "poisson", None),
        ("contact.contact_bracket", contact, "contact_bracket", None),
        ("contact.ContactFunction.evaluate", contact.ContactFunction,
         "evaluate", None),
        ("lie.cochain_derivative", lie, "cochain_derivative", None),
        ("finite.build_complex", finite, "build_complex", None),
        ("finite.homology", finite, "homology", None),
        ("finite.build_retraction", finite, "build_retraction", None),
        ("finite.brute_force_free_rank", finite, "brute_force_free_rank",
         None),
        ("snf.SmithSolver", snf.SmithSolver, "__init__", _smith_entries_hook),
        ("groups.so4_of", groups, "so4_of", None),
        ("groups.quat_exp", groups, "quat_exp", None),
        ("groups.apply_rotation", groups, "apply_rotation", None),
    ]


def instrument(tracer: Tracer):
    """Wrap every layer entry point in a span of ``tracer``.

    A module-level function is rebound in every ``cocyclelab`` module that
    imported it by name; a method is replaced on its class."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cocyclelab" or name.startswith("cocyclelab.")]
    for name, owner, attr, hook in _layer_targets():
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, hook)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


_CALLS = ("simplices.in_open_hemisphere", "forms.pullback_integral",
          "forms.sphere_integral", "quadrature.integrate_on_cube",
          "cochains.with_error", "cochains.kronecker_pair",
          "hamiltonian.poisson", "contact.contact_bracket",
          "lie.cochain_derivative", "snf.SmithSolver", "groups.so4_of",
          "groups.quat_exp", "groups.apply_rotation")
_POINTS = ("simplices.evaluate_cube", "simplices.evaluate_bary",
           "forms.DifferentialForm.evaluate",
           "hamiltonian.SphereFunction.evaluate")
_SELF = ("simplices.evaluate_cube", "simplices.evaluate_bary",
         "simplices.in_open_hemisphere", "forms.DifferentialForm.evaluate",
         "quadrature.integrate_on_cube", "cochains.with_error",
         "hamiltonian.SphereFunction.evaluate", "hamiltonian.poisson",
         "contact.ContactFunction.evaluate", "finite.build_complex",
         "finite.homology", "finite.build_retraction",
         "finite.brute_force_free_rank", "snf.SmithSolver", "groups.so4_of",
         "groups.quat_exp", "groups.apply_rotation")
_TOTAL = ("forms.pullback_integral", "forms.sphere_integral",
          "lie.cochain_derivative")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer):
    """(counts, timings) of one traced pass, keyed by per-layer metric."""
    c = tracer.counts
    counts = {f"{name}.calls": tracer.calls[name] for name in _CALLS}
    counts.update({f"{name}.points": c[f"{name}.points"] for name in _POINTS})
    cube_points = c["simplices.evaluate_cube.points"]
    counts.update({
        "simplices.evaluate_cube.repeat_share": _ratio(
            c["simplices.evaluate_cube.repeat_points"], cube_points),
        "simplices.in_open_hemisphere.accept_ratio": _ratio(
            c["simplices.in_open_hemisphere.accepted"],
            tracer.calls["simplices.in_open_hemisphere"]),
        "forms.evals_per_node": _ratio(
            cube_points, c["quadrature.integrate_on_cube.nodes"]),
        "quadrature.integrate_on_cube.nodes":
            c["quadrature.integrate_on_cube.nodes"],
        "cochains.with_error.repeat_share": _ratio(
            c["cochains.with_error.repeats"],
            tracer.calls["cochains.with_error"]),
        "snf.SmithSolver.entries": c["snf.SmithSolver.entries"],
    })
    timings = {f"{name}.self_s": tracer.self_ns[name] / 1e9
               for name in _SELF}
    timings.update({f"{name}.total_s": tracer.total_ns[name] / 1e9
                    for name in _TOTAL})
    timings["simplices.evaluate_cube.ns_per_point"] = _ratio(
        tracer.self_ns["simplices.evaluate_cube"], cube_points)
    return counts, timings
