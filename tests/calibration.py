"""Print how honest the error estimates of the suites' integrals are.

For each kind of integral that the ``verify`` suites run, at the suite's
own ``QuadratureSpec`` (as ``suites.py`` sets it at the default config),
it prints the worst and the median of

    |value - reference| / estimate

over every integral of that kind that the suites compute at the default
seed 0x5EED and at seeds 1 to 4.  A ratio above 1 is an estimate that
does not cover its error.  The reference is the exact value where there is
one: the CP1 and S^3 pairings and the atlas cells (``oracles``), and the
mapping degrees 0 and 2.  Otherwise it is the same integral at order + 6
and depth + 1.  A spherical cochain's values and pairings lie in R/Z, so
they are compared on the circle.

It asserts nothing.  Run it from the root of a source checkout (about
2 min):

    python tests/calibration.py

pytest does not collect this file (its name does not start with
``test_``).  A kind that integrates many draws takes ``take``, a slice of
them (all by default); ``test_calibration.py`` runs each kind on a small
slice at the default seed and asserts that every ratio is at most 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cocyclelab.cochains import (  # noqa: E402
    HomogeneousCochain, circle_distance, conjugate_point_map, cyclic_cycle,
    degree_of_map, generic_rotation, integrated_cochain, kronecker_pair,
    twisted_square_map)
from cocyclelab.contact import (  # noqa: E402
    contact_bracket, contact_cocycle, contact_pairings, pullback)
from cocyclelab.forms import (  # noqa: E402
    DifferentialForm, fubini_study_form, mc3_form, pullback_integral,
    sphere_atlas, vol_form)
from cocyclelab.groups import (  # noqa: E402
    QUAT_ONE, _qconj, _qmul, apply_rotation, cyclic_embed, quat_exp, so4_of)
from cocyclelab.hamiltonian import (  # noqa: E402
    SphereFunction, pairing_integrals, poisson, symplectic_cocycle)
from cocyclelab.lie import cochain_derivative  # noqa: E402
from cocyclelab.quadrature import QuadratureSpec  # noqa: E402
from cocyclelab.simplices import (  # noqa: E402
    all_faces, prism_cell, straighten)
from cocyclelab.suites import (  # noqa: E402
    DEFAULT_CONFIG, _random_hemispherical_tuple, _wiggled_simplex)
from oracles import CP1_CELL, S3_CELL, cp1_pairing, s3_pairing  # noqa: E402
from test_oracles import contact_pairs, symplectic_pairs  # noqa: E402

SEEDS = (DEFAULT_CONFIG["seed"], 1, 2, 3, 4)
ORDER = DEFAULT_CONFIG["order"]
X, Y, Z = (SphereFunction.coordinate(n) for n in "xyz")


def finer(quad):
    """The reference rule of an integral with no exact value."""
    return replace(quad, order=quad.order + 6, depth=quad.depth + 1)


def against(results, references, circle=False):
    """(error, estimate) of each result against its reference."""
    dist = circle_distance if circle else (lambda a, b: abs(a - b))
    return [(float(dist(r.value, ref)), r.error_estimate)
            for r, ref in zip(results, references)]


def cochain_values(form, kind, quad, batches):
    """(error, estimate) of an integrated cochain on each batch of tuples,
    one ``with_errors`` call a batch, against the cochain at the finer
    rule."""
    coarse, fine = (integrated_cochain(form, kind, q)
                    for q in (quad, finer(quad)))
    out = []
    for batch in batches:
        for (v, e), (ref, _) in zip(coarse.with_errors(batch),
                                    fine.with_errors(batch)):
            dist = circle_distance(v, ref) if kind == "spherical" \
                else abs(v - ref)
            out.append((float(dist), e))
    return out


def cs_pairing(seed, take=slice(None)):
    quad = QuadratureSpec(order=ORDER, tol=1e-3)
    base = apply_rotation(generic_rotation(seed), QUAT_ONE)
    coarse, fine = (integrated_cochain(vol_form(), "spherical", q,
                                       base_point=base)
                    for q in (quad, finer(quad)))
    results, references = [], []
    for m in (3, 5, 6, 8)[take]:

        def embed(a, _m=m):
            return so4_of(cyclic_embed(_m, a), cyclic_embed(_m, -a))

        results.append(kronecker_pair(coarse, cyclic_cycle(m), embed))
        references.append(kronecker_pair(fine, cyclic_cycle(m), embed).value)
    return quad, against(results, references, circle=True)


def degrees(seed):
    quad = QuadratureSpec(order=ORDER, tol=1e-4)
    results = [degree_of_map(conjugate_point_map(QUAT_ONE), quad),
               degree_of_map(twisted_square_map(QUAT_ONE), quad)]
    return quad, against(results, [0.0, 2.0])


def _defect_tuples(seed):
    """The spherical and chart tuples of ``cocycle-defect``, drawn as the
    suite draws them."""
    rng = np.random.default_rng(seed)
    spherical = [_random_hemispherical_tuple(rng, QUAT_ONE)
                 for _ in range(DEFAULT_CONFIG["defect_tuples"])]
    chart = [tuple(quat_exp(rng.normal(size=3) * 0.05) for _ in range(5))
             for _ in range(10)]
    return spherical, chart


def _faces(tuples):
    return [[face for _, face in all_faces(t)] for t in tuples]


def defect_spherical(seed, take=slice(None)):
    quad = QuadratureSpec(order=6, tol=1e-3)
    spherical, _ = _defect_tuples(seed)
    return quad, cochain_values(vol_form(), "spherical", quad,
                                _faces(spherical[take]))


def defect_chart(seed, take=slice(None)):
    quad = QuadratureSpec(order=6, tol=1e-3)
    _, chart = _defect_tuples(seed)
    return quad, cochain_values(mc3_form(), "chart", quad,
                                _faces(chart[take]))


def _corners(degree, step):
    """The tuples at which ``cochain_derivative`` evaluates a cochain."""
    seen = []

    def evaluator(tuples):
        seen.extend(tuples)
        return [(0.0, 0.0)] * len(tuples)

    cochain_derivative(HomogeneousCochain(degree, 0, evaluator), step)
    return seen


def derivation_mc3(seed, take=slice(None)):
    quad = QuadratureSpec(order=4, tol=1e-2)
    return quad, cochain_values(mc3_form(), "chart", quad,
                                [_corners(3, 5e-2)[take]])


def derivation_covector(seed):
    quad = QuadratureSpec(order=8, tol=1e-2)
    cov = DifferentialForm(1, "SU2",
                           lambda p, t: _qmul(_qconj(p), t[:, 0])[:, 1])
    return quad, cochain_values(cov, "chart", quad, [_corners(1, 1e-3)])


def beta(seed):
    quad = QuadratureSpec(order=ORDER, tol=1e-6)
    exact = 3.0 / math.pi ** 2 * float(cp1_pairing(X, poisson(Y, Z)))
    return quad, against([symplectic_cocycle(X, Y, Z, quad)], [exact])


def symplectic_adinv(seed):
    quad = QuadratureSpec(order=ORDER, tol=1e-6)
    pairs = symplectic_pairs(seed)
    return quad, against(pairing_integrals(pairs, quad),
                         [math.pi * float(cp1_pairing(f, g))
                          for f, g in pairs])


def hopf_cocycle(seed):
    quad = QuadratureSpec(order=ORDER, tol=1e-4)
    F, G, H = (pullback(f) for f in (X, Y, Z))
    exact = 3.0 / math.pi * float(
        s3_pairing(F.base, contact_bracket(G, H).base))
    return quad, against([contact_cocycle(F, G, H, quad)], [exact])


def contact_adinv(seed):
    quad = QuadratureSpec(order=max(12, ORDER), tol=1e-4)
    pairs = contact_pairs(seed)
    return quad, against(
        contact_pairings([(pullback(f), pullback(g)) for f, g in pairs],
                         quad),
        [math.pi ** 2 * float(s3_pairing(f, g)) for f, g in pairs])


def atlas_cells(seed):
    quad = QuadratureSpec(order=ORDER, tol=1e-6)
    out = []
    for form, sphere, share in ((vol_form(), "S3", float(S3_CELL)),
                                (fubini_study_form(), "CP1",
                                 math.pi * CP1_CELL)):
        atlas = sphere_atlas(sphere)
        out += against(pullback_integral(form, [c for _, c in atlas], quad),
                       [s * share for s, _ in atlas])
    return quad, out


def _prism(seed, cells, take):
    """The maps of ``stokes-ratio-max``, drawn as the suite draws them:
    the straightened and the wiggled simplex, or the four prism cells, of
    the simplices in ``take``."""
    quad = QuadratureSpec(order=ORDER, depth=1, tol=1e-3)
    rng = np.random.default_rng(seed)
    drawn = [_wiggled_simplex(rng)
             for _ in range(DEFAULT_CONFIG["prism_simplices"])]
    out = []
    for f in drawn[take]:
        maps = [prism_cell(f.face(i)) for i in range(4)] if cells \
            else [straighten(f), f]
        out += against(pullback_integral(vol_form(), maps, quad),
                       [r.value for r in
                        pullback_integral(vol_form(), maps, finer(quad))])
    return quad, out


def prism_simplices(seed, take=slice(None)):
    return _prism(seed, False, take)


def prism_cells(seed, take=slice(None)):
    return _prism(seed, True, take)


KINDS = [
    ("cs-pairing: spherical pairings", cs_pairing),
    ("lemma44: mapping degrees", degrees),
    ("cocycle-defect: spherical faces", defect_spherical),
    ("cocycle-defect: chart faces", defect_chart),
    ("gf-derivation: mc3 corners", derivation_mc3),
    ("gf-derivation: covector corners", derivation_covector),
    ("symplectic: beta-xyz cocycle", beta),
    ("symplectic: CP1 pairings", symplectic_adinv),
    ("contact: Hopf cocycle", hopf_cocycle),
    ("contact: S3 pairings", contact_adinv),
    ("atlas cells", atlas_cells),
    ("prism: straight and wiggled", prism_simplices),
    ("prism: cells", prism_cells),
]


def ratio(error, estimate):
    if error == 0.0:
        return 0.0
    return error / estimate if estimate > 0.0 else math.inf


def main():
    print(f"{'kind':34} {'spec':26} {'count':>5} {'worst':>9} "
          f"{'median':>9}")
    for name, kind in KINDS:
        ratios = []
        for seed in SEEDS:
            quad, pairs = kind(seed)
            ratios += [ratio(e, est) for e, est in pairs]
        spec = f"order {quad.order} depth {quad.depth} tol {quad.tol:g}"
        print(f"{name:34} {spec:26} {len(ratios):5} {max(ratios):9.3g} "
              f"{float(np.median(ratios)):9.3g}", flush=True)


if __name__ == "__main__":
    main()
