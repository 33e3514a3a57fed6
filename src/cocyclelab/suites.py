"""Named verification suites with machine-readable reports.

Each suite runs a fixed list of quantitative checks with pinned
tolerances into the recorder that ``run_suite`` hands it, and
``run_suite`` returns them as a SuiteReport under the suite's name in
``_SUITES``.  Reports are deterministic for a given configuration (fixed
seeds, ordered reductions) apart from the recorded runtimes.  A check
whose computation raises a CocycleLabError is reported as failed with
the error, and the suite goes on with its next check.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .cochains import (HomogeneousCochain, circle_distance, coboundary,
                       conjugate_point_map, cyclic_cycle, degree_of_map,
                       generic_rotation, integrated_cochain, kronecker_pair,
                       transfer, twisted_square_map)
from .contact import (alpha_value, contact_bracket, contact_cocycle,
                      contact_field, contact_pairings, fiber_period, pullback,
                      reeb_field)
from .errors import CocycleLabError, ConfigParse, UnknownSuite
from .finite import (FiniteGroupTable, brute_force_free_rank, build_complex,
                     build_retraction, extend_cocycle, homology)
from .forms import (DifferentialForm, mc3_form, pullback_integral,
                    symplectic_form_value, vol_form)
from .groups import (QUAT_ONE, _qconj, _qexp_jet, _qmul, apply_rotation,
                     cyclic_embed, hopf_arr, hopf_jacobian, quat_exp,
                     so4_of)
from .hamiltonian import (SphereFunction, pairing_integrals, poisson,
                          symplectic_cocycle)
from .lie import (LieAlgebraTable, cartan_cocycle, ce_differential,
                  derivation_residual, form_at_identity)
from .quadrature import QuadratureSpec
from .simplices import (ParametrizedMap, all_faces, in_open_hemisphere,
                        prism_cell, straighten)
from .snf import rational_rank

DEFAULT_CONFIG = {
    "seed": 0x5EED,
    "order": 8,
    "defect_tuples": 100,
    "prism_simplices": 10,
    "adinv_triples": 20,
    "contact_samples": 50,
}
# keys that count samples, tuples or simplices; each must be at least 1
_COUNT_KEYS = ("defect_tuples", "prism_simplices", "adinv_triples",
               "contact_samples")


@dataclass(frozen=True)
class CheckResult:
    id: str
    expected: float
    computed: float
    tol: float
    passed: bool
    ms: float
    error: str | None = None  # the CocycleLabError that stopped the check

    def as_dict(self):
        out = {"id": self.id, "expected": self.expected,
               "computed": self.computed, "tol": self.tol,
               "pass": self.passed, "ms": self.ms}
        if self.error is not None:
            out.update(computed=None, error=self.error)
        return out


@dataclass
class SuiteReport:
    suite: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {"suite": self.suite,
                "checks": [c.as_dict() for c in self.checks],
                "pass": self.passed}


class _Recorder:
    def __init__(self):
        self.checks = []

    @contextmanager
    def check(self, check_id, expected, tol):
        """Time the body of one check, which reports its value through the
        yielded ``record(computed, passed=None)``; ``passed`` defaults to
        |computed - expected| <= tol.  A CocycleLabError raised in the body
        is recorded as a failed check carrying the error."""
        started = time.perf_counter()

        def add(computed, passed, error=None):
            ms = (time.perf_counter() - started) * 1000.0
            self.checks.append(CheckResult(check_id, float(expected),
                                           float(computed), float(tol),
                                           bool(passed), ms, error))

        def record(computed, passed=None):
            if passed is None:
                passed = abs(computed - expected) <= tol
            add(computed, passed)

        try:
            yield record
        except CocycleLabError as exc:
            add(float("nan"), False, f"{type(exc).__name__}: {exc}")


def parse_config(text: str) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment.  A value that reads as
    an int is one, any other stays a string."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"line {ln}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigParse(f"line {ln}: empty key")
        try:
            out[key] = int(value)
        except ValueError:
            out[key] = value
    return out


def _merged(config):
    """DEFAULT_CONFIG overridden by ``config``; raises ConfigParse on a key
    that is not in DEFAULT_CONFIG, a value that is not an int, order < 2,
    seed < 0 or a count key below 1."""
    cfg = dict(DEFAULT_CONFIG)
    for key, value in (config or {}).items():
        if key not in DEFAULT_CONFIG:
            raise ConfigParse(f"unknown config key {key!r}; known keys: "
                              f"{', '.join(DEFAULT_CONFIG)}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigParse(f"config key {key!r} takes an integer, "
                              f"got {value!r}")
        cfg[key] = value
    for key, least in [("order", 2), ("seed", 0)] + [
            (k, 1) for k in _COUNT_KEYS]:
        if cfg[key] < least:
            raise ConfigParse(f"config key {key!r} must be >= {least}, "
                              f"got {cfg[key]}")
    return cfg


def _suite_cs_pairing(rec, cfg):
    base = apply_rotation(generic_rotation(cfg["seed"]), QUAT_ONE)
    cochain = integrated_cochain(
        vol_form(), "spherical", base_point=base,
        quad=QuadratureSpec(order=cfg["order"], tol=1e-3))
    for m in (3, 5, 6, 8):

        def embed(a, _m=m):
            return so4_of(cyclic_embed(_m, a), cyclic_embed(_m, -a))

        with rec.check(f"pairing-m{m}", (4.0 / m) % 1.0, 2e-3) as record:
            value = kronecker_pair(cochain, cyclic_cycle(m), embed=embed)
            dist = min(circle_distance(value, 4.0 / m),
                       circle_distance(value, -4.0 / m))
            # the representative in [-1/2, 1/2): a value just below 1 and
            # one just above 0 are the same point of the circle
            record((value + 0.5) % 1.0 - 0.5, passed=dist <= 2e-3)


def _suite_lemma44(rec, cfg):
    quad = QuadratureSpec(order=cfg["order"], tol=1e-4)
    with rec.check("degree-c1", 0.0, 1e-2) as record:
        record(degree_of_map(conjugate_point_map(QUAT_ONE), quad))
    with rec.check("degree-c2", 2.0, 1e-2) as record:
        record(degree_of_map(twisted_square_map(QUAT_ONE), quad))


def _random_hemispherical_tuple(rng, base):
    while True:
        t = []
        for _ in range(5):
            t.append(so4_of(quat_exp(rng.normal(size=3) * 0.25),
                            quat_exp(rng.normal(size=3) * 0.25)))
        pts = [apply_rotation(g, base).vec for g in t]
        if in_open_hemisphere(pts):
            return tuple(t)


def _suite_cocycle_defect(rec, cfg):
    # every tuple is drawn first; each batch's coboundary is then one
    # stacked pass over the faces of all its tuples
    rng = np.random.default_rng(cfg["seed"])
    spherical_tuples = [_random_hemispherical_tuple(rng, QUAT_ONE)
                        for _ in range(cfg["defect_tuples"])]
    chart_tuples = [tuple(quat_exp(rng.normal(size=3) * 0.05)
                          for _ in range(5)) for _ in range(10)]
    cochain = integrated_cochain(vol_form(), "spherical",
                                 quad=QuadratureSpec(order=6, tol=1e-3))
    with rec.check("spherical-defect-ratio-max", 0.0, 1.0) as record:
        worst = 0.0
        for value, est in coboundary(cochain).with_errors(spherical_tuples):
            worst = max(worst, circle_distance(value, 0.0) / (5.0 * est))
        record(worst, passed=worst <= 1.0)

    # chart case: closed 3-form, values in R (no lattice)
    chart = integrated_cochain(mc3_form(), "chart",
                               quad=QuadratureSpec(order=6, tol=1e-3))
    with rec.check("chart-defect-ratio-max", 0.0, 1.0) as record:
        worst = 0.0
        for value, est in coboundary(chart).with_errors(chart_tuples):
            worst = max(worst, abs(value) / (5.0 * est))
        record(worst, passed=worst <= 1.0)


def _suite_gf_derivation(rec, cfg):
    with rec.check("mc3-degree3-residual", 0.0, 5e-2) as record:
        record(derivation_residual(mc3_form(),
                                   quad=QuadratureSpec(order=4, tol=1e-2)))

    def covector(p, t):
        return _qmul(_qconj(p), t[:, 0])[:, 1]

    cov = DifferentialForm(1, "SU2", covector)
    with rec.check("covector-degree1-residual", 0.0, 1e-4) as record:
        record(derivation_residual(cov, step=1e-3,
                                   quad=QuadratureSpec(order=8, tol=1e-2)))

    # the last link of the chain: the form at the identity is the Cartan
    # cocycle <x, [y, z]> of su(2), up to -1/(4 pi^2), and closed
    with rec.check("mc3-is-cartan", 0.0, 1e-14) as record:
        su2 = LieAlgebraTable.su2()
        cartan = cartan_cocycle(su2)
        target = -cartan.tensor.astype(float) / (4.0 * np.pi ** 2)
        dev = np.abs(form_at_identity(mc3_form()) - target).max() \
            / np.abs(target).max()
        closed = ce_differential(cartan, su2).norm_max() == 0.0
        record(dev, passed=dev <= 1e-14 and closed)

    with rec.check("cartan-closed-so4", 0.0, 0.0) as record:
        so4 = LieAlgebraTable.so4()
        record(ce_differential(cartan_cocycle(so4), so4).norm_max())


def _random_polynomial(rng, max_degree=3):
    coeffs = {}
    for key in product(range(max_degree + 1), repeat=3):
        if 0 < sum(key) <= max_degree and rng.random() < 0.4:
            coeffs[key] = int(rng.integers(-3, 4))
    if not coeffs:
        coeffs[(1, 0, 0)] = 1
    return SphereFunction(coeffs)


def _suite_symplectic(rec, cfg):
    x, y, z = (SphereFunction.coordinate(n) for n in "xyz")
    quad = QuadratureSpec(order=cfg["order"], tol=1e-6)

    with rec.check("beta-xyz", 1.0 / (2.0 * np.pi ** 2), 1e-8) as record:
        record(symplectic_cocycle(x, y, z, quad))

    rng = np.random.default_rng(cfg["seed"])
    with rec.check("poisson-relations", 0.0, 1e-9) as record:
        pts = rng.normal(size=(200, 3))
        pts = 0.5 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
        worst = 0.0
        for f, g, target in ((x, y, z), (y, z, x), (z, x, y)):
            worst = max(worst, float(np.abs(
                poisson(f, g).evaluate(pts) - target.evaluate(pts)).max()))
        record(worst)

    with rec.check("ad-invariance", 0.0, 1e-7) as record:
        pairs = []
        for _ in range(cfg["adinv_triples"]):
            f, g, h = (_random_polynomial(rng) for _ in range(3))
            pairs += [(poisson(f, g), h), (g, poisson(f, h))]
        v = pairing_integrals(pairs, quad)
        record(max(abs(a + b) for a, b in zip(v[::2], v[1::2])))


def _dalpha_fd(q, u, v):
    """Exterior derivative of the contact form by central differences of
    line-element values over a small coordinate surface.

    The surface is the normalized affine patch q + s u + t v; its partial
    derivatives are taken in closed form, only the outer derivative of the
    1-form coefficients is differenced."""

    def surface(s, t):
        w = q + s[:, None] * u + t[:, None] * v
        return w / np.linalg.norm(w, axis=1, keepdims=True)

    def partial(s, t, direction):
        w = q + s[:, None] * u + t[:, None] * v
        norm = np.linalg.norm(w, axis=1, keepdims=True)
        coeff = np.einsum("ni,ni->n", w, direction)[:, None] / norm ** 3
        return direction / norm - coeff * w

    def a_of_t(s, t):
        return alpha_value(surface(s, t), partial(s, t, v))

    def a_of_s(s, t):
        return alpha_value(surface(s, t), partial(s, t, u))

    h = 1e-5
    zero = np.zeros(q.shape[0])
    hh = np.full(q.shape[0], h)
    d_s = (a_of_t(hh, zero) - a_of_t(-hh, zero)) / (2 * h)
    d_t = (a_of_s(zero, hh) - a_of_s(zero, -hh)) / (2 * h)
    return d_s - d_t


def _suite_contact(rec, cfg):
    with rec.check("fiber-period", 2.0 * np.pi, 1e-9) as record:
        record(fiber_period(seed=cfg["seed"]))

    rng = np.random.default_rng(cfg["seed"])
    with rec.check("dalpha-pullback", 0.0, 1e-6) as record:
        n = cfg["contact_samples"]
        q = rng.normal(size=(n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        u = rng.normal(size=(n, 4))
        u -= np.einsum("ni,ni->n", u, q)[:, None] * q
        v = rng.normal(size=(n, 4))
        v -= np.einsum("ni,ni->n", v, q)[:, None] * q
        jac = hopf_jacobian(q)
        du = np.einsum("nkj,nj->nk", jac, u)
        dv = np.einsum("nkj,nj->nk", jac, v)
        pulled = symplectic_form_value(hopf_arr(q), du, dv)
        fd = _dalpha_fd(q, u, v)
        record(float(np.abs(fd - pulled).max()))

    x, y, z = (SphereFunction.coordinate(c) for c in "xyz")
    with rec.check("hopf-reduction", 0.0, 1e-4) as record:
        quad3 = QuadratureSpec(order=cfg["order"], tol=1e-4)
        b3 = contact_cocycle(pullback(x), pullback(y), pullback(z), quad3)
        b2 = symplectic_cocycle(x, y, z, QuadratureSpec(order=cfg["order"],
                                                        tol=1e-6))
        record(b3 - 2.0 * np.pi * b2)

    with rec.check("contact-ad-invariance", 0.0, 1e-6) as record:
        quad_fine = QuadratureSpec(order=max(12, cfg["order"]), tol=1e-4)
        pairs = []
        for _ in range(5):
            F, G, H = (pullback(_random_polynomial(rng, 2)) for _ in range(3))
            pairs += [(contact_bracket(F, G), H), (G, contact_bracket(F, H))]
        v = contact_pairings(pairs, quad_fine)
        record(max(abs(a + b) for a, b in zip(v[::2], v[1::2])))

    # last, on its own generator, so the checks above draw what they drew
    # before it was added
    rng = np.random.default_rng(cfg["seed"])
    with rec.check("contact-field", 0.0, 1e-12) as record:
        f = pullback(_random_polynomial(rng))
        q = rng.normal(size=(cfg["contact_samples"], 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        xf = contact_field(f)(q)
        one = pullback(SphereFunction.constant(1))
        record(max(
            float(np.abs(alpha_value(q, xf) - f.evaluate(q)).max()),
            float(np.abs(np.einsum("ni,ni->n", xf, q)).max()),
            float(np.abs(contact_field(one)(q) - reeb_field()(q)).max())))


def _summary_checks(rec, prefix, conf, n, expect_rank):
    """H_n of ``conf`` has free rank ``expect_rank`` and no torsion."""
    summary = None
    with rec.check(f"{prefix}-rank", expect_rank, 0.0) as record:
        summary = homology(conf, n)
        record(summary.free_rank)
    with rec.check(f"{prefix}-torsion-count", 0.0, 0.0) as record:
        record(len((summary or homology(conf, n)).torsion))


def _suite_configured_homology(rec, cfg):
    conf = build_complex(FiniteGroupTable.cyclic(5), "conf-distinct", 3)
    for n, rank in ((0, 1), (1, 0), (2, 0)):
        _summary_checks(rec, f"conf-z5-H{n}", conf, n, rank)
    with rec.check("conf-z5-rational-crosscheck", 0.0, 0.0) as record:
        # each boundary is ranked over Q once: d_1 in H_0's free rank, d_2
        # and d_3 against their Smith ranks; equal ranks of d_1, d_2 and
        # d_3 give equal free ranks of H_0, H_1 and H_2
        record(max([abs(homology(conf, 0).free_rank
                        - brute_force_free_rank(conf, 0))]
                   + [abs(conf.solver(n).rank
                          - rational_rank(conf.boundaries[n]))
                      for n in (2, 3)]))

    for m in (2, 3):
        with rec.check(f"all-tuples-z{m}-acyclic", 0.0, 0.0) as record:
            full = build_complex(FiniteGroupTable.cyclic(m), "all-tuples", 3)
            record(max(homology(full, n).free_rank
                       + len(homology(full, n).torsion) for n in (1, 2)))

    # comparison chain map: identity on admissible tuples, boundary
    # compatibility, and an extension with exhaustively zero coboundary
    mats = None  # extend_cocycle builds its own when this check fails
    with rec.check("conf-z5-retraction-identities", 1.0, 0.0) as record:
        mats = build_retraction(conf)   # raises unless both identities hold
        record(1.0)
    with rec.check("conf-z5-extension-coboundary", 0.0, 0.0) as record:
        rng = np.random.default_rng(cfg["seed"])
        g_vals = [int(rng.integers(-3, 4)) for _ in conf.generators[2]]
        bd3 = conf.boundaries[3]
        f_vals = [sum(g_vals[i] * bd3[i][j] for i in range(len(g_vals)))
                  for j in range(len(conf.generators[3]))]
        cocycle = extend_cocycle(conf, f_vals, retraction=mats)
        # the 15625 faces of the 5-tuples are 625 distinct 4-tuples, so
        # each is evaluated once and the face sums read the table
        value = {t: cocycle(t) for t in product(range(5), repeat=4)}
        record(sum(1 for t in product(range(5), repeat=5)
                   if sum(s * value[ft] for s, ft in all_faces(t)) != 0))


def _carry_cochain(m: int, subgroup_stride: int):
    """Homogeneous 3-cochain on the order-m subgroup of Z/(m*stride) given
    by the classical carry formula a * floor((b+c)/m) / m."""

    def carry(t):
        a, b, c = ((t[1] - t[0]) // subgroup_stride % m,
                   (t[2] - t[1]) // subgroup_stride % m,
                   (t[3] - t[2]) // subgroup_stride % m)
        return Fraction(a * ((b + c) // m), m)

    return HomogeneousCochain(3, 1, lambda ts: [(carry(t), 0.0) for t in ts],
                              label=f"carry-z{m}")


def _worst_distance(f, g, tuples, scale=1):
    """max over ``tuples`` of the circle distance of f(t) to scale * g(t),
    each cochain evaluated on all the tuples in one call."""
    return max(float(circle_distance(v, scale * w)) for (v, _), (w, _)
               in zip(f.with_errors(tuples), g.with_errors(tuples)))


def _suite_transfer(rec, cfg):
    z6 = FiniteGroupTable.cyclic(6)
    sub = [0, 2, 4]
    phi = HomogeneousCochain(
        1, 1, lambda ts: [(Fraction((t[1] - t[0]) % 6, 6), 0.0) for t in ts],
        label="z3-slope")
    tr = transfer(phi, z6, sub)
    with rec.check("z3-in-z6-restriction", 0.0, 0.0) as record:
        record(_worst_distance(tr, phi, list(product(sub, repeat=2)), 2))

    z4 = FiniteGroupTable.cyclic(4)
    phi3 = _carry_cochain(2, 2)
    with rec.check("z2-in-z4-threecocycle-restriction", 0.0, 0.0) as record:
        tr3 = transfer(phi3, z4, [0, 2])
        record(_worst_distance(tr3, phi3, list(product([0, 2], repeat=4)),
                               2))

    with rec.check("chain-map", 0.0, 0.0) as record:
        record(_worst_distance(coboundary(tr),
                               transfer(coboundary(phi), z6, sub),
                               list(product(range(6), repeat=3))))


def _wiggled_simplex(rng):
    eps = 0.08
    u = rng.normal(size=(4, 3))
    u *= 0.18 / np.linalg.norm(u, axis=1, keepdims=True)

    def jet(bary, dbary):
        a, b = np.pi * bary[:, 1:2], np.pi * bary[:, 2:3]
        vec = (bary[:, 1:2] * u[0] + bary[:, 2:3] * u[1]
               + bary[:, 3:4] * u[2] + eps * np.sin(a) * np.sin(b) * u[3])
        dwiggle = eps * np.pi * (np.cos(a) * np.sin(b) * dbary[..., 1]
                                 + np.sin(a) * np.cos(b) * dbary[..., 2])
        return _qexp_jet(vec, dbary[..., 1:] @ u[:3]
                         + dwiggle[..., None] * u[3])

    return ParametrizedMap.from_barycentric(3, jet)


def _suite_prism(rec, cfg):
    rng = np.random.default_rng(cfg["seed"])
    form = vol_form()
    quad = QuadratureSpec(order=cfg["order"], depth=1, tol=1e-3)
    with rec.check("stokes-ratio-max", 0.0, 1.0) as record:
        worst, vacuous = 0.0, False
        for _ in range(cfg["prism_simplices"]):
            f = _wiggled_simplex(rng)
            res_straight, res_f, *cells = pullback_integral(
                form, [straighten(f), f]
                + [prism_cell(f.face(i)) for i in range(4)], quad)
            est = res_straight.error_estimate + res_f.error_estimate
            rhs = 0.0
            for i, r in enumerate(cells):
                rhs += (-1) ** i * r.value
                est += r.error_estimate
            lhs = res_straight.value - res_f.value
            if est > 0.0:
                ratio = abs(lhs - rhs) / (2.0 * est)
            else:
                ratio = 0.0 if lhs == rhs else float("inf")
            worst = max(worst, ratio)
            # an identity whose sides are not well above their estimate
            # says nothing, as when both collapse to 0
            vacuous |= not abs(lhs) > 1e3 * est
        record(worst, passed=worst <= 1.0 and not vacuous)


_SUITES = {
    "cs-pairing": (_suite_cs_pairing,
                   "torsion pairing of the spherical volume cochain with "
                   "cyclic three-cycles"),
    "lemma44": (_suite_lemma44,
                "mapping degrees of the two double-cover point maps on the "
                "3-sphere"),
    "cocycle-defect": (_suite_cocycle_defect,
                       "coboundary of integrated cochains on random "
                       "admissible 5-tuples"),
    "gf-derivation": (_suite_gf_derivation,
                      "derivation map recovers invariant forms from "
                      "integrated cochains"),
    "symplectic": (_suite_symplectic,
                   "Poisson brackets and the normalized trilinear cocycle "
                   "on the 2-sphere"),
    "contact": (_suite_contact,
                "contact form normalizations and the Hopf reduction of the "
                "trilinear cocycle"),
    "configured-homology": (_suite_configured_homology,
                            "exact homology, comparison chain map and "
                            "cocycle extension for finite tuple complexes"),
    "transfer": (_suite_transfer,
                 "corestriction identities for finite-index normal "
                 "subgroups"),
    "prism": (_suite_prism,
              "straightening homotopy identity against closed 3-forms"),
}


def list_suites():
    """Names with one-line descriptions, in a fixed order."""
    return [(name, _SUITES[name][1]) for name in _SUITES]


def run_suite(name: str, config: dict | None = None) -> SuiteReport:
    """Run one named suite with optional configuration overrides.

    Raises UnknownSuite for a name not in ``list_suites()`` and ConfigParse
    for an override that ``DEFAULT_CONFIG`` does not admit."""
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(_SUITES)}")
    cfg = _merged(config)
    rec = _Recorder()
    _SUITES[name][0](rec, cfg)
    return SuiteReport(name, rec.checks)
