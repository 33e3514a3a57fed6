"""Chain complexes of predicate-restricted tuples over a finite group.

Generators in degree n are the admissible (n+1)-tuples of group elements;
the boundary is the alternating face sum.  Homology is computed from
exact integer Smith normal forms, and the comparison chain map back from
the full tuple complex (identity on admissible tuples) is constructed
degree by degree through integer solves, mirroring the acyclicity
induction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cochains import HomogeneousChain, HomogeneousCochain
from .errors import (KernelObstruction, NoCommonApex, NotWellConfigured,
                     PredicateNotFaceClosed)
from .groups import UnitQuaternion, cyclic_embed
from .simplices import all_faces, distinct_hopf
from .snf import SmithSolver, rational_rank

PREDICATES = ("all-tuples", "conf-distinct", "distinct-hopf")


class FiniteGroupTable:
    """Multiplication table of a finite group, with optional realization
    of the elements as unit quaternions (for geometric predicates)."""

    def __init__(self, table, labels=None, embedding=None):
        self.table = [list(map(int, row)) for row in table]
        self.order = len(self.table)
        self.labels = list(labels) if labels else list(range(self.order))
        self.embedding = embedding
        self.elements = tuple(range(self.order))
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        if self.order <= 24:
            self._check_associativity()

    def _find_identity(self):
        for e in self.elements:
            if all(self.table[e][g] == g == self.table[g][e]
                   for g in self.elements):
                return e
        raise ValueError("multiplication table has no identity")

    def _find_inverses(self):
        inv = []
        for g in self.elements:
            hits = [h for h in self.elements
                    if self.table[g][h] == self.identity
                    and self.table[h][g] == self.identity]
            if len(hits) != 1:
                raise ValueError(f"element {g} has no unique inverse")
            inv.append(hits[0])
        return inv

    def _check_associativity(self):
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[self.table[a][b]][c] != \
                            self.table[a][self.table[b][c]]:
                        raise ValueError("multiplication is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroupTable":
        table = [[(a + b) % m for b in range(m)] for a in range(m)]
        embedding = [cyclic_embed(m, a) for a in range(m)]
        return cls(table, labels=list(range(m)), embedding=embedding)

    @classmethod
    def quaternion8(cls) -> "FiniteGroupTable":
        """The eight unit quaternions {+-1, +-i, +-j, +-k}."""
        units = [UnitQuaternion(*v) for v in
                 [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                  (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]]

        def index_of(q):
            for i, u in enumerate(units):
                if q.isclose(u, tol=1e-9):
                    return i
            raise ValueError("product left the subgroup")

        table = [[index_of(a * b) for b in units] for a in units]
        labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        return cls(table, labels=labels, embedding=units)


@dataclass(frozen=True)
class HomologySummary:
    """Free rank and torsion coefficients of one homology group."""

    degree: int
    free_rank: int
    torsion: tuple

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must divide in turn")

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def as_dict(self):
        return {"rank": self.free_rank, "torsion": list(self.torsion)}


def _predicate_fn(group: FiniteGroupTable, predicate, hopf_tol=1e-9):
    if callable(predicate):
        return predicate
    if predicate == "all-tuples":
        return lambda t: True
    if predicate == "conf-distinct":
        return lambda t: len(set(t)) == len(t)
    if predicate == "distinct-hopf":
        if group.embedding is None:
            raise ValueError(
                "distinct-hopf needs a quaternion realization of the group")
        return lambda t: distinct_hopf([group.embedding[g] for g in t],
                                       hopf_tol)
    raise ValueError(f"unknown predicate {predicate!r}; "
                     f"choose one of {PREDICATES}")


class ConfiguredComplex:
    """Predicate-restricted tuple complex of a finite group, truncated at
    a maximal degree."""

    def __init__(self, group: FiniteGroupTable, predicate, q: int):
        if q < 1:
            raise ValueError("maximal degree must be >= 1")
        self.group = group
        self.predicate = predicate if isinstance(predicate, str) else "custom"
        self.q = q
        self._admit = _predicate_fn(group, predicate)
        if not all(self._admit((g,)) for g in group.elements):
            raise PredicateNotFaceClosed(
                "every single-element tuple must be admissible")
        self.generators = []
        self.index = []
        for n in range(q + 1):
            gens = [t for t in product(group.elements, repeat=n + 1)
                    if self._admit(t)]
            self.generators.append(gens)
            self.index.append({t: i for i, t in enumerate(gens)})
        self._check_closure()
        self.boundaries = [None] + [self._boundary_matrix(n)
                                    for n in range(1, q + 1)]
        self._solvers = {}

    def _check_closure(self):
        for n in range(1, self.q + 1):
            for t in self.generators[n]:
                for _, ft in all_faces(t):
                    if ft not in self.index[n - 1]:
                        raise PredicateNotFaceClosed(
                            f"face {ft} of admissible {t} is not admissible")
                for g in self.group.elements:
                    shifted = tuple(self.group.mul(g, x) for x in t)
                    if shifted not in self.index[n]:
                        raise PredicateNotFaceClosed(
                            f"diagonal translate of {t} is not admissible")

    def _boundary_matrix(self, n):
        rows = len(self.generators[n - 1])
        cols = len(self.generators[n])
        mat = [[0] * cols for _ in range(rows)]
        for j, t in enumerate(self.generators[n]):
            for sign, ft in all_faces(t):
                mat[self.index[n - 1][ft]][j] += sign
        return mat

    def generator_counts(self):
        return [len(g) for g in self.generators]

    def solver(self, n) -> SmithSolver:
        if n not in self._solvers:
            self._solvers[n] = SmithSolver(self.boundaries[n])
        return self._solvers[n]

    def boundary_of(self, chain: HomogeneousChain, n) -> list:
        """Coefficient vector of the boundary of a degree-n chain."""
        vec = [0] * len(self.generators[n - 1])
        for t, c in chain.terms.items():
            for sign, ft in all_faces(t):
                vec[self.index[n - 1][ft]] += sign * c
        return vec


def build_complex(group: FiniteGroupTable, predicate,
                  q: int) -> ConfiguredComplex:
    """Tuple complex of the group restricted by a named or custom
    predicate, with exact integer boundary matrices."""
    return ConfiguredComplex(group, predicate, q)


def homology(complex_: ConfiguredComplex, n: int) -> HomologySummary:
    """Exact integer homology in degree n <= q - 1."""
    if not 0 <= n <= complex_.q - 1:
        raise ValueError(f"need 0 <= n <= {complex_.q - 1}")
    n_gens = len(complex_.generators[n])
    if n == 0:
        rank_in = complex_.solver(1).rank
        cycle_rank = n_gens
    else:
        rank_out = complex_.solver(n).rank
        cycle_rank = n_gens - rank_out
        rank_in = complex_.solver(n + 1).rank
    torsion = tuple(d for d in complex_.solver(n + 1).diag if d not in (0, 1))
    return HomologySummary(degree=n, free_rank=cycle_rank - rank_in,
                           torsion=torsion)


def homology_report(complex_: ConfiguredComplex) -> dict:
    """JSON-ready summary: degree -> {rank, torsion}."""
    report = {
        "group_order": complex_.group.order,
        "predicate": complex_.predicate,
        "max_degree": complex_.q,
        "generators": complex_.generator_counts(),
        "homology": {str(n): homology(complex_, n).as_dict()
                     for n in range(complex_.q)},
    }
    return report


def homology_report_json(complex_: ConfiguredComplex) -> str:
    return json.dumps(homology_report(complex_), indent=2, sort_keys=True)


def cone_fill(complex_: ConfiguredComplex, cycle: HomogeneousChain,
              y) -> HomogeneousChain:
    """Fill a cycle by coning every generator to the apex y.

    Requires each extended tuple to stay admissible; the boundary identity
    is re-verified exactly before returning.
    """
    if not cycle.terms:
        return HomogeneousChain()
    degrees = {len(t) - 1 for t in cycle.terms}
    if len(degrees) != 1:
        raise ValueError("mixed-degree chain")
    n = degrees.pop()
    if n >= 1:
        if any(v != 0 for v in complex_.boundary_of(cycle, n)):
            raise ValueError("input chain is not a cycle")
    elif sum(cycle.terms.values()) != 0:
        raise ValueError("degree-0 input must have augmentation zero")
    sign = (-1) ** (n + 1)
    out = HomogeneousChain()
    for t, c in cycle.terms.items():
        ext = t + (y,)
        if ext not in complex_.index[n + 1]:
            raise NoCommonApex(f"apex {y} fails the predicate on {t}")
        out.add(sign * c, ext)
    bd = out.boundary()
    for t, c in cycle.terms.items():
        if bd.terms.get(t, 0) != c:
            raise AssertionError("cone boundary mismatch")  # pragma: no cover
    for t, c in bd.terms.items():
        if cycle.terms.get(t, 0) != c:
            raise AssertionError("cone boundary mismatch")  # pragma: no cover
    return out


def _tuple_rank(group: FiniteGroupTable):
    """Mixed-radix index of a tuple in the full tuple complex."""
    def idx(t):
        out = 0
        for g in t:
            out = out * group.order + g
        return out
    return idx


def _normalize(group: FiniteGroupTable, t):
    g0inv = group.inv(t[0])
    return tuple(group.mul(g0inv, x) for x in t)


def build_retraction(complex_: ConfiguredComplex, q: int | None = None):
    """Chain map from the full tuple complex onto the configured one.

    Returns integer matrices r_0..r_q with r restricted to admissible
    tuples the identity and with boundary * r = r * boundary exactly.
    The construction solves integer systems for normalized generators
    (first entry the identity) and extends along the diagonal action.
    Raises NotWellConfigured when the configured complex is not exact in
    the degrees the induction needs.
    """
    q = complex_.q if q is None else q
    if q > complex_.q:
        raise ValueError("retraction degree exceeds the built complex")
    group = complex_.group
    h0 = homology(complex_, 0)
    if h0.free_rank != 1 or h0.torsion:
        raise NotWellConfigured(f"H_0 = {h0}, expected Z")
    for n in range(1, q):
        hn = homology(complex_, n)
        if not hn.is_trivial():
            raise NotWellConfigured(f"H_{n} = {hn}, expected 0")

    idx_full = _tuple_rank(group)
    mats = []
    # degree 0: every 1-tuple is admissible, r_0 = id
    size0 = len(complex_.generators[0])
    mats.append([[1 if i == j else 0 for j in range(size0)]
                 for i in range(size0)])

    for n in range(1, q + 1):
        rows = len(complex_.generators[n])
        cols = group.order ** (n + 1)
        mat = [[0] * cols for _ in range(rows)]
        prev = mats[n - 1]
        normalized_cols = {}
        for rest in product(group.elements, repeat=n):
            t = (group.identity,) + rest
            if t in complex_.index[n]:
                col = [0] * rows
                col[complex_.index[n][t]] = 1
            else:
                z = [0] * len(complex_.generators[n - 1])
                for sign, ft in all_faces(t):
                    j = idx_full(ft)
                    for i in range(len(z)):
                        if prev[i][j]:
                            z[i] += sign * prev[i][j]
                if n == 1 and sum(z) != 0:
                    # boundaries of pairs land in augmentation-zero chains
                    raise NotWellConfigured(
                        "augmentation obstruction in degree 0")
                col = complex_.solver(n).solve(z)
                if col is None:
                    raise NotWellConfigured(
                        f"no integral filling for the boundary of {t}")
            normalized_cols[t] = col
        for full in product(group.elements, repeat=n + 1):
            t0 = full[0]
            norm = _normalize(group, full)
            col = normalized_cols[norm]
            j = idx_full(full)
            # translate the normalized column by t0
            for i, c in enumerate(col):
                if c:
                    gen = complex_.generators[n][i]
                    shifted = tuple(group.mul(t0, x) for x in gen)
                    mat[complex_.index[n][shifted]][j] += c
        mats.append(mat)
    _verify_retraction(complex_, mats, q)
    return mats


def _verify_retraction(complex_, mats, q):
    group = complex_.group
    idx_full = _tuple_rank(group)
    for n in range(1, q + 1):
        # identity on admissible tuples
        for i, t in enumerate(complex_.generators[n]):
            j = idx_full(t)
            for k in range(len(complex_.generators[n])):
                expected = 1 if k == i else 0
                if mats[n][k][j] != expected:
                    raise AssertionError(
                        "retraction is not the identity on admissible tuples")
        # chain map: boundary . r_n == r_{n-1} . boundary (checked on the
        # full complex generators)
        bd = complex_.boundaries[n]
        for full in product(group.elements, repeat=n + 1):
            j = idx_full(full)
            lhs = [0] * len(complex_.generators[n - 1])
            for i in range(len(complex_.generators[n])):
                c = mats[n][i][j]
                if c:
                    for k in range(len(complex_.generators[n - 1])):
                        if bd[k][i]:
                            lhs[k] += bd[k][i] * c
            rhs = [0] * len(complex_.generators[n - 1])
            for sign, ft in all_faces(full):
                jf = idx_full(ft)
                for k in range(len(complex_.generators[n - 1])):
                    if mats[n - 1][k][jf]:
                        rhs[k] += sign * mats[n - 1][k][jf]
            if lhs != rhs:
                raise AssertionError("retraction is not a chain map")


def extend_cocycle(complex_: ConfiguredComplex, values, retraction=None
                   ) -> HomogeneousCochain:
    """Extend a top-degree cochain through the comparison chain map.

    ``values`` assigns a number to every degree-q generator.  The cochain
    must vanish on the kernel of the top boundary map (checked against an
    exact kernel basis); the result is defined on all (q+1)-tuples and has
    identically vanishing coboundary.
    """
    q = complex_.q
    gens = complex_.generators[q]
    if len(values) != len(gens):
        raise ValueError(f"expected {len(gens)} values")
    vals = [Fraction(v) if not isinstance(v, float) else v for v in values]
    solver = complex_.solver(q)
    for kvec in solver.kernel_basis():
        pairing = sum(c * v for c, v in zip(kvec, vals) if c)
        if pairing != 0:
            raise KernelObstruction(
                f"cochain does not vanish on the kernel vector {kvec}")
    mats = build_retraction(complex_, q) if retraction is None else retraction
    group = complex_.group
    idx_full = _tuple_rank(group)

    def evaluator(t):
        j = idx_full(t)
        return sum(mats[q][i][j] * vals[i]
                   for i in range(len(gens)) if mats[q][i][j])

    return HomogeneousCochain(q, 0, evaluator,
                              label=f"extended({complex_.predicate})")


def brute_force_free_rank(complex_: ConfiguredComplex, n: int) -> int:
    """Free rank of H_n by rational ranks only (independent oracle)."""
    n_gens = len(complex_.generators[n])
    r_out = 0 if n == 0 else rational_rank(complex_.boundaries[n])
    r_in = rational_rank(complex_.boundaries[n + 1])
    return n_gens - r_out - r_in
