"""Chain complexes of predicate-restricted tuples over a finite group.

Generators in degree n are the admissible (n+1)-tuples of group elements;
the boundary is the alternating face sum.  Homology is computed from
exact integer Smith normal forms, and the comparison chain map back from
the full tuple complex (identity on admissible tuples) is constructed
degree by degree through integer solves, mirroring the acyclicity
induction.  The predicates are "all-tuples", "conf-distinct" (pairwise
distinct entries) and any face-closed, translation-invariant callable.
An extended cochain is exact: its values go through ``exact``, so integer
values stay Python ints, and a Fraction appears only where a value has a
denominator other than 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Integral

from .cochains import HomogeneousChain, HomogeneousCochain, exact
from .errors import (KernelObstruction, NotAChainMap, NotWellConfigured,
                     PredicateNotFaceClosed)
from .groups import UnitQuaternion
from .simplices import all_faces
from .snf import SmithSolver, rational_rank

PREDICATES = ("all-tuples", "conf-distinct")


class FiniteGroupTable:
    """Multiplication table of a finite group on the elements
    0..order-1."""

    def __init__(self, table):
        rows = [list(row) for row in table]
        self.order = len(rows)
        self.table = []
        for row in rows:
            if len(row) != self.order:
                raise ValueError(f"multiplication table is not square: a "
                                 f"row of {len(row)} in {self.order} rows")
            self.table.append([self.element(x, "table entry") for x in row])
        self.elements = tuple(range(self.order))
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._check_associativity()

    def element(self, x, what):
        """``x`` as an int when it is an element, an integer (not a bool)
        in 0..order-1; otherwise ValueError, naming x as ``what``."""
        if type(x) is bool or not isinstance(x, Integral) \
                or not 0 <= x < self.order:
            raise ValueError(f"{what} {x!r} is not in 0..{self.order - 1}")
        return int(x)

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
        return cls(table)

    @classmethod
    def quaternion8(cls) -> "FiniteGroupTable":
        """The eight unit quaternions, numbered 1, -1, i, -i, j, -j, k,
        -k."""
        units = [UnitQuaternion(*v) for v in
                 [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                  (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]]

        def index_of(q):
            for i, u in enumerate(units):
                if q.isclose(u, tol=1e-9):
                    return i
            raise ValueError("product left the subgroup")

        return cls([[index_of(a * b) for b in units] for a in units])


@dataclass(frozen=True)
class HomologySummary:
    """Free rank and torsion coefficients of one homology group."""

    degree: int
    free_rank: int
    torsion: tuple

    def __post_init__(self):
        for t in self.torsion:
            # a bool is an Integral, but no torsion coefficient
            if isinstance(t, bool) or not isinstance(t, Integral) or t < 2:
                raise ValueError(
                    f"torsion coefficients must be integers >= 2, got {t!r}")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must divide in turn")

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion


def _predicate_fn(predicate):
    if callable(predicate):
        return predicate
    if predicate == "all-tuples":
        return lambda t: True
    if predicate == "conf-distinct":
        return lambda t: len(set(t)) == len(t)
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
        self._admit = _predicate_fn(predicate)
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
        self.boundaries = [None] + [self._boundary_matrix(n)
                                    for n in range(1, q + 1)]
        self._solvers = {}
        self._retraction = None

    def _boundary_matrix(self, n):
        """The boundary of degree n, built in the pass that checks each
        tuple's faces, then its diagonal translates, for admissibility."""
        faces, index = self.index[n - 1], self.index[n]
        mat = [[0] * len(index) for _ in range(len(faces))]
        for j, t in enumerate(self.generators[n]):
            for sign, ft in all_faces(t):
                i = faces.get(ft)
                if i is None:
                    raise PredicateNotFaceClosed(
                        f"face {ft} of admissible {t} is not admissible")
                mat[i][j] += sign
            for g in self.group.elements:
                if tuple(self.group.mul(g, x) for x in t) not in index:
                    raise PredicateNotFaceClosed(
                        f"diagonal translate of {t} is not admissible")
        return mat

    def solver(self, n) -> SmithSolver:
        if n not in self._solvers:
            self._solvers[n] = SmithSolver(self.boundaries[n])
        return self._solvers[n]


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
    rank_out = 0 if n == 0 else complex_.solver(n).rank
    rank_in = complex_.solver(n + 1).rank
    torsion = tuple(d for d in complex_.solver(n + 1).diag if d not in (0, 1))
    return HomologySummary(degree=n, free_rank=n_gens - rank_out - rank_in,
                           torsion=torsion)


def _normalize(group: FiniteGroupTable, t):
    g0inv = group.inv(t[0])
    return tuple(group.mul(g0inv, x) for x in t)


def _image_of_boundary(r_prev, t):
    """sum_i (-1)^i r(d_i t), a dict of nonzero terms, for the degree-(n-1)
    images ``r_prev``."""
    out = {}
    for sign, ft in all_faces(t):
        for s, c in r_prev[ft].terms.items():
            out[s] = out.get(s, 0) + sign * c
    return {s: c for s, c in out.items() if c}


def _chain(terms):  # a HomogeneousChain of a dict of nonzero terms
    chain = HomogeneousChain()
    chain.terms = terms
    return chain


def build_retraction(complex_: ConfiguredComplex):
    """Chain map from the full tuple complex onto the configured one,
    built and verified once per complex, which keeps it.

    Returns r_0..r_q, where r_n is a dict from every (n+1)-tuple of group
    elements to its image, a HomogeneousChain of admissible (n+1)-tuples.
    The image of an admissible tuple is the tuple itself, and the boundary
    of every image is the image of the boundary, both checked exactly
    (NotAChainMap otherwise).
    The construction solves integer systems for normalized tuples (first
    entry the identity) and translates their images by the first entry.
    Raises NotWellConfigured when the configured complex is not exact in
    the degrees the induction needs.
    """
    if complex_._retraction is not None:
        return complex_._retraction
    q = complex_.q
    group = complex_.group
    h0 = homology(complex_, 0)
    if h0.free_rank != 1 or h0.torsion:
        raise NotWellConfigured(f"H_0 = {h0}, expected Z")
    for n in range(1, q):
        hn = homology(complex_, n)
        if not hn.is_trivial():
            raise NotWellConfigured(f"H_{n} = {hn}, expected 0")

    # degree 0: every 1-tuple is admissible, r_0 = id
    r = [{(g,): HomogeneousChain([(1, (g,))]) for g in group.elements}]
    for n in range(1, q + 1):
        normalized = {}
        for rest in product(group.elements, repeat=n):
            t = (group.identity,) + rest
            if t in complex_.index[n]:
                normalized[t] = {t: 1}
                continue
            z = _image_of_boundary(r[n - 1], t)
            col = complex_.solver(n).solve(
                [z.get(s, 0) for s in complex_.generators[n - 1]])
            if col is None:
                raise NotWellConfigured(
                    f"no integral filling for the boundary of {t}")
            normalized[t] = {s: c for c, s in zip(col, complex_.generators[n])
                             if c}
        # left translation by full[0] is a bijection, so no terms merge
        r.append({
            full: _chain({tuple(group.table[full[0]][x] for x in s): c
                          for s, c in normalized[_normalize(group, full)]
                          .items()})
            for full in product(group.elements, repeat=n + 1)})
    _verify_retraction(complex_, r)
    complex_._retraction = r
    return r


def _verify_retraction(complex_, r):
    for n in range(1, complex_.q + 1):
        for t in complex_.generators[n]:
            if r[n][t].terms != {t: 1}:
                raise NotAChainMap(
                    "retraction is not the identity on admissible tuples")
        # chain map: boundary . r_n == r_{n-1} . boundary on every tuple
        for t, image in r[n].items():
            if any(s not in complex_.index[n] for s in image.terms):
                raise NotAChainMap(
                    "retraction leaves the configured complex")
            if image.boundary().terms != _image_of_boundary(r[n - 1], t):
                raise NotAChainMap("retraction is not a chain map")


def extend_cocycle(complex_: ConfiguredComplex, values) -> HomogeneousCochain:
    """Extend a top-degree cochain through the comparison chain map.

    ``values`` assigns a number to every degree-q generator, taken as
    ``exact(value)``, so integer values sum as Python ints (ValueError for
    a value that is not a finite rational).  The cochain must vanish on
    the kernel of the top boundary map (checked against an exact kernel
    basis); the result is defined on all (q+1)-tuples and has identically
    vanishing coboundary.  Its value on each tuple is summed once, from
    the tuple's image under ``build_retraction(complex_)``, into a table.
    """
    q = complex_.q
    gens = complex_.generators[q]
    if len(values) != len(gens):
        raise ValueError(f"expected {len(gens)} values")
    vals = [exact(v) for v in values]
    solver = complex_.solver(q)
    for kvec in solver.kernel_basis():
        pairing = sum(c * v for c, v in zip(kvec, vals) if c)
        if pairing != 0:
            raise KernelObstruction(
                f"cochain does not vanish on the kernel vector {kvec}")
    index = complex_.index[q]
    table = {t: sum(c * vals[index[s]] for s, c in image.terms.items())
             for t, image in build_retraction(complex_)[q].items()}
    return HomogeneousCochain(q, 0, lambda ts: [(table[t], 0.0) for t in ts],
                              label=f"extended({complex_.predicate})")


def brute_force_free_rank(complex_: ConfiguredComplex, n: int) -> int:
    """Free rank of H_n by rational ranks only (independent oracle)."""
    n_gens = len(complex_.generators[n])
    r_out = 0 if n == 0 else rational_rank(complex_.boundaries[n])
    r_in = rational_rank(complex_.boundaries[n + 1])
    return n_gens - r_out - r_in
