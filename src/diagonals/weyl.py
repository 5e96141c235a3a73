"""Finite real reflection groups as explicit matrices.

Realizations are the classical ambient ones: type A_r acts by permuting
r+1 coordinates, types B/C/D by signed permutations, and G2 by the
twelve-element dihedral group on the plane x1+x2+x3 = 0 inside R^3.
Positive roots are integer vectors, listed in a fixed conventional order:
coordinate differences first (i < j), then sums, then the short/long
singles.  Reflections keep every integral entry an int, so every group
but G2 consists of integer matrices; G2's elements mix ints with
Fractions, its thirds among them.

Every element is a product of reflections s_alpha = 1 - alpha (x) alpha^v
with the coroot alpha^v = 2 alpha / (alpha . alpha) in the standard dot
product, so every element is orthogonal: w^{-1} = w^T.  The group acts on
the doubled polynomial ring in (x, y): x-coordinates transform by w^{-1}
(functions pull back) and y-coordinates by w^T (the dual action), so both
blocks transform by the one matrix w^T, the n x n matrix that the
substitution applies to both halves.  Signs come from the closure:
each generator is a reflection of determinant -1, so the sign of an
element is (-1)^length, its determinant.

Averages over W go through its subgroup H of monomial matrices: rows on
H-orbit representatives (average_row), which symmetrize and
antisymmetrize expand back over H.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .linalg import Matrix, identity, mat_mul, transpose
from .polyring import LinearSubstitution, Polynomial, QQ, RingContextError, ZERO

MAX_GROUP = 10_000


def _dot(a: Sequence, b: Sequence):
    """Sum of products of ints and rationals, as a rational."""
    return sum((x * y for x, y in zip(a, b)), ZERO)


@dataclass(frozen=True)
class RootSystem:
    """Positive roots plus the distinguished generating reflections."""

    family: str
    rank: int
    ambient: int
    positive_roots: tuple
    generator_roots: tuple

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def coroot(self, alpha: Sequence) -> tuple:
        norm = _dot(alpha, alpha)
        return tuple(2 * QQ(a) / norm for a in alpha)

    def reflection(self, alpha: Sequence) -> Matrix:
        """s_alpha = 1 - alpha (x) alpha_check as an ambient matrix, with an
        int for every integral entry."""
        av = self.coroot(alpha)
        n = self.ambient
        rows = ((int(i == j) - alpha[i] * av[j] for j in range(n))
                for i in range(n))
        return tuple(tuple(int(c) if c.denominator == 1 else c for c in row)
                     for row in rows)

    def pair_forms(self) -> tuple:
        """Primitive integer linear form of each positive root: the root
        over the gcd of its entries, so the signs stay the root's own."""
        return tuple(tuple(c // math.gcd(*a) for c in a)
                     for a in self.positive_roots)


def root_system(family: str, rank: int = 0) -> RootSystem:
    """Build a root system: family in A/B/C/D/G (G means G2)."""
    fam = family.upper().rstrip("0123456789")
    if not fam:
        raise ValueError(f"bad family {family!r}")
    digits = family[len(fam):]
    if digits:
        if rank and rank != int(digits):
            raise ValueError(f"conflicting rank in {family!r} and {rank}")
        rank = int(digits)
    if fam == "G":
        if rank not in (0, 2):
            raise ValueError("G family exists only in rank 2")
        rank = 2
    if rank < 1:
        raise ValueError("rank must be positive")

    def e(i: int, n: int, c=1) -> tuple:
        return tuple(c if k == i else 0 for k in range(n))

    def diff(i: int, j: int, n: int) -> tuple:
        return tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))

    def summ(i: int, j: int, n: int) -> tuple:
        return tuple(1 if k in (i, j) else 0 for k in range(n))

    if fam == "A":
        n = rank + 1
        pos = tuple(diff(i, j, n) for i, j in itertools.combinations(range(n), 2))
        gens = tuple(diff(i, i + 1, n) for i in range(rank))
        return RootSystem("A", rank, n, pos, gens)
    if fam in ("B", "C"):
        n = rank
        pos = [diff(i, j, n) for i, j in itertools.combinations(range(n), 2)]
        pos += [summ(i, j, n) for i, j in itertools.combinations(range(n), 2)]
        scale = 1 if fam == "B" else 2
        pos += [e(i, n, scale) for i in range(n)]
        gens = [diff(i, i + 1, n) for i in range(n - 1)]
        gens.append(e(0, n, scale))
        return RootSystem(fam, rank, n, tuple(pos), tuple(gens))
    if fam == "D":
        n = rank
        if n < 2:
            raise ValueError("D needs rank >= 2")
        pos = [diff(i, j, n) for i, j in itertools.combinations(range(n), 2)]
        pos += [summ(i, j, n) for i, j in itertools.combinations(range(n), 2)]
        gens = [diff(i, i + 1, n) for i in range(n - 1)]
        gens.append(summ(n - 2, n - 1, n))
        return RootSystem("D", rank, n, tuple(pos), tuple(gens))
    if fam == "G":
        n = 3
        pos = (
            diff(0, 1, n),
            diff(0, 2, n),
            diff(1, 2, n),
            (2, -1, -1),
            (-1, 2, -1),
            (-1, -1, 2),
        )
        gens = (diff(0, 1, n), (2, -1, -1))
        return RootSystem("G", 2, n, pos, gens)
    raise ValueError(f"unknown family {family!r}")


EXPECTED_ORDER = {
    "A": lambda r: math.factorial(r + 1),
    "B": lambda r: 2**r * math.factorial(r),
    "C": lambda r: 2**r * math.factorial(r),
    "D": lambda r: 2 ** (r - 1) * math.factorial(r),
    "G": lambda r: 12,
}


class WeylGroup:
    """Closure of the generating reflections, with cached doubled actions."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self.ambient = rs.ambient
        self.generators = tuple(rs.reflection(a) for a in rs.generator_roots)
        eye = identity(rs.ambient)
        elements = [eye]
        # every generator is a reflection, of sign -1
        self.signs = {eye: 1}
        frontier = [eye]
        while frontier:
            new = []
            for w in frontier:
                for g in self.generators:
                    wg = mat_mul(w, g)
                    if wg not in self.signs:
                        self.signs[wg] = -self.signs[w]
                        elements.append(wg)
                        new.append(wg)
                        if len(elements) > MAX_GROUP:
                            raise RuntimeError("group closure exceeded bound")
            frontier = new
        self.elements = tuple(elements)
        self.order = len(elements)
        expected = EXPECTED_ORDER[rs.family](rs.rank)
        if self.order != expected:
            raise RuntimeError(
                f"{rs.name}: closure found {self.order} elements, "
                f"expected {expected}"
            )
        self._sub: dict = {}
        self._monomial = tuple(
            w for w in self.elements
            if all(sum(1 for c in row if c) == 1 for row in w)
        )
        # orbit_projection sorts exponent pairs, which needs every
        # coordinate permutation in H; adjacent transpositions generate them
        members = set(self._monomial)
        for i in range(rs.ambient - 1):
            if eye[:i] + (eye[i + 1], eye[i]) + eye[i + 2:] not in members:
                raise RuntimeError(f"{rs.name}: monomial subgroup lacks the "
                                   f"transposition of coordinates {i}, {i + 1}")
        covered = set()
        reps = []
        for w in self.elements:
            if w in covered:
                continue
            reps.append(w)
            for h in self._monomial:
                covered.add(mat_mul(w, h))
        # W is the disjoint union of the cosets r*H, and so of the H*r^-1;
        # r^-1 = r^T, as every element is orthogonal
        self._coset_inverses = tuple(transpose(r) for r in reps)
        assert len(self._coset_inverses) * len(self._monomial) == self.order
        # per-monomial orbit projections, filled lazily, the distinct pairs
        # they hold, and the projection coefficient of each representative
        self.projection_memo: dict = {True: {}, False: {}}
        self._projection_pairs: dict = {}
        self._rep_coefficients: dict = {True: {}, False: {}}

    @functools.cached_property
    def reflections(self) -> tuple:
        """s_alpha of each positive root, in the root system's order."""
        rs = self.root_system
        return tuple(rs.reflection(a) for a in rs.positive_roots)

    @functools.cached_property
    def _monomial_action(self) -> tuple:
        """(substitution, sign) of every element of the monomial subgroup."""
        return tuple((self._substitution(h), self.signs[h])
                     for h in self._monomial)

    # -- actions -------------------------------------------------------------

    def _substitution(self, w: Matrix) -> LinearSubstitution:
        """The action of w on the doubled ring: the x-block pulls back by
        w^-1 = w^T, and the y-block transforms by w^T."""
        sub = self._sub.get(w)
        if sub is None:
            sub = self._sub[w] = LinearSubstitution(transpose(w))
        return sub

    def act(self, w: Matrix, f: Polynomial) -> Polynomial:
        if f.nvars != 2 * self.ambient:
            raise RingContextError(
                f"action needs {2 * self.ambient} variables, got {f.nvars}"
            )
        return self._substitution(w)(f)

    # -- averages --------------------------------------------------------------

    def symmetrize(self, f: Polynomial) -> Polynomial:
        """e(f): average of the orbit."""
        return self._average(f, signed=False)

    def antisymmetrize(self, f: Polynomial) -> Polynomial:
        """e_-(f): sign-weighted average of the orbit."""
        return self._average(f, signed=True)

    def average_row(self, f: Polynomial, signed: bool) -> dict:
        """Coefficients on the H-orbit representatives (see orbit_projection)
        of the H-average of g = sum_r (+-) r^-1 f, r over the coset
        representatives.  W is the disjoint union of the cosets H*r^-1, so
        that H-average is exactly |W|/|H| times the (signed) W-average of f.
        The row determines it while being |H| times narrower: rows of
        several f have the rank of their averages.
        """
        row: dict = {}
        for rinv in self._coset_inverses:
            flip = signed and self.signs[rinv] < 0
            for m, c in self.act(rinv, f).terms.items():
                rep, coeff = orbit_projection(self, m, signed)
                if not coeff:
                    continue
                s = row.get(rep, ZERO) + (-c if flip else c) * coeff
                if s:
                    row[rep] = s
                else:
                    del row[rep]
        return row

    def _average(self, f: Polynomial, signed: bool) -> Polynomial:
        # the H-average of g is the sum of row[rep] / coeff(rep) times the
        # H-average orbit_sum(rep) / |H| of rep, where |H| * coeff(rep) =
        # orbit_sum(rep)[rep], and the W-average is that over #cosets
        terms: dict = {}
        for rep, c in self.average_row(f, signed).items():
            orbit = self._orbit_sum(rep, signed)
            c = c / (orbit[rep] * len(self._coset_inverses))
            terms.update((m, c * k) for m, k in orbit.items())
        return Polynomial(f.nvars, terms)

    def _orbit_sum(self, mono: tuple, signed: bool) -> dict:
        """sum over h in H of (+-) h.mono, as {monomial: int}."""
        acc: dict = {}
        for sub, sign in self._monomial_action:
            image, scale = sub.monomial_image(mono)
            if signed and sign < 0:
                scale = -scale
            acc[image] = acc.get(image, 0) + scale
        return acc


def orbit_projection(W: WeylGroup, mono: tuple, signed: bool):
    """(H-orbit representative of mono, its coefficient in the H-average).

    H is the subgroup of monomial matrices of W: all of W for every type
    but G2, the six permutation matrices for G2.  H maps a monomial to
    a scaled monomial, so the (signed) H-average of mono lives on the
    H-orbit of mono, whose largest monomial is the representative.  An
    H-(anti)invariant is determined by its coefficients on the
    representatives.

    Every h in H is a signed permutation, so h^-1 = h^T moves the x- and
    y-block alike and the exponent pairs (x_i, y_i) of mono move
    together.  H holds every coordinate permutation, so the largest
    monomial of the orbit sorts the pairs in descending order, by a
    permutation P.  The coefficient is chi(P) s(rep) / |H|, where s(rep)
    is rep's coefficient in its own orbit sum and chi(P) is the sign of P
    when signed, 1 otherwise; it is 0 when signed and two pairs are
    equal, since swapping them fixes rep with sign -1.  Results are
    memoised in W.projection_memo[signed], and chi-free coefficients per
    representative alongside.
    """
    memo = W.projection_memo[signed]
    got = memo.get(mono)
    if got is not None:
        return got
    n = W.ambient
    pairs = list(zip(mono[:n], mono[n:]))
    ordered = sorted(pairs, reverse=True)
    rep = tuple(a for a, _ in ordered) + tuple(b for _, b in ordered)
    known = W._rep_coefficients[signed]
    coeff = known.get(rep)
    if coeff is None:
        coeff = known[rep] = QQ(W._orbit_sum(rep, signed)[rep],
                                len(W._monomial))
    if coeff and signed and _odd_sort(pairs):
        coeff = -coeff
    out = (rep, coeff)
    # the monomials of an orbit mostly share one pair; storing each distinct
    # pair once measurably lowers peak memory on G2
    out = memo[mono] = W._projection_pairs.setdefault(out, out)
    return out


def _odd_sort(pairs: list) -> bool:
    """Whether sorting distinct pairs in descending order takes an odd
    number of transpositions: the parity of their inversions."""
    return sum(p < q for i, p in enumerate(pairs)
               for q in pairs[i + 1:]) % 2 == 1
