"""Finite real reflection groups in explicit rational matrix form.

Realizations are the classical ambient ones: type A_r acts by permuting
r+1 coordinates, types B/C/D by signed permutations, and G2 by the
twelve-element dihedral group on the plane x1+x2+x3 = 0 inside R^3.
Positive roots are listed in a fixed conventional order: coordinate
differences first (i < j), then sums, then the short/long singles.

The group acts on the doubled polynomial ring in (x, y): x-coordinates
transform by w^{-1} (functions pull back) and y-coordinates by w^T, the
dual action.  Signs come from determinants, which agree with the sign
character because every ambient realization here is reflection-faithful.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .linalg import Matrix, block_diag, identity, mat_det, mat_inv, mat_mul
from .polyring import LinearSubstitution, ONE, Polynomial, QQ, RingContextError, ZERO

MAX_GROUP = 10_000


def _dot(a: Sequence, b: Sequence):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _primitive_int_vector(v: Sequence) -> tuple:
    """Scale a rational vector by a positive factor to coprime integers.

    The sign pattern is preserved, so each form stays the literal positive
    root it came from.
    """
    import math

    den = 1
    for c in v:
        den = math.lcm(den, int(QQ(c).denominator))
    ints = [int(QQ(c) * den) for c in v]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


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

    def coroots(self) -> tuple:
        return tuple(self.coroot(a) for a in self.positive_roots)

    def reflection(self, alpha: Sequence) -> Matrix:
        """s_alpha = 1 - alpha (x) alpha_check as an ambient matrix."""
        av = self.coroot(alpha)
        n = self.ambient
        return tuple(
            tuple((ONE if i == j else ZERO) - QQ(alpha[i]) * av[j]
                  for j in range(n))
            for i in range(n)
        )

    def pair_forms(self) -> tuple:
        """Primitive integer linear form of each positive root."""
        return tuple(_primitive_int_vector(a) for a in self.positive_roots)


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
        return tuple(QQ(c) if k == i else ZERO for k in range(n))

    def diff(i: int, j: int, n: int) -> tuple:
        return tuple(
            QQ(1) if k == i else (QQ(-1) if k == j else ZERO) for k in range(n)
        )

    def summ(i: int, j: int, n: int) -> tuple:
        return tuple(
            QQ(1) if k in (i, j) else ZERO for k in range(n)
        )

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
            (QQ(2), QQ(-1), QQ(-1)),
            (QQ(-1), QQ(2), QQ(-1)),
            (QQ(-1), QQ(-1), QQ(2)),
        )
        gens = (diff(0, 1, n), (QQ(2), QQ(-1), QQ(-1)))
        return RootSystem("G", 2, n, pos, gens)
    raise ValueError(f"unknown family {family!r}")


EXPECTED_ORDER = {
    "A": lambda r: _factorial(r + 1),
    "B": lambda r: 2**r * _factorial(r),
    "C": lambda r: 2**r * _factorial(r),
    "D": lambda r: 2 ** (r - 1) * _factorial(r),
    "G": lambda r: 12,
}


def _factorial(n: int) -> int:
    import math

    return math.factorial(n)


class WeylGroup:
    """Closure of the generating reflections, with cached doubled actions."""

    def __init__(self, rs: RootSystem):
        self.root_system = rs
        self.ambient = rs.ambient
        self.generators = tuple(rs.reflection(a) for a in rs.generator_roots)
        eye = identity(rs.ambient)
        elements = [eye]
        seen = {eye}
        frontier = [eye]
        while frontier:
            new = []
            for w in frontier:
                for g in self.generators:
                    wg = mat_mul(w, g)
                    if wg not in seen:
                        seen.add(wg)
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
        self.signs = {w: int(mat_det(w)) for w in self.elements}
        self._sub: dict = {}
        self._monomial = tuple(
            w for w in self.elements
            if all(sum(1 for c in row if c) == 1 for row in w)
        )
        covered = set()
        reps = []
        for w in self.elements:
            if w in covered:
                continue
            reps.append(w)
            for h in self._monomial:
                covered.add(mat_mul(w, h))
        # W is the disjoint union of the cosets r*H, and so of the H*r^-1
        self._coset_reps = tuple(reps)
        self._coset_inverses = tuple(mat_inv(r) for r in reps)
        assert len(self._coset_reps) * len(self._monomial) == self.order
        # per-monomial orbit projections, filled lazily by consumers, and
        # the distinct pairs they hold
        self.projection_memo: dict = {True: {}, False: {}}
        self._projection_pairs: dict = {}

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

    def doubled_matrix(self, w: Matrix) -> Matrix:
        """Substitution matrix for the action on the doubled ring."""
        winv = mat_inv(w)
        return block_diag(winv, tuple(zip(*w)))

    def _substitution(self, w: Matrix) -> LinearSubstitution:
        sub = self._sub.get(w)
        if sub is None:
            sub = LinearSubstitution(self.doubled_matrix(w))
            self._sub[w] = sub
        return sub

    def act(self, w: Matrix, f: Polynomial) -> Polynomial:
        if f.nvars != 2 * self.ambient:
            raise RingContextError(
                f"action needs {2 * self.ambient} variables, got {f.nvars}"
            )
        return self._substitution(w)(f)

    def sign(self, w: Matrix) -> int:
        return self.signs[w]

    # -- averages --------------------------------------------------------------

    def symmetrize(self, f: Polynomial) -> Polynomial:
        """e(f): average of the orbit."""
        return self._average(f, signed=False)

    def antisymmetrize(self, f: Polynomial) -> Polynomial:
        """e_-(f): sign-weighted average of the orbit."""
        return self._average(f, signed=True)

    def _average(self, f: Polynomial, signed: bool) -> Polynomial:
        # sum over r*H: the monomial elements act first, since the reverse
        # order was measured about 1.5x slower on G2
        acc = Polynomial.zero(f.nvars)
        for h in self._monomial:
            img = self.act(h, f)
            if signed and self.signs[h] < 0:
                img = -img
            acc = acc + img
        total = Polynomial.zero(f.nvars)
        for r in self._coset_reps:
            img = self.act(r, acc)
            if signed and self.signs[r] < 0:
                img = -img
            total = total + img
        return total * QQ(1, self.order)

    # -- predicates --------------------------------------------------------------

    def is_invariant(self, f: Polynomial) -> bool:
        return all(self.act(s, f) == f for s in self.generators)

    def is_alternating(self, f: Polynomial) -> bool:
        return all(self.act(s, f) == -f for s in self.generators)
