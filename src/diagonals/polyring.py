"""Exact multivariate polynomials over the rationals.

A ring context is just a number of variables.  In the doubled reflection
rings used downstream the first n variables are the x-coordinates on the
reflection representation and the last n are the dual y-coordinates;
the auxiliary variable of an intersection, when present, sits after the
y-block.

Coefficients are exact rationals (gmpy2.mpq when installed, else
fractions.Fraction).  Nothing in this package touches floating point.
The operands of +, - and == are polynomials in one ring; * also takes
a rational.  Polynomials are multiplied, differentiated and substituted
into, never divided.

There is one monomial order, grevlex (grevlex_key): leading terms,
printing and every Groebner basis use it.  The one exception is the
block order that eliminates the auxiliary variable of an intersection,
which groebner.ideal_intersect keeps to itself.

Linear substitutions carry the group action.  One n x n matrix acts on
both halves of the doubled ring.  A matrix with one nonzero per row, in
distinct columns, permutes monomials up to scale, so no two terms of f
meet in the image.  Every other matrix is scaled to integers by the lcm
of its denominators and the integer image of every monomial in n
variables is memoised once, for the x- and the y-half alike.
"""

from __future__ import annotations

import math
import random
from operator import neg
from typing import Iterator, Mapping, Sequence

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    from fractions import Fraction as QQ

Monomial = tuple

ZERO = QQ(0)
ONE = QQ(1)


class RingContextError(ValueError):
    """Raised when operands live in rings with different variable counts."""


# ---------------------------------------------------------------------------
# monomial order
# ---------------------------------------------------------------------------


def grevlex_key(mono: Monomial) -> tuple:
    """Sort key of graded reverse lexicographic order, the one order of
    this package: total degree, then the exponents negated from the last
    variable back.  The Groebner kernel encodes the same order as an
    additive int key (groebner._grevlex_key)."""
    return (sum(mono), *map(neg, reversed(mono)))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Sparse polynomial: map from exponent vector to nonzero coefficient.

    Instances are treated as immutable; all operations return new objects.
    Equality is structural (same variable count, same term map).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is type(ONE) else QQ(coeff)
                if c:
                    m = tuple(mono)
                    if len(m) != nvars:
                        raise RingContextError(
                            f"monomial {m} has {len(m)} exponents, ring has {nvars}"
                        )
                    clean[m] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Sequence) -> "Polynomial":
        """Sum of coeffs[i] * var_i; coeffs may be shorter than nvars, and
        RingContextError is raised when they are longer."""
        if len(coeffs) > nvars:
            raise RingContextError(
                f"{len(coeffs)} coefficients, ring has {nvars} variables")
        terms = {}
        for i, c in enumerate(coeffs):
            c = QQ(c)
            if c:
                mono = tuple(1 if j == i else 0 for j in range(nvars))
                terms[mono] = c
        return cls(nvars, terms)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise RingContextError(
                f"ring mismatch: {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return _raw(self.nvars, terms)

    def __neg__(self):
        return _raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = QQ(other)
            if not c:
                return Polynomial.zero(self.nvars)
            return _raw(self.nvars, {m: c * v for m, v in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                s = terms.get(m, ZERO) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return _raw(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {to_string(self)!r})"


def _raw(nvars: int, terms: dict) -> Polynomial:
    """Polynomial over terms, taken as they are: every key an exponent
    tuple of length nvars and every coefficient a nonzero QQ."""
    out = Polynomial.__new__(Polynomial)
    out.nvars = nvars
    out.terms = terms
    return out


def _extend(f: Polynomial, extra: int = 1) -> Polynomial:
    """f in the ring with extra more variables, appended last."""
    return Polynomial(f.nvars + extra,
                      {m + (0,) * extra: c for m, c in f.terms.items()})


def partial_derivative(f: Polynomial, direction: Sequence) -> Polynomial:
    """Directional derivative sum_i direction[i] * d/dvar_i."""
    if len(direction) != f.nvars:
        raise RingContextError("direction length != variable count")
    terms: dict = {}
    for m, c in f.terms.items():
        for i, d in enumerate(direction):
            if not d or not m[i]:
                continue
            dm = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            s = terms.get(dm, ZERO) + c * m[i] * QQ(d)
            if s:
                terms[dm] = s
            else:
                del terms[dm]
    return Polynomial(f.nvars, terms)


def _divides(a: Monomial, b: Monomial) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


class LinearSubstitution:
    """The doubled action of an n x n matrix M on the ring of 2n variables:
    x -> M x and y -> M y, so applying it to f yields (x, y) -> f(Mx, My).

    A matrix with one nonzero per row, in distinct columns, permutes the
    variables up to scale, so distinct monomials have distinct images and
    each term is copied once, with no merging.  Every other matrix, a
    singular one with one nonzero per row too, takes the dense path, exact
    for any matrix: it is scaled to integers by the lcm D of its entry
    denominators, and one memo holds the image of each monomial m in n
    variables as an integer map {exponents: c} over D^deg(m), built by
    image(m) = image(m / x_i) * image(x_i).  Both halves transform by the
    same matrix, so the memo serves x and y alike, and a term of f maps to
    image(x-part) * image(y-part).  All arithmetic runs on ints and each
    output coefficient becomes one rational at the end.  The memo persists
    across calls, so reuse one instance when acting repeatedly with the same
    matrix.
    """

    def __init__(self, matrix: Sequence[Sequence]):
        rows = [tuple(QQ(e) for e in row) for row in matrix]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("substitution matrix must be square")
        self.nvars = 2 * n
        nonzero = [[(j, c) for j, c in enumerate(row) if c] for row in rows]
        self.is_monomial = (all(len(nz) == 1 for nz in nonzero)
                            and len({nz[0][0] for nz in nonzero}) == n)
        if self.is_monomial:
            # the one nonzero entry of each row, kept as an int when it is
            # integral; the y-half repeats the x-half n variables on
            half = [(j, int(c) if c.denominator == 1 else c)
                    for [(j, c)] in nonzero]
            self._mono = half + [(n + j, c) for j, c in half]
        else:
            den = self._den = math.lcm(1, *(int(c.denominator)
                                            for row in rows for c in row))
            self._block = _Block([[(j, int(c * den)) for j, c in nz]
                                  for nz in nonzero])

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise RingContextError("polynomial/matrix size mismatch")
        nv = self.nvars
        if self.is_monomial:
            image = self.monomial_image
            terms: dict = {}
            for m, c in f.terms.items():
                key, scale = image(m)
                terms[key] = c if scale == 1 else c * scale
            return _raw(nv, terms)
        if not f.terms:
            return Polynomial.zero(nv)
        # clear denominators once: f = (1/L) sum c_m m with integer c_m
        lcd, top = 1, 0
        for m, c in f.terms.items():
            lcd = math.lcm(lcd, int(c.denominator))
            top = max(top, sum(m))
        den, image, n = self._den, self._block.image, nv // 2
        acc: dict = {}
        for m, c in f.terms.items():
            scale = (int(c.numerator) * (lcd // int(c.denominator))
                     * den ** (top - sum(m)))
            xs, ys = image(m[:n]), image(m[n:]).items()
            for ex, cx in xs.items():
                cx *= scale
                for ey, cy in ys:
                    key = ex + ey
                    acc[key] = acc.get(key, 0) + cx * cy
        total = lcd * den ** top
        return _raw(nv, {e: QQ(v, total) for e, v in acc.items() if v})

    def monomial_image(self, m: Monomial) -> tuple:
        """(image monomial, scale) of m under a monomial matrix."""
        new = [0] * self.nvars
        scale = 1
        for i, e in enumerate(m):
            if e:
                j, s = self._mono[i]
                new[j] += e
                if s != 1:
                    scale *= s**e
        return tuple(new), scale


class _Block:
    """The integer images of monomials in n variables under a scaled matrix.

    images[i] lists the (index, integer coefficient) pairs of the scaled
    image of the i-th variable.  image(m) maps exponent tuples to ints over
    D^deg(m); results are memoised, and exponent tuples are interned so
    that images share them.
    """

    __slots__ = ("images", "memo", "exps")

    def __init__(self, images: list):
        zero = (0,) * len(images)
        self.images = images
        self.memo = {zero: {zero: 1}}
        self.exps = {zero: zero}

    def image(self, m: tuple) -> dict:
        got = self.memo.get(m)
        if got is not None:
            return got
        i = next(k for k, e in enumerate(m) if e)
        prev = self.image(m[:i] + (m[i] - 1,) + m[i + 1:])
        got = {}
        for pe, pc in prev.items():
            for j, uc in self.images[i]:
                e = pe[:j] + (pe[j] + 1,) + pe[j + 1:]
                got[e] = got.get(e, 0) + pc * uc
        exps = self.exps
        got = {exps.setdefault(e, e): c for e, c in got.items() if c}
        self.memo[m] = got
        return got


# ---------------------------------------------------------------------------
# monomial enumeration
# ---------------------------------------------------------------------------


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent vectors of the given total degree, deterministic order."""
    if degree < 0:
        return
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


def count_monomials(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def monomials_of_bidegree(n: int, a: int, b: int) -> Iterator[Monomial]:
    """Exponent vectors in 2n variables with x-degree a and y-degree b."""
    for mx in monomials_of_degree(n, a):
        for my in monomials_of_degree(n, b):
            yield mx + my


# ---------------------------------------------------------------------------
# seeded samples
# ---------------------------------------------------------------------------


def random_polynomial(rng: random.Random, nvars: int, max_deg: int,
                      max_terms: int) -> Polynomial:
    """Seeded sample: up to max_terms terms of degree at most max_deg with
    integer coefficients in [-9, 9], drawn from rng in a fixed order."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = QQ(rng.randint(-9, 9))
    return Polynomial(nvars, terms)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def default_names(nvars: int) -> list[str]:
    """x1..xn,y1..yn for even rings, then t for an odd ring's last variable,
    the auxiliary one of groebner.ideal_intersect."""
    n = nvars // 2
    names = [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
    return names + ["t"] * (nvars % 2)


def to_string(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    names = default_names(f.nvars)
    parts = []
    for m in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[m]
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(m) if e]
        mono = "*".join(factors)
        mag = c if c > 0 else -c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{str(mag)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
