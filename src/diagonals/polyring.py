"""Exact multivariate polynomials over the rationals.

A ring context is just a number of variables.  In the doubled reflection
rings used downstream the first n variables are the x-coordinates on the
reflection representation and the last n are the dual y-coordinates;
the auxiliary variable of an intersection, when present, sits after the
y-block.

Coefficients are exact rationals (gmpy2.mpq when installed, else
fractions.Fraction).  Nothing in this package touches floating point.

There is one monomial order, grevlex (grevlex_key): leading terms,
printing and every Groebner basis use it.  The one exception is the
block order that eliminates the auxiliary variable of an intersection,
which groebner.ideal_intersect keeps to itself.

Linear substitutions, which carry the group action, avoid rational
arithmetic in their inner loop: a non-monomial matrix is scaled to integers
by the lcm of its denominators, split into blocks of variables whose images
are disjoint (the x- and y-blocks of the doubled action), and the integer
image of every block monomial is memoised.  Substituting into f multiplies
memoised block images with Python ints and builds one rational per output
term.
"""

from __future__ import annotations

import math
import random
import re
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


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


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

    __slots__ = ("nvars", "terms", "_hash")

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
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise RingContextError(f"variable index {i} out of range for {nvars} vars")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {mono: ONE})

    @classmethod
    def linear_form(cls, nvars: int, coeffs: Sequence) -> "Polynomial":
        """Sum of coeffs[i] * var_i; coeffs may be shorter than nvars."""
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

    def homogeneous_components(self) -> dict:
        out: dict[int, dict] = {}
        for m, c in self.terms.items():
            out.setdefault(sum(m), {})[m] = c
        return {d: Polynomial(self.nvars, t) for d, t in sorted(out.items())}

    def bidegree(self):
        """(x-degree, y-degree) if every term shares it, else None.

        Requires an even variable count; the split is first half / second half.
        """
        if self.nvars % 2:
            raise RingContextError("bidegree needs an even variable count")
        n = self.nvars // 2
        seen = None
        for m in self.terms:
            bd = (sum(m[:n]), sum(m[n:]))
            if seen is None:
                seen = bd
            elif seen != bd:
                return None
        return seen

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), ZERO)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise RingContextError(
                f"ring mismatch: {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return _raw(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return self - Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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
            if not self.terms:
                return other == 0
            const = (0,) * self.nvars
            return len(self.terms) == 1 and const in self.terms and self.terms[const] == other
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {to_string(self)!r})"

    # -- calculus / substitution -------------------------------------------

    def evaluate(self, point: Sequence):
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise RingContextError("point length != variable count")
        pt = [QQ(v) for v in point]
        total = ZERO
        for m, c in self.terms.items():
            val = c
            for e, v in zip(m, pt):
                if e:
                    val = val * v**e
            total += val
        return total


def _raw(nvars: int, terms: dict) -> Polynomial:
    """Polynomial over terms, taken as they are: every key an exponent
    tuple of length nvars and every coefficient a nonzero QQ."""
    out = Polynomial.__new__(Polynomial)
    out.nvars = nvars
    out.terms = terms
    out._hash = None
    return out


def _extend(f: Polynomial, extra: int = 1) -> Polynomial:
    """f in the ring with extra more variables, appended last."""
    return Polynomial(f.nvars + extra,
                      {m + (0,) * extra: c for m, c in f.terms.items()})


def variables(nvars: int) -> list:
    return [Polynomial.variable(nvars, i) for i in range(nvars)]


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


def exact_divide_linear(f: Polynomial, ell: Polynomial) -> Polynomial:
    """Divide f by a degree-one polynomial; raise if the division is inexact."""
    if ell.nvars != f.nvars:
        raise RingContextError("divisor lives in a different ring")
    if ell.total_degree() != 1:
        raise ExactDivisionError("divisor must have total degree exactly 1")
    lm = ell.leading_monomial()
    lc = ell.terms[lm]
    rest = [(m, c) for m, c in ell.terms.items() if m != lm]
    num = dict(f.terms)
    quo: dict = {}
    while num:
        m = max(num, key=grevlex_key)
        c = num.pop(m)
        if not _divides(lm, m):
            raise ExactDivisionError(f"remainder term {m} not divisible")
        qm = tuple(e - d for e, d in zip(m, lm))
        qc = c / lc
        quo[qm] = quo.get(qm, ZERO) + qc
        for rm, rc in rest:
            tm = tuple(e + d for e, d in zip(qm, rm))
            s = num.get(tm, ZERO) - qc * rc
            if s:
                num[tm] = s
            else:
                num.pop(tm, None)
    return Polynomial(f.nvars, quo)


class LinearSubstitution:
    """Substitution var_i -> sum_j M[i][j] var_j.

    The coordinate vector transforms by M: applying the substitution to f
    yields the function v -> f(M v).  A matrix with one nonzero per row maps
    monomials to monomials and takes a direct path.  Any other matrix is
    scaled to integers by the lcm D of its entry denominators and split into
    blocks, runs of consecutive variables whose images share no variable.
    Each block memoises the image of a block monomial m as an integer map
    {block exponents: c} over D^deg(m), built by
    image(m) = image(m / x_i) * image(x_i).  A term of f is then the disjoint
    product of its block images, so all arithmetic runs on ints and each
    output coefficient becomes one rational at the end.  The memos persist
    across calls, so reuse one instance when acting repeatedly with the same
    matrix.
    """

    def __init__(self, matrix: Sequence[Sequence]):
        rows = [tuple(QQ(e) for e in row) for row in matrix]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("substitution matrix must be square")
        self.nvars = n
        self.rows = rows
        # monomial fast path: every row has exactly one nonzero entry, kept
        # as an int when it is integral
        self._mono = []
        monomial = True
        for row in rows:
            nz = [(j, c) for j, c in enumerate(row) if c]
            if len(nz) == 1:
                j, c = nz[0]
                self._mono.append((j, int(c) if c.denominator == 1 else c))
            else:
                monomial = False
                break
        self.is_monomial = monomial
        if not monomial:
            self._init_blocks()

    def _init_blocks(self):
        rows, n = self.rows, self.nvars
        den = 1
        for row in rows:
            for c in row:
                den = math.lcm(den, int(c.denominator))
        self._den = den
        # blocks are the maximal runs of variables that no nonzero entry
        # M[i][j] links across, so images of different runs share no variable
        reach = list(range(n))
        for i, row in enumerate(rows):
            for j, c in enumerate(row):
                if c:
                    lo, hi = min(i, j), max(i, j)
                    reach[lo] = max(reach[lo], hi)
        self._blocks = []
        start = end = 0
        for k in range(n):
            end = max(end, reach[k])
            if end == k:
                images = [[(j - start, int(rows[i][j] * den))
                           for j in range(start, k + 1) if rows[i][j]]
                          for i in range(start, k + 1)]
                self._blocks.append(_Block(slice(start, k + 1), images))
                start = k + 1

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.nvars != self.nvars:
            raise RingContextError("polynomial/matrix size mismatch")
        n = self.nvars
        if self.is_monomial:
            image = self.monomial_image
            terms: dict = {}
            for m, c in f.terms.items():
                key, scale = image(m)
                if scale != 1:
                    c = c * scale
                s = terms.get(key, ZERO) + c
                if s:
                    terms[key] = s
                else:
                    del terms[key]
            return Polynomial(n, terms)
        if not f.terms:
            return Polynomial.zero(n)
        # clear denominators once: f = (1/L) sum c_m m with integer c_m
        lcd, top = 1, 0
        for m, c in f.terms.items():
            lcd = math.lcm(lcd, int(c.denominator))
            top = max(top, sum(m))
        den = self._den
        *heads, last = self._blocks
        acc: dict = {}
        for m, c in f.terms.items():
            scale = (int(c.numerator) * (lcd // int(c.denominator))
                     * den ** (top - sum(m)))
            partial = [((), scale)]
            for block in heads:
                img = block.image(m[block.span])
                partial = [(e + be, pc * bc) for e, pc in partial
                           for be, bc in img.items()]
            img = last.image(m[last.span])
            for e, pc in partial:
                for be, bc in img.items():
                    key = e + be
                    acc[key] = acc.get(key, 0) + pc * bc
        total = lcd * den ** top
        return _raw(n, {e: QQ(v, total) for e, v in acc.items() if v})

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
    """A run of variables whose images involve only each other.

    images[i] lists the (block index, integer coefficient) pairs of the
    scaled image of the block's i-th variable.  image(m) maps block
    exponent tuples to ints over D^deg(m); results are memoised, and
    exponent tuples are interned so that images share them.
    """

    __slots__ = ("span", "images", "memo", "exps")

    def __init__(self, span: slice, images: list):
        zero = (0,) * len(images)
        self.span = span
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


def _coeff_str(c) -> str:
    return str(c)


def to_string(f: Polynomial, names: Sequence[str] | None = None) -> str:
    if not f.terms:
        return "0"
    names = list(names) if names is not None else default_names(f.nvars)
    parts = []
    for m in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[m]
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(m) if e]
        mono = "*".join(factors)
        mag = c if c > 0 else -c
        if not mono:
            body = _coeff_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_coeff_str(mag)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_NUM_RE = re.compile(r"^\d+(/\d+)?$")
_VAR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?$")


def from_string(text: str, nvars: int,
                names: Sequence[str] | None = None) -> Polynomial:
    """Parse the rendering produced by to_string (signs, '*', '^', 'p/q')."""
    names = list(names) if names is not None else default_names(nvars)
    index = {n: i for i, n in enumerate(names)}
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(nvars)
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot tokenize {text!r}")
    terms: dict = {}
    for chunk in chunks:
        sign = ONE
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -ONE
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        mono = [0] * nvars
        for factor in chunk.split("*"):
            if _NUM_RE.match(factor):
                coeff = coeff * QQ(factor)
                continue
            mv = _VAR_RE.match(factor)
            if not mv or mv.group(1) not in index:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            mono[index[mv.group(1)]] += int(mv.group(2) or 1)
        key = tuple(mono)
        s2 = terms.get(key, ZERO) + coeff
        if s2:
            terms[key] = s2
        else:
            terms.pop(key, None)
    return Polynomial(nvars, terms)
