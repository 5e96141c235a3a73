"""Shared hypothesis strategies, brute-force oracles and polynomial
helpers for the test suite."""

from __future__ import annotations

import re
from typing import Sequence

from hypothesis import strategies as st

from diagonals.groebner import Ideal
from diagonals.polyring import (
    ONE,
    Polynomial,
    QQ,
    RingContextError,
    ZERO,
    default_names,
    grevlex_key,
    monomials_of_degree,
)


def variables(nvars: int) -> list:
    return [Polynomial(nvars, {tuple(int(j == i) for j in range(nvars)): ONE})
            for i in range(nvars)]


def evaluate(f: Polynomial, point: Sequence):
    """Exact evaluation at a rational point."""
    if len(point) != f.nvars:
        raise RingContextError("point length != variable count")
    pt = [QQ(v) for v in point]
    total = ZERO
    for m, c in f.terms.items():
        val = c
        for e, v in zip(m, pt):
            if e:
                val = val * v**e
        total += val
    return total


def homogeneous_components(f: Polynomial) -> dict:
    out: dict[int, dict] = {}
    for m, c in f.terms.items():
        out.setdefault(sum(m), {})[m] = c
    return {d: Polynomial(f.nvars, t) for d, t in sorted(out.items())}


def bidegree(f: Polynomial):
    """(x-degree, y-degree) if every term shares it, else None.

    Requires an even variable count; the split is first half / second half.
    """
    if f.nvars % 2:
        raise RingContextError("bidegree needs an even variable count")
    n = f.nvars // 2
    seen = None
    for m in f.terms:
        bd = (sum(m[:n]), sum(m[n:]))
        if seen is None:
            seen = bd
        elif seen != bd:
            return None
    return seen


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


def exact_divide_linear(f: Polynomial, ell: Polynomial) -> Polynomial:
    """f / ell for a degree-one ell by long division in grevlex, the
    oracle of the divided differences, which dunkl builds by
    multiplication alone; raise ArithmeticError on a remainder."""
    if ell.nvars != f.nvars:
        raise RingContextError("divisor lives in a different ring")
    if ell.total_degree() != 1:
        raise ArithmeticError("divisor must have total degree exactly 1")
    lm = ell.leading_monomial()
    lc = ell.terms[lm]
    rest = [(m, c) for m, c in ell.terms.items() if m != lm]
    num = dict(f.terms)
    quo: dict = {}
    while num:
        m = max(num, key=grevlex_key)
        c = num.pop(m)
        if any(d > e for d, e in zip(lm, m)):
            raise ArithmeticError(f"remainder term {m} not divisible")
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


def block_diag(a, b) -> tuple:
    """The block-diagonal matrix with blocks a and b."""
    na, nb = len(a), len(b)
    rows = [tuple(row) + (ZERO,) * nb for row in a]
    rows += [(ZERO,) * na + tuple(row) for row in b]
    return tuple(rows)


def product_ideal(A: Ideal, B: Ideal) -> Ideal:
    """The product of two ideals, generated by the Polynomial products of
    their reduced bases: formed outside the Groebner kernel."""
    return Ideal([f * g for f in A.groebner_basis()
                  for g in B.groebner_basis()])


def rationals(max_num: int = 30, max_den: int = 12):
    return st.builds(
        lambda p, q: QQ(p, q),
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def nonzero_rationals(max_num: int = 30, max_den: int = 12):
    return rationals(max_num, max_den).filter(bool)


def monomials(nvars: int, max_deg: int = 4):
    return st.integers(0, max_deg).flatmap(
        lambda d: st.sampled_from(list(monomials_of_degree(nvars, d)))
    )


def polynomials(nvars: int, max_deg: int = 4, max_terms: int = 6):
    return st.dictionaries(
        monomials(nvars, max_deg), rationals(), max_size=max_terms
    ).map(lambda d: Polynomial(nvars, d))


def nonzero_polynomials(nvars: int, max_deg: int = 4, max_terms: int = 6):
    return polynomials(nvars, max_deg, max_terms).filter(bool)


def homogeneous_polynomials(nvars: int, degree: int, max_terms: int = 6):
    monos = list(monomials_of_degree(nvars, degree))
    return st.dictionaries(
        st.sampled_from(monos), rationals(), min_size=1, max_size=max_terms
    ).map(lambda d: Polynomial(nvars, d))


def random_points(nvars: int):
    return st.tuples(*(rationals(8, 5) for _ in range(nvars)))


def span_membership(f: Polynomial, gens: list[Polynomial]) -> bool:
    """Ideal membership by brute-force linear algebra, degree by degree.

    Requires homogeneous generators.  Then f lies in the ideal iff each
    homogeneous component of f lies in the span of {m * g} over monomial
    shifts m of matching degree.  Only usable at small sizes; kept as an
    oracle, not a tool.
    """
    from diagonals.linalg import RowEchelon

    nvars = f.nvars
    pieces: dict[int, list[Polynomial]] = {}
    for g in gens:
        assert g.is_homogeneous(), "oracle needs homogeneous generators"
        if g:
            pieces.setdefault(g.total_degree(), []).append(g)
    for d, comp in homogeneous_components(f).items():
        ech = RowEchelon()
        for gd, gcomps in pieces.items():
            if gd > d:
                continue
            for m in monomials_of_degree(nvars, d - gd):
                shift = Polynomial(nvars, {m: 1})
                for g in gcomps:
                    prod = shift * g
                    if prod:
                        ech.add({mono: c for mono, c in prod.terms.items()})
        if ech.reduce(dict(comp.terms)):
            return False
    return True


def span_graded_dim(gens: list[Polynomial], d: int) -> int:
    """Degree-d dimension of a homogeneous ideal by brute-force spanning."""
    from diagonals.linalg import RowEchelon

    ech = RowEchelon()
    rank = 0
    for g in gens:
        assert g.is_homogeneous(), "oracle needs homogeneous generators"
        if not g or g.total_degree() > d:
            continue
        nvars = g.nvars
        for m in monomials_of_degree(nvars, d - g.total_degree()):
            prod = Polynomial(nvars, {m: 1}) * g
            if prod and ech.add({mono: c for mono, c in prod.terms.items()}):
                rank += 1
    return rank


def naive_average(W, f: Polynomial, signed: bool) -> Polynomial:
    """The (signed) W-average of f as the plain sum over every element."""
    total = Polynomial.zero(f.nvars)
    for w in W.elements:
        img = W.act(w, f)
        total = total + (W.signs[w] * img if signed else img)
    return total * QQ(1, W.order)


def sympy_rational(sympy, c):
    return sympy.Rational(int(c.numerator), int(c.denominator))


def sympy_expr(sympy, xs, f: Polynomial):
    """f as a sympy expression in the symbols xs."""
    return sum(sympy_rational(sympy, c)
               * sympy.prod(x**e for x, e in zip(xs, m))
               for m, c in f.terms.items())


def sympy_matrix(sympy, m):
    return sympy.Matrix([[sympy_rational(sympy, c) for c in row] for row in m])
