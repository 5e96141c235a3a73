"""Shared hypothesis strategies and brute-force oracles for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from diagonals.polyring import (
    Polynomial,
    QQ,
    monomials_of_degree,
)


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
    for d, comp in f.homogeneous_components().items():
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
        if not ech.contains(dict(comp.terms)):
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
        total = total + (W.sign(w) * img if signed else img)
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
