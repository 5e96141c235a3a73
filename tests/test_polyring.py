from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagonals.groebner import _elimination_key, _grevlex_key
from diagonals.polyring import (
    LinearSubstitution,
    Polynomial,
    QQ,
    RingContextError,
    count_monomials,
    default_names,
    grevlex_key,
    monomials_of_bidegree,
    monomials_of_degree,
    partial_derivative,
    to_string,
)

from support import (
    bidegree,
    block_diag,
    evaluate,
    exact_divide_linear,
    from_string,
    homogeneous_components,
    monomials,
    polynomials,
    random_points,
    variables,
)


x1, x2, y1, y2 = variables(4)


class TestArithmetic:
    def test_ring_identities(self):
        f = x1 * y2 - QQ(1, 2) * x2
        assert f + Polynomial.zero(4) == f
        assert f * Polynomial.constant(4, 1) == f
        assert f - f == Polynomial.zero(4)
        assert (f * f).total_degree() == 4

    def test_scalar_ops(self):
        f = 3 * x1 + x2 * 2
        assert f.terms[(1, 0, 0, 0)] == 3
        assert (f - 3 * x1) == 2 * x2
        assert -(-f) == f

    def test_zero_degree_convention(self):
        assert Polynomial.zero(4).total_degree() == -1
        assert Polynomial.constant(4, 5).total_degree() == 0

    def test_ring_mismatch_raises(self):
        with pytest.raises(RingContextError):
            x1 + variables(2)[0]

    def test_linear_form(self):
        assert Polynomial.linear_form(4, [1, 0, -2]) == x1 - 2 * y1
        assert Polynomial.linear_form(4, [0, 1, 0, 3]) == x2 + 3 * y2
        # a coefficient past the last variable must not become a constant
        with pytest.raises(RingContextError):
            Polynomial.linear_form(2, [1, 2, 3])

    def test_pow(self):
        f = x1 + y1
        assert f**0 == Polynomial.constant(4, 1)
        assert f**3 == f * f * f

    @given(polynomials(3), polynomials(3), polynomials(3))
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(polynomials(3), polynomials(3), random_points(3))
    def test_evaluation_homomorphism(self, f, g, pt):
        assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)
        assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)


class TestGrading:
    def test_homogeneous_components(self):
        f = x1 * x2 + y1 + Polynomial.constant(4, 7)
        comps = homogeneous_components(f)
        assert sorted(comps) == [0, 1, 2]
        assert sum(comps.values(), Polynomial.zero(4)) == f
        assert all(p.is_homogeneous() for p in comps.values())

    def test_bidegree(self):
        assert bidegree(x1 * y1) == (1, 1)
        assert bidegree(x1 * x2) == (2, 0)
        assert bidegree(x1 + y1) is None
        with pytest.raises(RingContextError):
            bidegree(variables(3)[0])


class TestOrders:
    def test_grevlex_classic(self):
        # x*z vs y^2 distinguishes grevlex from grlex in 3 vars
        assert grevlex_key((1, 0, 1)) < grevlex_key((0, 2, 0))
        assert grevlex_key((2, 0, 0)) > grevlex_key((1, 1, 0))

    @given(monomials(4), monomials(4), monomials(4))
    def test_keys_additive_and_multiplicative(self, u, v, w):
        # the Groebner kernel's int keys: grevlex, and the block order that
        # eliminates the last variable in groebner.ideal_intersect
        for key in (_grevlex_key, _elimination_key):
            ku = key(u)
            kv = key(v)
            kuw = key(tuple(a + b for a, b in zip(u, w)))
            kvw = key(tuple(a + b for a, b in zip(v, w)))
            # multiplying by a common monomial preserves comparisons
            assert (ku < kv) == (kuw < kvw)
            assert ku + key(w) == kuw

    def test_leading_terms(self):
        f = x1 * y2 + y1**2
        assert f.leading_monomial() == (0, 0, 2, 0)


class TestSubstitution:
    # an n x n matrix M acts on the 2n variables by x -> Mx and y -> My

    def test_monomial_fast_path(self):
        sub = LinearSubstitution([[0, 1], [1, 0]])
        assert sub.is_monomial
        assert sub.nvars == 4
        assert sub(x1 - x2) == x2 - x1
        assert sub(x1 * y1**2) == x2 * y2**2

    def test_dense_path(self):
        sub = LinearSubstitution([[1, 1], [0, 1]])
        assert not sub.is_monomial
        assert sub(x1**2) == (x1 + x2) ** 2
        assert sub(x1 * y1 + y2) == (x1 + x2) * (y1 + y2) + y2

    @given(st.data())
    def test_dense_matches_naive_reference(self, data):
        shape = data.draw(st.sampled_from(["full", "sparse", "zero rows"]))
        rows = data.draw(substitution_matrices(shape))
        f = data.draw(polynomials(2 * len(rows), max_deg=3, max_terms=6))
        sub = LinearSubstitution(rows)
        expected = naive_substitute(block_diag(rows, rows), f)
        assert sub(f) == expected
        assert sub(f) == expected  # again, from the warm memo

    @given(st.data())
    def test_one_per_row_matches_naive_reference(self, data):
        # distinct columns permute monomials; repeated columns are singular
        # and take the dense path
        rows = data.draw(substitution_matrices("one per row"))
        f = data.draw(polynomials(2 * len(rows), max_deg=3, max_terms=6))
        sub = LinearSubstitution(rows)
        cols = [next(j for j, c in enumerate(row) if c) for row in rows]
        assert sub.is_monomial == (len(set(cols)) == len(cols))
        assert sub(f) == naive_substitute(block_diag(rows, rows), f)

    def test_colliding_images_cancel(self):
        # x1 -> x1 and x2 -> 2*x1, so 2*x1 - x2 -> 0
        sub = LinearSubstitution([[1, 0], [2, 0]])
        assert not sub.is_monomial
        assert sub(2 * x1 - x2) == Polynomial.zero(4)

    def test_dense_zero_polynomial_and_zero_rows(self):
        rows = [[QQ(1, 2), QQ(1, 3), 0], [0, 0, 0], [QQ(1, 7), 0, 1]]
        sub = LinearSubstitution(rows)
        assert not sub.is_monomial
        u1, u2, u3, v1, v2, v3 = variables(6)
        assert sub(Polynomial.zero(6)) == Polynomial.zero(6)
        f = u2 * v1 + v3 + u1 * v3**2
        assert sub(f) == naive_substitute(block_diag(rows, rows), f)
        assert sub(u2 * v1) == Polynomial.zero(6)
        assert sub(v2**3 + u1) == sub(u1)

    @given(polynomials(4, max_deg=3), random_points(4))
    def test_substitution_evaluates_consistently(self, f, pt):
        m = ((QQ(1), QQ(2)), (QQ(3), QQ(4)))
        g = LinearSubstitution(m)(f)
        moved = (pt[0] + 2 * pt[1], 3 * pt[0] + 4 * pt[1],
                 pt[2] + 2 * pt[3], 3 * pt[2] + 4 * pt[3])
        assert evaluate(g, pt) == evaluate(f, moved)

    @given(polynomials(4, max_deg=3))
    def test_composition_order(self, f):
        a = ((QQ(1), QQ(1)), (QQ(0), QQ(1)))
        b = ((QQ(2), QQ(0)), (QQ(1), QQ(1)))
        from diagonals.linalg import mat_mul

        lhs = LinearSubstitution(b)(LinearSubstitution(a)(f))
        rhs = LinearSubstitution(mat_mul(a, b))(f)
        assert lhs == rhs

    def test_wrong_ring_and_non_square_matrix_raise(self):
        for rows in ([[1, 1], [0, 1]], [[0, 1], [1, 0]]):
            with pytest.raises(RingContextError):
                LinearSubstitution(rows)(variables(2)[0])
        with pytest.raises(ValueError):
            LinearSubstitution([[1, 2]])
        with pytest.raises(ValueError):
            LinearSubstitution([[1, 0], [0]])


class TestCalculus:
    def test_partial_derivative(self):
        f = x1**3 * y2 + x2
        d = partial_derivative(f, (1, 0, 0, 0))
        assert d == 3 * x1**2 * y2

    def test_directional(self):
        f = x1 * x2
        d = partial_derivative(f, (1, QQ(1, 2), 0, 0))
        assert d == x2 + QQ(1, 2) * x1

    @given(polynomials(3), polynomials(3))
    def test_leibniz(self, f, g):
        direction = (1, 2, QQ(-1, 3))
        lhs = partial_derivative(f * g, direction)
        rhs = partial_derivative(f, direction) * g + f * partial_derivative(
            g, direction
        )
        assert lhs == rhs


class TestExactDivision:
    # the long division in support, the oracle of dunkl's divided
    # differences
    def test_divides(self):
        ell = x1 - y1
        f = ell * (x1**2 + 3 * y2)
        assert exact_divide_linear(f, ell) == x1**2 + 3 * y2

    def test_rejects_nondivisible(self):
        with pytest.raises(ArithmeticError):
            exact_divide_linear(x1**2 + Polynomial.constant(4, 1), x1 - y1)

    def test_rejects_nonlinear(self):
        with pytest.raises(ArithmeticError):
            exact_divide_linear(x1**2, x1 * y1)

    @given(polynomials(3, max_deg=3).filter(bool))
    def test_roundtrip(self, f):
        u, v, w = variables(3)
        ell = u + 2 * v - w
        assert exact_divide_linear(f * ell, ell) == f


class TestEnumeration:
    def test_counts(self):
        for n in range(1, 5):
            for d in range(0, 6):
                monos = list(monomials_of_degree(n, d))
                assert len(monos) == count_monomials(n, d)
                assert len(set(monos)) == len(monos)
                assert all(sum(m) == d for m in monos)

    def test_bidegree_enumeration(self):
        monos = list(monomials_of_bidegree(2, 2, 1))
        assert len(monos) == 3 * 2
        assert all(sum(m[:2]) == 2 and sum(m[2:]) == 1 for m in monos)


class TestText:
    def test_default_names(self):
        assert default_names(4) == ["x1", "x2", "y1", "y2"]
        assert default_names(5) == ["x1", "x2", "y1", "y2", "t"]

    def test_render(self):
        f = x1**2 * y2 - QQ(1, 2) * x2
        assert to_string(f) == "x1^2*y2 - 1/2*x2"
        assert to_string(Polynomial.zero(4)) == "0"
        # an odd ring's last variable is the auxiliary t
        assert to_string(Polynomial(5, {(1, 0, 0, 0, 2): QQ(3)})) == "3*x1*t^2"

    @given(polynomials(4))
    def test_roundtrip(self, f):
        assert from_string(to_string(f), 4) == f

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            from_string("x9", 4)
        with pytest.raises(ValueError):
            from_string("", 4)


DENOMINATORS = (1, 2, 3, 7)


def substitution_matrices(shape: str, max_size: int = 4):
    """Square rational matrices with denominators from 1, 2, 3 and 7.

    "full" draws every entry, "sparse" zeroes about half of the entries,
    "zero rows" zeroes a drawn set of whole rows, "one per row" keeps one
    nonzero entry in each row, in a column drawn freely, so that both
    permutations and repeated columns appear.
    """
    entry = st.builds(QQ, st.integers(-4, 4), st.sampled_from(DENOMINATORS))

    def build(n, values, mask, cols):
        if shape == "one per row":
            return [[(values[i * n + j] or QQ(1)) if j == cols[i] else QQ(0)
                     for j in range(n)] for i in range(n)]
        rows = [list(values[i * n:(i + 1) * n]) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if shape == "sparse" and mask[i * n + j]:
                    rows[i][j] = QQ(0)
                if shape == "zero rows" and mask[i]:
                    rows[i][j] = QQ(0)
        return rows

    return st.integers(1, max_size).flatmap(lambda n: st.builds(
        build, st.just(n),
        st.lists(entry, min_size=n * n, max_size=n * n),
        st.lists(st.booleans(), min_size=n * n, max_size=n * n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


def naive_substitute(rows, f: Polynomial) -> Polynomial:
    """Term-by-term substitution with Fraction dicts: the product of the
    powers of the row images, summed over the terms of f."""
    n = len(rows)

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return out

    def frac(c) -> Fraction:
        return Fraction(int(c.numerator), int(c.denominator))

    images = [{tuple(int(k == j) for k in range(n)): frac(c)
               for j, c in enumerate(row) if c} for row in rows]
    total: dict = {}
    for m, c in f.terms.items():
        prod = {(0,) * n: frac(c)}
        for i, e in enumerate(m):
            for _ in range(e):
                prod = mul(prod, images[i])
        for mono, v in prod.items():
            total[mono] = total.get(mono, Fraction(0)) + v
    return Polynomial(n, {m: QQ(v.numerator, v.denominator)
                          for m, v in total.items() if v})
