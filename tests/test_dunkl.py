import math
import random
from typing import Sequence

import pytest

from diagonals.dunkl import (
    _DIVIDED,
    DunklOperator,
    check_commutativity,
    check_defining_relation,
    commutation_rhs,
    divided_difference,
    multiplication_commutator,
)
from diagonals.polyring import (
    ONE,
    Polynomial,
    QQ,
    ZERO,
    _extend,
    monomials_of_degree,
    partial_derivative,
    random_polynomial,
)
from diagonals.weyl import WeylGroup, root_system
from support import exact_divide_linear, homogeneous_components, variables

C_SAMPLES = [QQ(0), QQ(1, 2), QQ(1), QQ(3, 7)]


def group(name: str) -> WeylGroup:
    return WeylGroup(root_system(name))


def xvar(n: int, i: int) -> Polynomial:
    return variables(2 * n)[i]


class TestRankOneClosedForm:
    # single reflection s(x) = -x: the operator sends x^m to
    # (m - 2c [m odd]) x^{m-1}

    @pytest.mark.parametrize("c", C_SAMPLES)
    def test_monomials(self, c):
        W = group("B1")
        D = DunklOperator(W, c, (1,))
        x = xvar(1, 0)
        for m in range(9):
            drop = 2 * c if m % 2 else QQ(0)
            expect = (QQ(m) - drop) * x ** (m - 1) if m else Polynomial.zero(2)
            assert D(x ** m) == expect

    def test_half_kills_odd_linear(self):
        W = group("B1")
        D = DunklOperator(W, QQ(1, 2), (1,))
        x = xvar(1, 0)
        assert not D(x)
        assert D(x ** 3) == 2 * x ** 2


class TestZeroParameter:
    @pytest.mark.parametrize("name", ["A2", "B2"])
    def test_reduces_to_directional_derivative(self, name):
        W = group(name)
        n = W.ambient
        rng = random.Random(601)
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            D = DunklOperator(W, 0, v)
            f = _extend(random_polynomial(rng, n, 5, 6), n)
            assert D(f) == partial_derivative(f, v + (0,) * n)


class TestCommutativity:
    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    @pytest.mark.parametrize("c", C_SAMPLES)
    def test_coordinate_operators_commute(self, name, c):
        W = group(name)
        n = W.ambient
        ops = [DunklOperator(W, c, tuple(int(i == j) for j in range(n)))
               for i in range(n)]
        rng = random.Random(602)
        for _ in range(4):
            f = _extend(random_polynomial(rng, n, 4, 4), n)
            for i in range(n):
                for j in range(i + 1, n):
                    assert ops[i](ops[j](f)) == ops[j](ops[i](f))


class TestCommutationRelation:
    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    @pytest.mark.parametrize("c", C_SAMPLES)
    def test_bracket_with_linear_form(self, name, c):
        W = group(name)
        n = W.ambient
        rng = random.Random(603)
        for _ in range(4):
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            xi = tuple(rng.randint(-2, 2) for _ in range(n))
            D = DunklOperator(W, c, v)
            f = _extend(random_polynomial(rng, n, 4, 4), n)
            lhs = multiplication_commutator(D, xi, f)
            assert lhs == commutation_rhs(W, c, v, xi, f)


class TestEquivariance:
    @pytest.mark.parametrize("name", ["B2", "G2"])
    def test_group_transport(self, name):
        W = group(name)
        n = W.ambient
        rng = random.Random(604)
        elements = list(W.elements)
        for _ in range(6):
            w = rng.choice(elements)
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            D = DunklOperator(W, QQ(3, 7), v)
            # the operator in the direction w(v)
            Dw = DunklOperator(W, D.c, tuple(sum(a * b for a, b in
                                                 zip(row, D.direction))
                                             for row in w))
            f = _extend(random_polynomial(rng, n, 4, 4), n)
            assert W.act(w, D(f)) == Dw(W.act(w, f))


class TestShape:
    def test_degree_drops_by_one(self):
        W = group("B2")
        D = DunklOperator(W, QQ(1), (1, -2))
        rng = random.Random(605)
        for _ in range(8):
            f = _extend(random_polynomial(rng, 2, 5, 3), 2)
            for piece in homogeneous_components(f).values():
                out = D(piece)
                if out:
                    assert out.is_homogeneous()
                    assert out.total_degree() == piece.total_degree() - 1

    def test_linearity(self):
        W = group("A2")
        D = DunklOperator(W, QQ(1, 2), (1, 1, -1))
        rng = random.Random(606)
        f = _extend(random_polynomial(rng, 3, 4, 4), 3)
        g = _extend(random_polynomial(rng, 3, 4, 4), 3)
        assert D(3 * f - QQ(1, 2) * g) == 3 * D(f) - QQ(1, 2) * D(g)

    def test_rejects_y_block_input(self):
        W = group("A2")
        D = DunklOperator(W, QQ(1), (1, 0, 0))
        with pytest.raises(ValueError):
            D(variables(6)[4])

    def test_check_helpers(self):
        W = group("B2")
        rng = random.Random(607)
        samples = [_extend(random_polynomial(rng, 2, 4, 4), 2)
                   for _ in range(5)]
        assert check_commutativity(W, QQ(1, 2), samples, (1, 0), (0, 1))
        assert check_defining_relation(W, QQ(3, 7), (1, -1), (0, 1), samples)


def direct_dunkl(W: WeylGroup, c, v, f: Polynomial) -> Polynomial:
    """T_v f by the whole-polynomial formula, the reference for the
    monomial-by-monomial operator: d_v f - c sum <alpha, v> (f - s f)/alpha."""
    n = W.ambient
    rs = W.root_system
    out = partial_derivative(f, tuple(v) + (0,) * n)
    for alpha, prim in zip(rs.positive_roots, rs.pair_forms()):
        weight = sum(QQ(a) * QQ(b) for a, b in zip(prim, v))
        diff = f - W.act(rs.reflection(alpha), f)
        if weight and diff:
            xform = Polynomial.linear_form(2 * n, prim)
            out = out - QQ(c) * weight * exact_divide_linear(diff, xform)
    return out


class TestAgainstDirectFormula:
    # every parameter runs on one group, with the same directions, so a
    # memo that ignored the parameter, the root or the direction would
    # hand one operator another's images
    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
    def test_single_and_composed(self, name):
        W = group(name)
        n = W.ambient
        rng = random.Random(f"direct:{name}")
        v1 = tuple(int(i == 0) for i in range(n))
        v2 = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n))
        for c in (QQ(0), QQ(1, 2), QQ(1), QQ(3, 7), QQ(-2)):
            D1, D2 = DunklOperator(W, c, v1), DunklOperator(W, c, v2)
            for _ in range(3):
                f = _extend(random_polynomial(rng, n, 5, 6), n)
                assert D1(f) == direct_dunkl(W, c, v1, f)
                assert D2(f) == direct_dunkl(W, c, v2, f)
                assert D1(D2(f)) == direct_dunkl(
                    W, c, v1, direct_dunkl(W, c, v2, f))


class TestDividedDifferences:
    @pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2", "B3", "D4"])
    def test_leibniz_rule_matches_division(self, name):
        # every positive root and every x-block monomial of degree <= 5:
        # alpha(x) Delta(m) = m - s m by multiplication alone, and Delta(m)
        # is the quotient that long division finds
        W = group(name)
        n = W.ambient
        for k, prim in enumerate(W.root_system.pair_forms()):
            alpha = Polynomial.linear_form(2 * n, prim)
            for d in range(6):
                for mx in monomials_of_degree(n, d):
                    m = mx + (0,) * n
                    f = Polynomial(2 * n, {m: ONE})
                    diff = f - W.act(W.reflections[k], f)
                    got = Polynomial(2 * n, divided_difference(W, k, m))
                    assert alpha * got == diff, (k, m)
                    assert got == exact_divide_linear(diff, alpha), (k, m)

    def test_shared_by_operators_on_one_group(self):
        W = group("G2")
        rng = random.Random(608)
        f = _extend(random_polynomial(rng, 3, 5, 6), 3)
        # (3, 1, 0) pairs to nonzero with every positive root of G2
        first = DunklOperator(W, QQ(1, 2), (3, 1, 0))(f)
        assert first == direct_dunkl(W, QQ(1, 2), (3, 1, 0), f)
        filled = dict(_DIVIDED[W])
        # another direction and parameter reuse the group's memo
        second = DunklOperator(W, QQ(-2), (2, 1, 1))(f)
        assert second == direct_dunkl(W, QQ(-2), (2, 1, 1), f)
        assert _DIVIDED[W] == filled

    def test_y_block_raises_and_is_not_memoised(self):
        W = group("B2")
        # y1, then x1 y2^2: a second call must raise again rather than
        # find a stored map
        for m in [(0, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 2)]:
            with pytest.raises(ValueError):
                divided_difference(W, 0, m)
            assert _DIVIDED[W] == {}


# ---------------------------------------------------------------------------
# rank-one symbolic calculus, the oracle of TestRankOneSymbols
# ---------------------------------------------------------------------------
# A tiny noncommutative calculus for the rank-one case: operators are
# finite sums  L(x) d^m s^eps  with Laurent polynomial coefficients,
# composed through the rules  s x = -x s  and  d x = x d + 1.  It checks
# words in multiplication operators and the rank-one operator symbolically
# against their action on polynomials.
#
# An operator is a dict {(m, eps): Laurent} with m the derivative order,
# eps in {0, 1} flagging the reflection, and Laurent a dict {power: QQ}.


def _laurent_clean(L: dict) -> dict:
    return {k: v for k, v in L.items() if v}


def _laurent_mul(A: dict, B: dict) -> dict:
    out: dict = {}
    for ka, va in A.items():
        for kb, vb in B.items():
            k = ka + kb
            s = out.get(k, ZERO) + va * vb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _laurent_derivative(L: dict) -> dict:
    return {k - 1: v * k for k, v in L.items() if k}


def _laurent_conjugate(L: dict) -> dict:
    """L(x) -> L(-x)."""
    return {k: (v if k % 2 == 0 else -v) for k, v in L.items()}


def r1_clean(op: dict) -> dict:
    return {key: L for key, L in ((k, _laurent_clean(v)) for k, v in op.items())
            if L}


def r1_identity() -> dict:
    return {(0, 0): {0: ONE}}


def r1_mul_x(power: int = 1) -> dict:
    return {(0, 0): {power: ONE}}


def r1_reflection() -> dict:
    return {(0, 1): {0: ONE}}


def r1_derivative() -> dict:
    return {(1, 0): {0: ONE}}


def r1_dunkl(c) -> dict:
    """d - c x^{-1} (1 - s)."""
    c = QQ(c)
    return r1_clean({(1, 0): {0: ONE}, (0, 0): {-1: -c}, (0, 1): {-1: c}})


def r1_compose(A: dict, B: dict) -> dict:
    """A after B, normal-ordered to coefficients times d^m s^eps."""
    out: dict = {}
    for (m1, e1), L1 in A.items():
        for (m2, e2), L2 in B.items():
            L2c = _laurent_conjugate(L2) if e1 else L2
            sign = -ONE if (e1 and m2 % 2) else ONE
            eps = (e1 + e2) % 2
            deriv = L2c
            for r in range(m1 + 1):
                coeff = sign * math.comb(m1, r)
                L = _laurent_mul(L1, deriv)
                key = (m1 - r + m2, eps)
                tgt = out.setdefault(key, {})
                for k, v in L.items():
                    s = tgt.get(k, ZERO) + coeff * v
                    if s:
                        tgt[k] = s
                    else:
                        del tgt[k]
                deriv = _laurent_derivative(deriv)
                if not deriv:
                    break
    return r1_clean(out)


def r1_word(letters: Sequence, c) -> dict:
    """Compose a word given as (symbol, count) pairs, leftmost acting last.

    Symbols: "x" for multiplication, "D" for the rank-one operator.
    """
    op = r1_identity()
    for symbol, count in letters:
        for _ in range(count):
            factor = r1_mul_x() if symbol == "x" else r1_dunkl(c)
            op = r1_compose(op, factor)
    return op


def r1_apply(op: dict, poly: dict) -> dict:
    """Apply to a Laurent polynomial given as {power: coeff}."""
    out: dict = {}
    for (m, eps), L in op.items():
        g = _laurent_conjugate(poly) if eps else dict(poly)
        for _ in range(m):
            g = _laurent_derivative(g)
        g = _laurent_mul(L, g)
        for k, v in g.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def r1_order(op: dict) -> int:
    """Highest derivative order present; -1 for the zero operator."""
    return max((m for (m, _) in op), default=-1)


def r1_top_identity_coefficient(op: dict) -> dict:
    """Laurent coefficient of d^order on the identity component."""
    order = r1_order(op)
    return dict(op.get((order, 0), {}))


class TestRankOneSymbols:
    def test_weyl_algebra_relation(self):
        d, x = r1_derivative(), r1_mul_x()
        bracket = _op_sub(r1_compose(d, x), r1_compose(x, d))
        assert bracket == r1_identity()

    def test_reflection_anticommutes_with_derivative(self):
        d, s = r1_derivative(), r1_reflection()
        assert r1_compose(s, d) == _op_neg(r1_compose(d, s))

    def test_reflection_involution(self):
        s = r1_reflection()
        assert r1_compose(s, s) == r1_identity()

    def test_associativity_spot_check(self):
        A = r1_dunkl(QQ(3, 7))
        B = r1_mul_x(2)
        C = r1_compose(r1_reflection(), r1_dunkl(QQ(1)))
        assert r1_compose(r1_compose(A, B), C) == r1_compose(A, r1_compose(B, C))

    @pytest.mark.parametrize("c", C_SAMPLES)
    def test_symbol_matches_closed_form(self, c):
        D = r1_dunkl(c)
        for m in range(8):
            out = r1_apply(D, {m: ONE})
            drop = 2 * c if m % 2 else QQ(0)
            expect = {m - 1: QQ(m) - drop} if m and QQ(m) != drop else {}
            assert out == expect

    def test_dunkl_bracket_with_x(self):
        c = QQ(3, 7)
        D, x = r1_dunkl(c), r1_mul_x()
        bracket = _op_sub(r1_compose(D, x), r1_compose(x, D))
        assert bracket == {(0, 0): {0: ONE}, (0, 1): {0: -2 * c}}

    @pytest.mark.parametrize("c", [QQ(0), QQ(1), QQ(3, 7)])
    def test_word_top_symbol(self, c):
        # x^i D^j x^k normal-orders to x^{i+k} d^j plus lower-order terms,
        # matching the substitution that sends D to a commuting variable
        for i in range(3):
            for j in range(4):
                for k in range(4):
                    letters = [("x", i), ("D", j), ("x", k)]
                    op = r1_word(letters, c)
                    assert r1_order(op) == j
                    assert r1_top_identity_coefficient(op) == {i + k: ONE}

    @pytest.mark.parametrize("c", [QQ(0), QQ(1), QQ(3, 7)])
    def test_word_application_matches_operator_route(self, c):
        # same word, two routes: normal-ordered symbol applied to x^m
        # versus honest operator application in the rank-one group
        W = group("B1")
        D = DunklOperator(W, c, (1,))
        x = xvar(1, 0)
        for i in range(3):
            for j in range(3):
                for k in range(4):
                    op = r1_word([("x", i), ("D", j), ("x", k)], c)
                    for m in range(4):
                        direct = x ** (k + m)
                        for _ in range(j):
                            direct = D(direct)
                        direct = x ** i * direct
                        assert r1_apply(op, {m: ONE}) == _to_laurent(direct)


def _op_neg(op: dict) -> dict:
    return {key: {k: -v for k, v in L.items()} for key, L in op.items()}


def _op_sub(A: dict, B: dict) -> dict:
    out = {key: dict(L) for key, L in A.items()}
    for key, L in B.items():
        tgt = out.setdefault(key, {})
        for k, v in L.items():
            s = tgt.get(k, QQ(0)) - v
            if s:
                tgt[k] = s
            else:
                del tgt[k]
        if not tgt:
            del out[key]
    return out


def _to_laurent(f: Polynomial) -> dict:
    assert f.nvars == 2
    return {mono[0]: c for mono, c in f.terms.items()}
