"""Rational difference-differential operators for a reflection group.

For a direction vector v the operator is

    T_v f  =  d_v f  -  c * sum_over_positive_roots  <alpha, v> (f - s_alpha f) / alpha(x)

acting on polynomials in the x-block.  Each summand is scale-invariant in
alpha (rescaling the root rescales <alpha, v> and alpha(x) together), so
the normalization of positive roots does not matter.  The commutation
relation with multiplication by a linear form xi(x) is

    [T_v, xi(x)] f  =  <v, xi> f  -  c * sum  <v, alpha> <alpha_check, xi> s_alpha f

with honest coroots alpha_check = 2 alpha / (alpha, alpha); again each
product <v, alpha><alpha_check, xi> is insensitive to root rescaling.

The second half of the module is a tiny noncommutative calculus for the
rank-one case: operators are finite sums  L(x) d^m s^eps  with Laurent
polynomial coefficients, composed through the rules  s x = -x s  and
d x = x d + 1.  It exists to check words in multiplication operators and
the rank-one operator symbolically against their action on polynomials.
"""

from __future__ import annotations

import math
from typing import Sequence

from .linalg import mat_vec
from .polyring import (
    ONE,
    Polynomial,
    QQ,
    RingContextError,
    ZERO,
    exact_divide_linear,
    partial_derivative,
)
from .weyl import WeylGroup


def _dot(a: Sequence, b: Sequence):
    return sum((QQ(x) * QQ(y) for x, y in zip(a, b)), ZERO)


def _is_x_only(f: Polynomial, n: int) -> bool:
    return all(not any(m[n:]) for m in f.terms)


class DunklOperator:
    """T_v for one direction vector v, bound to a group and a parameter."""

    def __init__(self, W: WeylGroup, c, direction: Sequence):
        n = W.ambient
        if len(direction) != n:
            raise ValueError(f"direction needs {n} coordinates")
        self.W = W
        self.c = QQ(c)
        self.direction = tuple(QQ(d) for d in direction)
        rs = W.root_system
        self._terms = []
        # each summand is scale-invariant in the root, so the primitive form
        # can stand in for alpha in both the weight and the divisor
        for k, prim in enumerate(rs.pair_forms()):
            weight = _dot(prim, self.direction)
            if not weight:
                continue
            refl = rs.reflection(rs.positive_roots[k])
            xform = Polynomial.linear_form(2 * n, list(prim) + [0] * n)
            self._terms.append((weight, refl, xform))

    def __call__(self, f: Polynomial) -> Polynomial:
        n = self.W.ambient
        if f.nvars != 2 * n:
            raise RingContextError("operator lives on the doubled ring")
        if not _is_x_only(f, n):
            raise ValueError("operator acts on x-block polynomials only")
        out = partial_derivative(f, self.direction + (0,) * n)
        if not self.c:
            return out
        for weight, refl, xform in self._terms:
            diff = f - self.W.act(refl, f)
            if diff:
                out = out - self.c * weight * exact_divide_linear(diff, xform)
        return out


def coordinate_operators(W: WeylGroup, c) -> list:
    """One operator per ambient coordinate direction."""
    n = W.ambient
    return [DunklOperator(W, c, tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)]


def multiplication_commutator(op: DunklOperator, xi: Sequence,
                              f: Polynomial) -> Polynomial:
    """[T_v, xi(x)] f, computed by honest application on both sides."""
    n = op.W.ambient
    ximul = Polynomial.linear_form(2 * n, [QQ(e) for e in xi] + [0] * n)
    return op(ximul * f) - ximul * op(f)


def commutation_rhs(W: WeylGroup, c, direction: Sequence, xi: Sequence,
                    f: Polynomial) -> Polynomial:
    """<v, xi> f - c * sum <v, alpha><alpha_check, xi> s_alpha f."""
    c = QQ(c)
    rs = W.root_system
    out = _dot(direction, xi) * f
    if not c:
        return out
    for alpha in rs.positive_roots:
        w1 = _dot(direction, alpha)
        if not w1:
            continue
        w2 = _dot(rs.coroot(alpha), xi)
        if not w2:
            continue
        out = out - c * w1 * w2 * W.act(rs.reflection(alpha), f)
    return out


def equivariant_transport(W: WeylGroup, w, op: DunklOperator) -> DunklOperator:
    """The operator in the direction w(v), for the equivariance law."""
    return DunklOperator(W, op.c, mat_vec(w, op.direction))


def check_commutativity(W: WeylGroup, c, samples: Sequence,
                        y1: Sequence, y2: Sequence) -> bool:
    """True iff the two operators commute on every sample."""
    D1 = DunklOperator(W, c, y1)
    D2 = DunklOperator(W, c, y2)
    return all(D1(D2(f)) == D2(D1(f)) for f in samples)


def check_defining_relation(W: WeylGroup, c, xi: Sequence, y: Sequence,
                            samples: Sequence) -> bool:
    """True iff [T_y, xi(x)] matches its closed form on every sample."""
    op = DunklOperator(W, c, y)
    return all(multiplication_commutator(op, xi, f)
               == commutation_rhs(W, c, y, xi, f) for f in samples)


# ---------------------------------------------------------------------------
# rank-one symbolic calculus
# ---------------------------------------------------------------------------
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
