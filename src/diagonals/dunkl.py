"""Rational difference-differential operators for a reflection group.

For a direction vector v the operator is

    T_v f  =  d_v f  -  c * sum_over_positive_roots  <alpha, v> (f - s_alpha f) / alpha(x)

acting on polynomials in the x-block.  Each summand is scale-invariant in
alpha (rescaling the root rescales <alpha, v> and alpha(x) together), so
the normalization of positive roots does not matter.  The commutation
relation with multiplication by a linear form xi(x) is

    [T_v, xi(x)] f  =  <v, xi> f  -  c * sum  <v, alpha> <alpha_check, xi> s_alpha f

with the honest coroot alpha_check = 2 alpha / (alpha, alpha); again each
product <v, alpha><alpha_check, xi> is insensitive to root rescaling.

T_v is linear, so it acts as a map on monomials: T_v f accumulates the
images of f's terms.  Each operator memoises T_v m, and the divided
difference (m - s_alpha m) / alpha(x) of each monomial for each positive
root is memoised per group, so operators with other directions or
parameters share that work.

The second half of the module is a tiny noncommutative calculus for the
rank-one case: operators are finite sums  L(x) d^m s^eps  with Laurent
polynomial coefficients, composed through the rules  s x = -x s  and
d x = x d + 1.  It exists to check words in multiplication operators and
the rank-one operator symbolically against their action on polynomials.
"""

from __future__ import annotations

import math
import weakref
from typing import Sequence

from .linalg import mat_vec
from .polyring import (
    ONE,
    Polynomial,
    QQ,
    RingContextError,
    ZERO,
    exact_divide_linear,
)
from .weyl import WeylGroup, _dot


# per group, the divided difference of each (root index, monomial)
_DIVIDED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def divided_difference(W: WeylGroup, k: int, m: tuple) -> dict:
    """(m - s_k m) / alpha_k(x) for the k-th positive root, as a term map.

    alpha_k is taken in its primitive integer form.  Results are memoised
    per group and shared between callers, which must not mutate them.
    The first computation divides exactly, so a quotient that is not a
    polynomial raises ExactDivisionError.
    """
    memo = _DIVIDED.setdefault(W, {})
    got = memo.get((k, m))
    if got is None:
        f = Polynomial(len(m), {m: ONE})
        prim = W.root_system.pair_forms()[k]
        diff = f - W.act(W.reflections[k], f)
        got = exact_divide_linear(diff, Polynomial.linear_form(len(m), prim))
        got = memo[k, m] = got.terms
    return got


class DunklOperator:
    """T_v for one direction vector v, bound to a group and a parameter."""

    def __init__(self, W: WeylGroup, c, direction: Sequence):
        n = W.ambient
        if len(direction) != n:
            raise ValueError(f"direction needs {n} coordinates")
        self.W = W
        self.c = QQ(c)
        self.direction = tuple(QQ(d) for d in direction)
        # each summand is scale-invariant in the root, so the primitive form
        # can stand in for alpha in both the weight and the divisor
        self._weights = []
        if self.c:
            for k, prim in enumerate(W.root_system.pair_forms()):
                weight = _dot(prim, self.direction)
                if weight:
                    self._weights.append((k, self.c * weight))
        self._images: dict = {}

    def _image(self, m: tuple) -> dict:
        """T_v m = d_v m - c * sum_k <alpha_k, v> divided_difference(k, m)."""
        got = self._images.get(m)
        if got is not None:
            return got
        if any(m[self.W.ambient:]):
            raise ValueError("operator acts on x-block polynomials only")
        got = {}
        for i, d in enumerate(self.direction):
            if d and m[i]:
                got[m[:i] + (m[i] - 1,) + m[i + 1:]] = d * m[i]
        for k, weight in self._weights:
            for q, a in divided_difference(self.W, k, m).items():
                s = got.get(q, ZERO) - weight * a
                if s:
                    got[q] = s
                else:
                    del got[q]
        self._images[m] = got
        return got

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.nvars != 2 * self.W.ambient:
            raise RingContextError("operator lives on the doubled ring")
        out: dict = {}
        for m, c in f.terms.items():
            for q, a in self._image(m).items():
                s = out.get(q, ZERO) + c * a
                if s:
                    out[q] = s
                else:
                    del out[q]
        return Polynomial(f.nvars, out)


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
    for alpha, refl in zip(rs.positive_roots, W.reflections):
        w1 = _dot(direction, alpha)
        if not w1:
            continue
        w2 = _dot(rs.coroot(alpha), xi)
        if not w2:
            continue
        out = out - c * w1 * w2 * W.act(refl, f)
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
