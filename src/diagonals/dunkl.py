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
difference Delta(m) = (m - s_alpha m) / alpha(x) of each monomial for each
positive root is memoised per group, so operators with other directions or
parameters share that work.

No divided difference is a quotient.  Since x - s_alpha x =
<alpha_check, x> alpha, the difference x_i - s_alpha(x_i) is the constant
alpha_check_i times alpha(x), so Delta(x_i) = alpha_check_i, and the twisted
Leibniz rule

    Delta(x_i u)  =  Delta(x_i) u  +  s_alpha(x_i) Delta(u)

builds Delta of every monomial from those of its prefixes.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from .polyring import Polynomial, QQ, RingContextError, ZERO
from .weyl import WeylGroup, _dot


# per group, the divided difference of each (root index, monomial)
_DIVIDED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def divided_difference(W: WeylGroup, k: int, m: tuple) -> dict:
    """(m - s_k m) / alpha_k(x) for the k-th positive root, as a term map.

    alpha_k is taken in its primitive integer form, whose coroot
    alpha_check = 2 alpha / (alpha, alpha) satisfies x - s_k x =
    <alpha_check, x> alpha.  With i the first variable of m and m = x_i u,
    the twisted Leibniz rule gives

        Delta(m)  =  alpha_check_i u  +  s_k(x_i) Delta(u),

    where s_k(x_i) = sum_j s[i][j] x_j over row i of the symmetric
    reflection s = W.reflections[k], and Delta(1) = 0.  Prefixes are
    memoised with m, per group, and shared between callers, which must not
    mutate the maps.  Only x-block monomials have a polynomial divided
    difference: one with a y-exponent raises ValueError.
    """
    memo = _DIVIDED.setdefault(W, {})
    got = memo.get((k, m))
    if got is not None:
        return got
    if any(m[W.ambient:]):
        raise ValueError("divided differences act on x-block monomials only")
    got = {}
    if any(m):
        i = next(j for j, e in enumerate(m) if e)
        u = m[:i] + (m[i] - 1,) + m[i + 1:]
        rs = W.root_system
        delta = rs.coroot(rs.pair_forms()[k])[i]
        if delta:
            got[u] = delta
        for q, a in divided_difference(W, k, u).items():
            for j, s in enumerate(W.reflections[k][i]):
                if s:
                    p = q[:j] + (q[j] + 1,) + q[j + 1:]
                    t = got.get(p, ZERO) + s * a
                    if t:
                        got[p] = t
                    else:
                        del got[p]
    memo[k, m] = got
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
