"""Ideals attached to the reflection arrangement on the doubled space.

For each positive root alpha there is a codimension-two subspace where
both the x-form and the y-form of alpha vanish; its (prime, linear) ideal
is the pair ideal P_alpha.  Out of these come the three actors of this
package:

  I        = intersection of all pair ideals, which is I^(1),
  I^(d)    = intersection of their d-th powers,
  J        = ideal generated by all alternating polynomials up to a
             chosen total degree (recorded as generated_up_to), given
             by a minimal set of them.

Alternating polynomials lie in every P_alpha: an alternating f changes
sign under s_alpha yet is fixed on the subspace s_alpha fixes, so it
vanishes there, and the pair ideal is exactly that vanishing ideal.
Hence J is always contained in I and the interesting questions are about
the reverse inclusion, graded piece by graded piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groebner import (
    Budget,
    Ideal,
    graded_basis,
    intersect_many,
    minimal_generators,
)
from .linalg import RowEchelon
from .polyring import (
    ONE,
    Polynomial,
    monomials_of_bidegree,
)
from .weyl import RootSystem, WeylGroup, orbit_projection

# ---------------------------------------------------------------------------
# pair ideals and their intersections
# ---------------------------------------------------------------------------


def x_form(rs: RootSystem, k: int) -> Polynomial:
    """Primitive linear form of the k-th positive root in the x-block."""
    coeffs = rs.pair_forms()[k]
    n = rs.ambient
    return Polynomial.linear_form(2 * n, list(coeffs) + [0] * n)


def y_form(rs: RootSystem, k: int) -> Polynomial:
    coeffs = rs.pair_forms()[k]
    n = rs.ambient
    return Polynomial.linear_form(2 * n, [0] * n + list(coeffs))


def pair_ideal_power(rs: RootSystem, k: int, d: int,
                     budget: Budget | None = None) -> Ideal:
    """d-th power of a pair ideal: spanned by lx^i * ly^(d-i)."""
    lx, ly = x_form(rs, k), y_form(rs, k)
    gens = [lx**i * ly ** (d - i) for i in range(d, -1, -1)]
    return Ideal(gens, budget=budget)


def symbolic_power(rs: RootSystem, d: int,
                   budget: Budget | None = None) -> Ideal:
    """I^(d): intersection of the d-th powers of the pair ideals."""
    parts = [pair_ideal_power(rs, k, d, budget)
             for k in range(len(rs.positive_roots))]
    return intersect_many(parts)


def ideal_I(rs: RootSystem, budget: Budget | None = None) -> Ideal:
    """Intersection of every pair ideal: the first symbolic power."""
    return symbolic_power(rs, 1, budget)


def discriminant(rs: RootSystem) -> Polynomial:
    """Product of the positive-root x-forms; the minimal sign-isotypic
    polynomial in the x-block alone."""
    n = rs.ambient
    out = Polynomial.constant(2 * n, 1)
    for k in range(len(rs.positive_roots)):
        out = out * x_form(rs, k)
    return out


# ---------------------------------------------------------------------------
# alternating polynomials
# ---------------------------------------------------------------------------


def primitive_part(f: Polynomial) -> Polynomial:
    """Rescale to coprime integer coefficients with positive leading one:
    times the lcm of the denominators, over the gcd of the numerators that
    gives, with the sign of the leading coefficient."""
    if not f:
        return f
    den = math.lcm(*(int(c.denominator) for c in f.terms.values()))
    num = {m: int(c * den) for m, c in f.terms.items()}
    g = math.gcd(*num.values())
    if num[f.leading_monomial()] < 0:
        g = -g
    return Polynomial(f.nvars, {m: c // g for m, c in num.items()})


def alternant_basis(W: WeylGroup, a: int, b: int,
                    budget: Budget | None = None) -> list:
    """Basis of the alternating polynomials of bidegree (a, b).

    The candidates are the monomials that are their own H-orbit
    representative with a nonzero signed H-average coefficient (H as in
    orbit_projection); other monomials of an orbit have proportional
    averages.  A candidate is kept when its averaged row (see
    WeylGroup.average_row) is independent of the rows kept before it, and
    contributes its antisymmetrization, made primitive.  When H = W every
    candidate is kept.  The budget, by default one read from the
    environment, is checked before each candidate's row.
    """
    if budget is None:
        budget = Budget.from_env()
    nvars = 2 * W.ambient
    ech = RowEchelon()
    out = []
    for m in sorted(monomials_of_bidegree(W.ambient, a, b)):
        rep, coeff = orbit_projection(W, m, True)
        if rep != m or not coeff:
            continue
        budget.check("alternants")
        single = Polynomial(nvars, {m: ONE})
        if ech.add(W.average_row(single, True)):
            out.append(primitive_part(W.antisymmetrize(single)))
    return out


def ideal_J(W: WeylGroup, I: Ideal, max_degree: int) -> Ideal:
    """Ideal generated by the alternants of total degree <= max_degree.

    Its generators are a minimal set of alternants, picked degree by degree
    against the intersection ideal I, which holds them all, and its reduced
    basis is the one built along the way (see minimal_generators).  They
    are complete only up to max_degree, which the ideal records in
    generated_up_to.  Alternant generation checks I's budget, which the
    ideal keeps.
    """
    return minimal_generators(
        lambda d: [g for a in range(d, -1, -1)
                   for g in alternant_basis(W, a, d - a, I.budget)],
        I, max_degree)


# ---------------------------------------------------------------------------
# dimensions of averaged images
# ---------------------------------------------------------------------------


def _image_rank(W: WeylGroup, rows, signed: bool, budget: Budget) -> int:
    """Rank of the (signed) W-averages of rows; the budget is checked once
    per row."""
    ech = RowEchelon()
    for f in rows:
        budget.check("averaged images")
        ech.add(W.average_row(f, signed))
    return ech.rank


def invariant_image_dim(W: WeylGroup, I: Ideal, d: int,
                        signed: bool = False) -> int:
    """dim of the space of (anti)symmetrized elements of the degree-d piece."""
    if I.nvars != 2 * W.ambient:
        raise ValueError("ideal does not live on the doubled space")
    return _image_rank(W, graded_basis(I, d), signed, I.budget)


def averaged_multiple_dim(W: WeylGroup, multiplier: Polynomial, I: Ideal,
                          k: int) -> int:
    """dim of e(multiplier * I_k), the symmetrized multiplier-shifted piece."""
    return _image_rank(W, (multiplier * b for b in graded_basis(I, k)),
                       False, I.budget)


def full_ring_ideal(nvars: int, budget: Budget | None = None) -> Ideal:
    """The unit ideal, whose degree-d basis is every monomial."""
    return Ideal([Polynomial.constant(nvars, 1)], nvars=nvars, budget=budget)


# ---------------------------------------------------------------------------
# graded comparison of two ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """Exact relation between two generated ideals plus graded evidence.

    relation is one of:
      equal                    both generator sets contained in the other
      left-strictly-contained  left ideal strictly inside the right one
      right-strictly-contained mirror image
      incomparable-at-bound    neither containment holds
      inconclusive             a side is truncated and no witness decides

    Containments are exact for the ideals generated by the given
    generators.  A side X carrying generated_up_to = b agrees with its
    untruncated ideal only through degree b, so the claim that the other
    side is not inside X stands only with a witness: a generator of the
    other side of degree <= b outside X.  Without one the relation is
    inconclusive.  The bounds_used field records the bounds involved.
    """

    relation: str
    certificate: dict | None
    bounds_used: dict
    dims_left: tuple
    dims_right: tuple

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "certificate": self.certificate,
            "boundsUsed": self.bounds_used,
            "dimsLeft": list(self.dims_left),
            "dimsRight": list(self.dims_right),
        }


def _escapes(inner: Ideal, outer: Ideal):
    """Whether outer is not inside inner: True, False, or None when every
    generator outside inner lies above inner's generated_up_to.  inner's
    budget is checked before each membership test."""
    bound = inner.generated_up_to
    found = False
    for g in outer.gens:
        inner.budget.check("comparison")
        if not inner.contains(g):
            if bound is None or g.total_degree() <= bound:
                return True
            found = None
    return found


def compare(L: Ideal, R: Ideal, bound: int) -> Comparison:
    dims_left = tuple(L.graded_dim(d) for d in range(bound + 1))
    dims_right = tuple(R.graded_dim(d) for d in range(bound + 1))
    left_out = _escapes(R, L)
    right_out = _escapes(L, R)
    certificate = None
    for d in range(bound + 1):
        if dims_left[d] != dims_right[d]:
            certificate = {
                "degree": d,
                "dimLeft": dims_left[d],
                "dimRight": dims_right[d],
            }
            break
    if left_out is None or right_out is None:
        relation = "inconclusive"
    elif left_out:
        relation = ("incomparable-at-bound" if right_out
                    else "right-strictly-contained")
    else:
        relation = "left-strictly-contained" if right_out else "equal"
    return Comparison(
        relation=relation,
        certificate=certificate,
        bounds_used={
            "degreeBound": bound,
            "leftGeneratedUpTo": L.generated_up_to,
            "rightGeneratedUpTo": R.generated_up_to,
        },
        dims_left=dims_left,
        dims_right=dims_right,
    )
