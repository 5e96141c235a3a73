"""Buchberger engine and ideal arithmetic over exact rationals.

The kernel works on integer-primitive term lists with precomputed grevlex
keys (polyring.grevlex_key).  The one exception is the elimination ideal
of ideal_intersect, whose terms carry a private block-order key instead.
Both keys are additive (key(u*v) = key(u) + key(v)), so shifting a
polynomial by a monomial never re-derives keys from exponents.  Reduction
is fraction-free: cross-multiplied subtractions keep everything in ZZ, and
a remainder is only known up to a unit, a nonzero rational factor, which
is all that basis insertion and membership need.  Rationals appear only
where a Polynomial goes in or comes out.

Pair management follows the classic update procedure with the product and
chain criteria.  Selection is the sugar strategy of Giovini, Mora, Niesi,
Robbiano and Traverso ("One sugar cube, please", ISSAC 1991): every basis
element carries a sugar, the total degree of its input generator or the
sugar of the pair whose S-polynomial produced it, and pairs are taken by
smallest sugar, then smallest lcm, then index.  The sugar is the degree a
pair would have if the input were homogenized, so under the block order of
ideal_intersect, whose keys put the t-degree first, pairs still come in
order of total degree; on homogeneous grevlex input it is the lcm degree
and the order is the normal strategy's (smallest lcm first).  All choices
are deterministic, so a basis is a pure function of the generators and
nothing else.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from operator import add, sub

from .polyring import (
    Monomial,
    ONE,
    Polynomial,
    QQ,
    RingContextError,
    ZERO,
    _divides,
    count_monomials,
    grevlex_key,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# resource guard
# ---------------------------------------------------------------------------


@dataclass
class Budget:
    """Wall-clock ceiling from the budget's creation, shared by every basis
    computation that holds it, and a basis-size ceiling for each one."""

    max_seconds: float = 1800.0
    max_basis: int = 4000
    started: float = field(init=False, default_factory=time.monotonic)

    @classmethod
    def from_env(cls) -> "Budget":
        """Read DIAGONALS_MAX_SECONDS and DIAGONALS_MAX_BASIS; ValueError
        names a variable whose value is not a positive number."""
        return cls(
            max_seconds=_positive_env("DIAGONALS_MAX_SECONDS", float,
                                      cls.max_seconds),
            max_basis=_positive_env("DIAGONALS_MAX_BASIS", int, cls.max_basis),
        )

    def check(self, layer: str, basis_size: int | None = None) -> None:
        """Raise BudgetExceeded, naming layer, once max_seconds have passed
        since the budget was created; basis_size is the size of the layer's
        basis, for layers that have one."""
        elapsed = time.monotonic() - self.started
        if elapsed > self.max_seconds:
            raise BudgetExceeded(f"time limit in {layer}", elapsed, basis_size)


def _positive_env(name: str, kind, default):
    text = os.environ.get(name)
    try:
        value = default if text is None else kind(text)
    except ValueError:
        value = 0
    if not value > 0:
        raise ValueError(f"{name} must be a positive {kind.__name__}, "
                         f"got {text!r}")
    return value


class BudgetExceeded(RuntimeError):
    def __init__(self, reason: str, elapsed: float,
                 basis_size: int | None = None):
        size = "" if basis_size is None else f", {basis_size} basis elements"
        super().__init__(f"basis computation aborted ({reason}): "
                         f"{elapsed:.1f}s elapsed{size}")
        self.reason = reason
        self.elapsed = elapsed
        self.basis_size = basis_size


# ---------------------------------------------------------------------------
# integer kernel
# ---------------------------------------------------------------------------
# A gpoly is a list of (key, mono, int_coeff) sorted by key descending.  A
# primitive one, as every basis holds, is content-stripped with positive
# leading coefficient.


def _to_g(terms: dict, keyf=grevlex_key) -> list:
    """Rational term dict -> primitive gpoly."""
    if not terms:
        return []
    den = 1
    for c in terms.values():
        den = math.lcm(den, int(c.denominator))
    out = [(keyf(m), m, int(c * den)) for m, c in terms.items()]
    out.sort(reverse=True)
    return _primitive(out)


def _content(terms: list) -> int:
    """gcd of the coefficients, 0 for no terms."""
    g = 0
    for _, _, c in terms:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(terms: list) -> list:
    g = _content(terms)
    if terms and terms[0][2] < 0:
        g = -g
    if g != 1:
        terms = [(k, m, c // g) for k, m, c in terms]
    return terms


def _shifted(g: list, umono: Monomial, ukey: tuple, factor: int) -> list:
    return [(tuple(map(add, k, ukey)), tuple(map(add, m, umono)), factor * c)
            for k, m, c in g]


def _combine(a: int, f: list, skip: int, h: list) -> list:
    """a * f without its term at index skip, minus h; both inputs sorted
    descending, and every key of h below that of f[skip]."""
    out = f[:skip] if a == 1 else [(k, m, a * c) for k, m, c in f[:skip]]
    i, j = skip + 1, 0
    nf_, nh = len(f), len(h)
    while i < nf_ and j < nh:
        kf = f[i][0]
        kh = h[j][0]
        if kf > kh:
            out.append((kf, f[i][1], a * f[i][2]))
            i += 1
        elif kf < kh:
            out.append((kh, h[j][1], -h[j][2]))
            j += 1
        else:
            c = a * f[i][2] - h[j][2]
            if c:
                out.append((kf, f[i][1], c))
            i += 1
            j += 1
    out += [(k, m, a * c) for k, m, c in f[i:]]
    out += [(k, m, -c) for k, m, c in h[j:]]
    return out


def _g_nf(fg: list, basis: list, budget: Budget, member_only: bool = False):
    """Full normal form of a gpoly against a list of gpolys, up to a unit.

    Returns the primitive gpoly of the remainder, [] when the input reduces
    to 0.  A step replaces the work list, irreducible terms included, by
    a*work - b*u*g and strips its content, so the result is a nonzero
    rational multiple of the exact normal form; its scale is not kept.
    With member_only, returns None at the first irreducible term (the
    input is then not in the ideal).  The budget is checked every 256
    steps.
    """
    work = fg
    pos = 0
    steps = 0
    while pos < len(work):
        steps += 1
        if not steps % 256:
            budget.check("reduction", len(basis))
        k, m, c = work[pos]
        for red in basis:
            if _divides(red[0][1], m):
                break
        else:
            if member_only:
                return None
            pos += 1
            continue
        gk, gm, gc = red[0]
        q = math.gcd(c, gc)
        a = gc // q
        b = c // q
        umono = tuple(map(sub, m, gm))
        ukey = tuple(map(sub, k, gk))
        h = _shifted(red[1:], umono, ukey, b)
        work = _combine(a, work, pos, h)
        g0 = _content(work)
        if g0 > 1:
            work = [(kk, mm, cc // g0) for kk, mm, cc in work]
    return _primitive(work)


def _g_spoly(f: list, g: list, keyf) -> list:
    kf, mf, cf = f[0]
    kg, mg, cg = g[0]
    lcm_m = tuple(map(max, mf, mg))
    d = math.gcd(cf, cg)
    a = cg // d
    b = cf // d
    uf = tuple(map(sub, lcm_m, mf))
    ug = tuple(map(sub, lcm_m, mg))
    F = _shifted(f, uf, keyf(uf), a)
    G = _shifted(g[1:], ug, keyf(ug), b)
    return _combine(1, F, 0, G)


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Basis:
    """A growing Groebner basis: primitive gpolys, each a remainder of
    _g_nf as it comes (a normal form up to a unit), with their leads and
    sugars, and the heap of pairs not yet reduced.

    On homogeneous input a pair's sugar is its degree, so after run(d) the
    basis is a Groebner basis through degree d of the ideal added so far.
    """

    def __init__(self, keyf, budget: Budget):
        self.keyf = keyf
        self.budget = budget
        self.polys: list = []
        self.leads: list = []
        self.sugars: list = []
        self.lcm_of: dict = {}  # (i, j) -> lcm of the leads, per live pair
        self.heap: list = []
        self.pops = 0

    def add(self, g: list, sugar: int) -> bool:
        """Insert the normal form of gpoly g, up to a unit, with the given
        sugar when it is nonzero; return whether it was inserted."""
        r = _g_nf(g, self.polys, self.budget)
        if not r:
            return False
        self.polys.append(r)
        self.leads.append(r[0][1])
        self.sugars.append(sugar)
        self._update_pairs(len(self.polys) - 1)
        return True

    def _update_pairs(self, t: int) -> None:
        """Register pairs (i, t), pruned by the product and chain criteria.

        A kept pair enters the heap as (sugar, lcm key, i, t), where its
        sugar is the larger of sugar_i + deg(lcm) - deg(lead_i) over both
        elements.
        """
        leads, keyf, lcm_of = self.leads, self.keyf, self.lcm_of
        lt = leads[t]
        cand = []
        for i in range(t):
            l = tuple(map(max, leads[i], lt))
            cand.append((keyf(l), i, l))
        cand.sort()
        kept: list = []
        for pos, (lk, i, l) in enumerate(cand):
            if _coprime(leads[i], leads[t]):
                kept.append((i, l, lk, True))
                continue
            drop = False
            for _, lj, _, _ in kept:
                if _divides(lj, l):
                    drop = True
                    break
            if not drop:
                for lk2, _, l2 in cand[pos + 1:]:
                    if l2 == l:
                        drop = True
                        break
            if not drop:
                kept.append((i, l, lk, False))
        # chain criterion against existing pairs
        for (i, j), l in list(lcm_of.items()):
            if (_divides(lt, l) and tuple(map(max, leads[i], lt)) != l
                    and tuple(map(max, leads[j], lt)) != l):
                del lcm_of[(i, j)]
        sugar_t = self.sugars[t] - sum(lt)
        for i, l, lk, coprime in kept:
            if coprime:
                continue
            lcm_of[(i, t)] = l
            sugar = sum(l) + max(self.sugars[i] - sum(leads[i]), sugar_t)
            heapq.heappush(self.heap, (sugar, lk, i, t))

    def run(self, max_sugar: float = math.inf) -> None:
        """Reduce the S-polynomials of the pairs, smallest sugar first,
        until no pair of sugar <= max_sugar is left."""
        heap, budget = self.heap, self.budget
        while heap and heap[0][0] <= max_sugar:
            sugar, _, i, j = heapq.heappop(heap)
            if self.lcm_of.pop((i, j), None) is None:
                continue
            self.pops += 1
            if not self.pops % 16:
                budget.check("pair loop", len(self.polys))
            if len(self.polys) > budget.max_basis:
                raise BudgetExceeded("basis size limit",
                                     time.monotonic() - budget.started,
                                     len(self.polys))
            s = _g_spoly(self.polys[i], self.polys[j], self.keyf)
            if s:
                self.add(s, sugar)

    def reduced(self) -> list:
        """Reduced basis as primitive gpolys sorted ascending by lead key."""
        polys = self.polys
        # minimalize: drop elements whose lead another kept lead divides
        order_idx = sorted(range(len(polys)), key=lambda i: polys[i][0][0])
        kept_idx: list = []
        for i in order_idx:
            m = polys[i][0][1]
            if not any(_divides(polys[j][0][1], m) for j in kept_idx):
                kept_idx.append(i)
        minimal = [polys[i] for i in kept_idx]

        # interreduce tails, ascending; earlier elements are already final
        reduced: list = []
        for pos, g in enumerate(minimal):
            others = reduced + minimal[pos + 1:]
            reduced.append(_g_nf(g, others, self.budget))
        return reduced


def _minimal_monomials(monos) -> list:
    """The monomials that no other one of monos divides, each once."""
    kept: list = []
    for m in sorted(set(monos), key=sum):
        if not any(_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def _hilbert_numerator(leads, nvars: int) -> list:
    """Coefficients N_0, N_1, ... of N(t), where N(t) / (1 - t)^nvars is
    the Hilbert series of R / (leads) for the polynomial ring R.

    Pivot recursion (Bayer and Stillman, J. Symbolic Comput. 14, 1992):
    for p = x_j^e, N(M) = N(M + (p)) + t^e N(M : p).  x_j lies in the
    most minimal generators of M and e is its least positive exponent
    there, so p divides every generator x_j lies in and is not one of
    them: M + (p) has fewer generators and M : p a smaller total degree.
    Pairwise coprime generators g end the recursion with the product of
    the 1 - t^deg(g).
    """
    out: list = []
    stack = [(_minimal_monomials(leads), 0)]
    while stack:
        gens, shift = stack.pop()
        counts = [sum(1 for g in gens if g[j]) for j in range(nvars)]
        most = max(counts, default=0)
        if most < 2:
            part = [1]
            for g in gens:
                k = sum(g)
                part = [a - b for a, b in zip(part + [0] * k, [0] * k + part)]
            out += [0] * (shift + len(part) - len(out))
            for i, c in enumerate(part, shift):
                out[i] += c
            continue
        j = counts.index(most)
        e = min(g[j] for g in gens if g[j])
        pivot = (0,) * j + (e,) + (0,) * (nvars - j - 1)
        stack.append(([g for g in gens if not g[j]] + [pivot], shift))
        stack.append((_minimal_monomials(
            g[:j] + (max(g[j] - e, 0),) + g[j + 1:] for g in gens),
            shift + e))
    return out


def _graded_count(numerator: list, nvars: int, d: int) -> int:
    """Number of the degree-d monomials in the monomial ideal whose Hilbert
    numerator is numerator: all of them minus the standard ones."""
    return count_monomials(nvars, d) - sum(
        c * count_monomials(nvars, d - k) for k, c in enumerate(numerator))


def _g_to_poly(g: list, nvars: int) -> Polynomial:
    """The monic Polynomial of a nonzero gpoly."""
    lead = g[0][2]
    return Polynomial(nvars, {m: QQ(c, lead) for _, m, c in g})


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with a cached reduced basis under grevlex.

    contains is the one membership test.  The kernel under it reduces up
    to a unit, so the ideal offers no exact normal form of a polynomial;
    nf_monomial_table gives those of the monomials of one degree.

    The ideal holds the budget of every computation on it: its basis, its
    membership tests and the layers that take it as input.  With no budget
    given it reads one from the environment, whose clock starts with the
    ideal.

    generated_up_to, when set, records that the generator list is only
    trusted to span the ideal's graded pieces through that total degree;
    diagideals.compare then claims that another ideal is not inside this
    one only with a witness, a generator of degree at most that bound
    outside it, and reports an inconclusive relation otherwise.
    """

    # key of the kernel's terms; only ideal_intersect replaces it, on its
    # elimination ideal
    _key = staticmethod(grevlex_key)

    def __init__(self, gens, *, nvars: int | None = None,
                 generated_up_to: int | None = None,
                 budget: Budget | None = None):
        gens = tuple(g for g in gens if g)
        if not gens and nvars is None:
            raise RingContextError("empty ideal needs an explicit nvars")
        self.nvars = nvars if nvars is not None else gens[0].nvars
        for g in gens:
            if g.nvars != self.nvars:
                raise RingContextError("generators live in different rings")
        self.gens = gens
        self.generated_up_to = generated_up_to
        self.budget = Budget.from_env() if budget is None else budget
        self._gb: tuple | None = None
        self._gbg: list | None = None
        self._numerator: list | None = None

    # -- basis -------------------------------------------------------------

    def groebner_basis(self) -> tuple:
        if self._gb is None:
            keyf = self._key
            basis = _Basis(keyf, self.budget)
            for g in sorted((_to_g(g.terms, keyf) for g in self.gens),
                            key=lambda p: (p[0][0], p)):
                basis.add(g, max(sum(m) for _, m, _ in g))
            basis.run()
            self._gbg = basis.reduced()
            self._gb = tuple(_g_to_poly(g, self.nvars) for g in self._gbg)
        return self._gb

    def _core(self) -> list:
        self.groebner_basis()
        return self._gbg

    def _set_basis(self, gbasis: list) -> None:
        """Install a reduced basis computed elsewhere (trusted): primitive
        gpolys under grevlex, sorted ascending by lead key."""
        self._gbg = gbasis
        self._gb = tuple(_g_to_poly(g, self.nvars) for g in gbasis)
        self._numerator = None

    # -- membership ----------------------------------------------------------

    def contains(self, f: Polynomial) -> bool:
        """Whether f lies in the ideal: the one membership test, which
        stops at the first term of f's reduction that no lead divides."""
        if f.nvars != self.nvars:
            raise RingContextError("polynomial in a different ring")
        if not f:
            return True
        return _g_nf(_to_g(f.terms, self._key), self._core(),
                     self.budget, member_only=True) is not None

    # -- graded data ---------------------------------------------------------

    def graded_dim(self, d: int) -> int:
        """Dimension of the ideal's degree-d graded piece: the number of
        degree-d monomials that a lead of the reduced basis divides, read
        off the Hilbert series N(t) / (1 - t)^n of R modulo the leads.
        That is C(d+n-1, n-1) minus the sum of N_k C(d-k+n-1, n-1), and 0
        for d < 0.  N is computed once per reduced basis."""
        if self._numerator is None:
            self._numerator = _hilbert_numerator(
                [g[0][1] for g in self._core()], self.nvars)
        return _graded_count(self._numerator, self.nvars, d)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"Ideal({len(self.gens)} gens, {self.nvars} vars)"


# ---------------------------------------------------------------------------
# ideal operations
# ---------------------------------------------------------------------------


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    """Generated by the products of the two reduced bases."""
    _same_ring(I, J)
    gens = [f * g for f in I.groebner_basis() for g in J.groebner_basis()]
    return Ideal(gens, nvars=I.nvars, budget=I.budget)


def ideal_power(I: Ideal, k: int) -> Ideal:
    """Generated by the k-fold products of the reduced basis of I."""
    if k < 1:
        raise ValueError("power must be >= 1")
    gens = [math.prod(combo, start=Polynomial.constant(I.nvars, 1))
            for combo in itertools.combinations_with_replacement(
                I.groebner_basis(), k)]
    return Ideal(gens, nvars=I.nvars, budget=I.budget)


def _extend(f: Polynomial, extra: int = 1) -> Polynomial:
    return Polynomial(f.nvars + extra,
                      {m + (0,) * extra: c for m, c in f.terms.items()})


def _elimination_key(mono: Monomial) -> tuple:
    """Block order of ideal_intersect: the degree in t, the last variable,
    then grevlex on the rest.  Additive, like grevlex_key."""
    return (mono[-1],) + grevlex_key(mono[:-1])


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """Intersection via the single-auxiliary-variable trick (Cox, Little
    and O'Shea, Ideals, Varieties, and Algorithms, ch. 3-4).

    The elimination ideal E is generated by t*f and (1-t)*g over the ring
    extended by t, and its basis is taken under _elimination_key, which
    ranks any monomial with t above every monomial without.  The elements
    of E's reduced basis free of t then form the reduced basis of I cap J:
    the block order restricts to grevlex there, so dropping t's exponent
    and its key entry leaves grevlex gpolys in lead order.  The
    intersection is generated by them and carries that basis.  E and the
    result keep I's budget.
    """
    _same_ring(I, J)
    n = I.nvars
    t = Polynomial.variable(n + 1, n)
    one = Polynomial.constant(n + 1, 1)
    gens = [_extend(f) * t for f in I.gens]
    gens += [_extend(g) * (one - t) for g in J.gens]
    E = Ideal(gens, nvars=n + 1, budget=I.budget)
    E._key = _elimination_key
    basis = [[(k[1:], m[:n], c) for k, m, c in g]
             for g in E._core() if not g[0][1][n]]
    result = Ideal([_g_to_poly(g, n) for g in basis], nvars=n,
                   budget=I.budget)
    result._set_basis(basis)
    return result


def intersect_many(ideals) -> Ideal:
    """Fold pairwise intersections, always merging the two smallest."""
    items = list(ideals)
    if not items:
        raise ValueError("need at least one ideal")
    heap = [(len(I.gens), pos, I) for pos, I in enumerate(items)]
    heapq.heapify(heap)
    counter = len(items)
    while len(heap) > 1:
        _, _, A = heapq.heappop(heap)
        _, _, B = heapq.heappop(heap)
        C = ideal_intersect(A, B)
        heapq.heappush(heap, (len(C.gens), counter, C))
        counter += 1
    return heap[0][2]


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Whether the ideals are equal: whether their reduced bases under
    grevlex agree.  Primitive, with positive leads and sorted by lead, that
    basis is unique to the ideal (Cox, Little and O'Shea, ch. 2 §7)."""
    _same_ring(I, J)
    return I._core() == J._core()


def _same_ring(I: Ideal, J: Ideal) -> None:
    if I.nvars != J.nvars:
        raise RingContextError("ideals live in different rings")


def _walk(candidates, full: Ideal, max_degree: int) -> tuple:
    """(kept, basis) of the degree walk of minimal_generators; the basis is
    a Groebner basis of the kept generators through max_degree."""
    basis = _Basis(grevlex_key, full.budget)
    kept: list = []
    for d in range(max_degree + 1):
        full.budget.check("minimal generators", len(basis.polys))
        basis.run(d)
        covered = _graded_count(_hilbert_numerator(basis.leads, full.nvars),
                                full.nvars, d)
        if covered == full.graded_dim(d):
            continue
        kept += [f for f in candidates(d)
                 if basis.add(_to_g(f.terms), d)]
    return kept, basis


def minimal_generators(candidates, full: Ideal, max_degree: int) -> Ideal:
    """Ideal of minimal generators through max_degree of the ideal generated
    by the candidates, picked degree by degree; it records max_degree in
    generated_up_to and carries its reduced basis.

    candidates(d) lists homogeneous elements of degree d of the ideal full.
    One Groebner basis of the generators kept so far grows along the walk.
    In degree d it first takes every pair of sugar <= d, which completes it
    through degree d.  The degree is skipped when its leads then cover
    dim full_d monomials, since the kept generators already span full_d.
    Otherwise a candidate is kept when its normal form against the basis,
    which then joins the basis, is nonzero.  full's budget is checked once
    per degree, and the returned ideal keeps it.
    """
    kept, basis = _walk(candidates, full, max_degree)
    basis.run()
    P = Ideal(kept, nvars=full.nvars, generated_up_to=max_degree,
              budget=full.budget)
    P._set_basis(basis.reduced())
    return P


def degree_counts(gens, max_degree: int) -> dict:
    """Number of the polynomials in each total degree through max_degree."""
    degrees = [g.total_degree() for g in gens]
    return {d: degrees.count(d) for d in range(max_degree + 1)}


def minimal_generator_counts(I: Ideal, max_degree: int) -> dict:
    """Number of minimal generators of I in each degree through max_degree,
    drawn from I's reduced basis by the walk of minimal_generators, which
    stops at max_degree.  Requires homogeneous generators."""
    for g in I.gens:
        if not g.is_homogeneous():
            raise ValueError("minimal generator counts need homogeneous gens")
    basis = I.groebner_basis()
    kept, _ = _walk(lambda d: [g for g in basis if g.total_degree() == d],
                    I, max_degree)
    return degree_counts(kept, max_degree)


def nf_monomial_table(I: Ideal, d: int) -> dict:
    """Normal forms of every degree-d monomial against the reduced basis.

    Dynamic programming over the order: reducing a monomial rewrites it as
    a combination of strictly smaller monomials of the same degree, so one
    ascending pass fills the table.  Returns mono -> {standard mono: QQ}.
    I's budget is checked every 256 monomials.
    """
    entries = []
    for g in I._core():
        if len({sum(m) for _, m, _ in g}) != 1:
            raise ValueError("normal-form tables need a homogeneous ideal")
        lc = g[0][2]
        entries.append((g[0][1], [(m, QQ(-c, lc)) for _, m, c in g[1:]]))
    table: dict = {}
    for i, m in enumerate(sorted(monomials_of_degree(I.nvars, d),
                                   key=grevlex_key), 1):
        if not i % 256:
            I.budget.check("normal-form tables")
        for lead, tail in entries:
            if _divides(lead, m):
                break
        else:
            table[m] = {m: ONE}
            continue
        u = tuple(a - b for a, b in zip(m, lead))
        acc: dict = {}
        for tm, tc in tail:
            shifted = tuple(a + b for a, b in zip(tm, u))
            for sm, sc in table[shifted].items():
                s = acc.get(sm, ZERO) + tc * sc
                if s:
                    acc[sm] = s
                else:
                    del acc[sm]
        table[m] = acc
    return table


def graded_basis(I: Ideal, d: int) -> list:
    """Triangular basis of the ideal's degree-d piece: w - NF(w) per lead w,
    a degree-d monomial that is not its own normal form."""
    table = nf_monomial_table(I, d)
    out = []
    for w in monomials_of_degree(I.nvars, d):
        nf = table[w]
        if w not in nf:
            row = {m: -c for m, c in nf.items()}
            row[w] = ONE
            out.append(Polynomial(I.nvars, row))
    return out
