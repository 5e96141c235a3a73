"""Buchberger engine and ideal arithmetic over exact rationals.

Term form.  The kernel works on gpolys: lists of terms (key, mono, coef),
three ints, sorted by key descending.  mono packs an exponent vector into
fields of _WIDTH = 16 bits, variable i in bits 16i to 16i + 15, and the top
bit of each field is a guard that a valid exponent leaves clear, so every
exponent stays below 2**15.  key encodes the monomial order in the same
layout.  Under grevlex (polyring.grevlex_key) digit i is the partial sum
e_0 + ... + e_i, so the top digit is the total degree and ints compare as
grevlex keys do.  Under the block order with which ideal_intersect
eliminates t, its last variable, t's exponent is one more digit above the
grevlex digits of the rest.  Both keys are sums of their digits times
powers of 2**16, so key(u*v) = key(u) + key(v), and shifting a term by a
monomial is two int additions.  t is the top field and the top digit, so a
t-free gpoly of the extended ring is, int for int, the grevlex gpoly of
the ring without t.  An Ideal keeps its generators and its basis as
gpolys, so tuples appear only where it encodes a Polynomial or builds one
for a reader, in the pair lcms and criteria, in the Hilbert numerator and
in the normal-form tables.

Divisibility.  With G the int of every guard bit, a divides b exactly when
((b + G) - a) & G == G (Bachmann and Schönemann, "Monomial representations
for Gröbner bases computations", ISSAC 1998).  Each field computes
b_i + 2**15 - a_i, which lies in [1, 2**16), so no field borrows from the
next, and its guard survives exactly when a_i <= b_i.  The test is exact, so
no divisor mask is needed in front of it.

No silent carry.  The test and the additions hold only while every field
stays below its guard, and an exponent or digit that reached it would carry
into the next field unseen.  So every term is checked where it is made, and
OverflowError is raised instead:
  - the key functions check each monomial of a Polynomial (_to_g) and each
    pair's lcm: the degree, and t's exponent, must stay below 2**15;
  - every term that a product, an S-polynomial or a reduction step makes
    has the key key(u) + key(t) of two checked terms, a sum without carry
    out of any field, so key & G, one int operation, finds a digit that
    reached its guard.
Every exponent is at most a key digit, the degree or t's exponent, so a
clear key also clears the monomial's guards.  Merges and cancellations make
no new monomials, so every term of every gpoly has passed a check.

Reduction.  Normal forms come from heap division (Monagan and Pearce,
"Sparse polynomial division using a heap", J. Symbolic Comput. 46, 2011):
the terms not yet treated sit in a dict from key to [mono, coef] under a
heap of their keys, and each step pops the largest and either moves it to
the remainder or subtracts a multiple of one reducer's tail, so a step
costs that tail, not a copy of the whole polynomial.  Reduction is
fraction-free: cross-multiplied subtractions keep everything in ZZ, and a
remainder is only known up to a unit, a nonzero rational factor, which is
all that basis insertion and membership need.  Products, powers and
intersections pass gpolys from ideal to ideal, so rationals appear only
where an Ideal encodes a Polynomial or builds one for a reader.

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

import functools
import heapq
import itertools
import math
import os
import struct
import time
from dataclasses import dataclass, field

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
# A gpoly is a list of terms (key, mono, coef), three ints, sorted by key
# descending.  A primitive one, as every basis holds, is content-stripped
# with positive leading coefficient.

# bits per exponent field and key digit, the top one the guard; _pack and
# _unpack read a field as one little-endian unsigned short
_WIDTH = 16


def _guard(nvars: int) -> int:
    """The int with the guard bit of each of nvars fields set."""
    unit = ((1 << nvars * _WIDTH) - 1) // ((1 << _WIDTH) - 1)
    return unit << _WIDTH - 1


def _overflow() -> OverflowError:
    return OverflowError(f"an exponent or degree reaches 2**{_WIDTH - 1}, "
                         f"the limit of the Groebner kernel's fields")


def _grevlex_key(mono: Monomial) -> int:
    """Int key of polyring.grevlex_key: digit i is e_0 + ... + e_i, so the
    top digit is the total degree, and ints compare as the tuple keys do.
    Raises OverflowError when the degree, the largest digit and a bound on
    every exponent, reaches its guard bit."""
    key = s = shift = 0
    for e in mono:
        s += e
        key |= s << shift
        shift += _WIDTH
    if s >> _WIDTH - 1:
        raise _overflow()
    return key


def _elimination_key(mono: Monomial) -> int:
    """Block order of ideal_intersect: the exponent of t, the last
    variable, as the top digit above the grevlex key of the rest.  A t-free
    monomial has the grevlex key of the ring without t."""
    t = mono[-1]
    if t >> _WIDTH - 1:
        raise _overflow()
    return _grevlex_key(mono[:-1]) | t << (len(mono) - 1) * _WIDTH


def _pack(mono: Monomial) -> int:
    return int.from_bytes(struct.pack(f"<{len(mono)}H", *mono), "little")


def _unpack(m: int, nvars: int) -> Monomial:
    return struct.unpack(f"<{nvars}H", m.to_bytes(2 * nvars, "little"))


def _packed_divides(a: int, b: int, guard: int) -> bool:
    return (b + guard - a) & guard == guard


def _to_g(terms: dict, keyf=_grevlex_key) -> list:
    """Rational term dict -> primitive gpoly."""
    if not terms:
        return []
    den = 1
    for c in terms.values():
        den = math.lcm(den, int(c.denominator))
    out = [(keyf(m), _pack(m), int(c * den)) for m, c in terms.items()]
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


def _shifted(g: list, ukey: int, umono: int, factor: int,
             guard: int) -> list:
    """factor * u * g for the monomial u with key ukey, packed as umono."""
    out = []
    for k, m, c in g:
        k += ukey
        if k & guard:
            raise _overflow()
        out.append((k, m + umono, factor * c))
    return out


def _g_sum(parts) -> list:
    """The sum of an iterable of gpolys, sorted descending."""
    acc: dict = {}
    for part in parts:
        for k, m, c in part:
            t = acc.get(k)
            if t is None:
                acc[k] = [m, c]
            else:
                t[1] += c
    return [(k, m, c) for k, (m, c) in sorted(acc.items(), reverse=True)
            if c]


def _g_mul(f: list, g: list, guard: int) -> list:
    """The product of two gpolys; primitive when both are (Gauss)."""
    return _g_sum(_shifted(g, kf, mf, cf, guard) for kf, mf, cf in f)


def _g_nf(fg: list, basis: list, nvars: int, budget: Budget,
          member_only: bool = False):
    """Full normal form of a gpoly against a list of gpolys in nvars
    variables, up to a unit, by heap division.

    Returns the primitive gpoly of the remainder, [] when the input reduces
    to 0.  The terms not yet treated live in a dict from key to [mono,
    coef] under a heap of their keys.  The largest is popped and moved to
    the remainder when no lead divides it; otherwise the first element g
    of the basis whose lead divides it, c*u*lead(g), cancels it: the dict
    and the remainder are scaled by a = lc(g)/gcd(c, lc(g)) when a != 1,
    and (c/gcd(c, lc(g))) * u * tail(g) is subtracted term by term.  So
    the result is a nonzero rational multiple of the exact normal form; its
    scale is not kept.  With member_only, returns None at the first
    irreducible term (the input is then not in the ideal).  The budget is
    checked every 256 popped terms.
    """
    guard = _guard(nvars)
    leads = [g[0][1] for g in basis]
    todo = {k: [m, c] for k, m, c in fg}
    heap = [-k for k, _, _ in fg]  # ascending, so already a heap
    rem: list = []
    pops = 0
    while heap:
        k = -heapq.heappop(heap)
        term = todo.pop(k, None)
        if term is None:  # cancelled after its key was pushed
            continue
        pops += 1
        if not pops % 256:
            budget.check("reduction", len(basis))
        m, c = term
        mg = m + guard
        for lead, red in zip(leads, basis):
            if (mg - lead) & guard == guard:
                break
        else:
            if member_only:
                return None
            rem.append((k, m, c))
            continue
        gk, gm, gc = red[0]
        q = math.gcd(c, gc)
        a = gc // q
        b = c // q
        if a != 1:
            for t in todo.values():
                t[1] *= a
            rem = [(kk, mm, a * cc) for kk, mm, cc in rem]
        ukey = k - gk
        umono = m - gm
        for tk, tm, tc in itertools.islice(red, 1, None):
            tk += ukey
            t = todo.get(tk)
            if t is None:
                if tk & guard:
                    raise _overflow()
                todo[tk] = [tm + umono, -b * tc]
                heapq.heappush(heap, -tk)
            else:
                s = t[1] - b * tc
                if s:
                    t[1] = s
                else:
                    del todo[tk]
    return _primitive(rem)


def _g_spoly(f: list, g: list, lkey: int, lmono: int, guard: int) -> list:
    """S-polynomial of two gpolys whose leads have the lcm lmono, of key
    lkey."""
    kf, mf, cf = f[0]
    kg, mg, cg = g[0]
    d = math.gcd(cf, cg)
    return _g_sum((_shifted(f[1:], lkey - kf, lmono - mf, cg // d, guard),
                   _shifted(g[1:], lkey - kg, lmono - mg, -(cf // d), guard)))


def _coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Basis:
    """A growing Groebner basis: primitive gpolys, each a remainder of
    _g_nf as it comes (a normal form up to a unit), with their leads (as
    exponent tuples) and sugars, and the heap of pairs not yet reduced.

    On homogeneous input a pair's sugar is its degree, so after run(d) the
    basis is a Groebner basis through degree d of the ideal added so far.
    """

    def __init__(self, keyf, nvars: int, budget: Budget):
        self.keyf = keyf
        self.nvars = nvars
        self.guard = _guard(nvars)
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
        r = _g_nf(g, self.polys, self.nvars, self.budget)
        if not r:
            return False
        self.polys.append(r)
        self.leads.append(_unpack(r[0][1], self.nvars))
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
            sugar, lk, i, j = heapq.heappop(heap)
            lcm = self.lcm_of.pop((i, j), None)
            if lcm is None:
                continue
            self.pops += 1
            if not self.pops % 16:
                budget.check("pair loop", len(self.polys))
            if len(self.polys) > budget.max_basis:
                raise BudgetExceeded("basis size limit",
                                     time.monotonic() - budget.started,
                                     len(self.polys))
            s = _g_spoly(self.polys[i], self.polys[j], lk, _pack(lcm),
                         self.guard)
            if s:
                self.add(s, sugar)

    def reduced(self) -> list:
        """Reduced basis as primitive gpolys sorted ascending by lead key."""
        polys, guard = self.polys, self.guard
        # minimalize: drop elements whose lead another kept lead divides
        order_idx = sorted(range(len(polys)), key=lambda i: polys[i][0][0])
        kept_idx: list = []
        for i in order_idx:
            m = polys[i][0][1]
            if not any(_packed_divides(polys[j][0][1], m, guard)
                       for j in kept_idx):
                kept_idx.append(i)
        minimal = [polys[i] for i in kept_idx]

        # interreduce tails, ascending; earlier elements are already final
        reduced: list = []
        for pos, g in enumerate(minimal):
            others = reduced + minimal[pos + 1:]
            reduced.append(_g_nf(g, others, self.nvars, self.budget))
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
    return Polynomial(nvars, {_unpack(m, nvars): QQ(c, lead)
                              for _, m, c in g})


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with a cached reduced basis under grevlex.

    Term forms.  _gens_g holds the generators and _gb, None until it is
    computed, the reduced basis sorted by lead, both as primitive gpolys
    under the ideal's key.  Ideal(...) keeps gens as given and encodes
    _gens_g when the kernel first needs it.  An ideal the kernel makes (a
    product, a power, an intersection or its elimination ideal) gets
    gpolys only, and builds its gens, monic, when they are first read.
    Bases are computed in groebner_basis(), which returns them as monic
    Polynomials, because the benchmark's groebner.basis span wraps that
    method; the kernel reads _core().

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
    _key = staticmethod(_grevlex_key)

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
        self._gb: list | None = None
        self._numerator: list | None = None

    @classmethod
    def _from_g(cls, gens: list, nvars: int, budget: Budget,
                basis: list | None = None) -> "Ideal":
        """Ideal generated by the kernel's nonzero primitive gpolys, with
        basis, when given, as its reduced basis (trusted)."""
        I = cls((), nvars=nvars, budget=budget)
        del I.gens  # built from _gens_g when first read
        I._gens_g = gens
        I._gb = basis
        return I

    @functools.cached_property
    def gens(self) -> tuple:
        return tuple(_g_to_poly(g, self.nvars) for g in self._gens_g)

    @functools.cached_property
    def _gens_g(self) -> list:
        return [_to_g(g.terms, self._key) for g in self.gens]

    # -- basis -------------------------------------------------------------

    def groebner_basis(self) -> tuple:
        """The reduced basis as monic Polynomials sorted by lead, computed
        once."""
        if self._gb is None:
            basis = _Basis(self._key, self.nvars, self.budget)
            for g in sorted(self._gens_g, key=lambda p: (p[0][0], p)):
                basis.add(g, max(sum(_unpack(m, self.nvars))
                                 for _, m, _ in g))
            basis.run()
            self._gb = basis.reduced()
        return tuple(_g_to_poly(g, self.nvars) for g in self._gb)

    def _core(self) -> list:
        if self._gb is None:
            self.groebner_basis()
        return self._gb

    # -- membership ----------------------------------------------------------

    def contains(self, f: Polynomial) -> bool:
        """Whether f lies in the ideal: the one membership test, which
        stops at the first term of f's reduction that no lead divides."""
        if f.nvars != self.nvars:
            raise RingContextError("polynomial in a different ring")
        if not f:
            return True
        return _g_nf(_to_g(f.terms, self._key), self._core(), self.nvars,
                     self.budget, member_only=True) is not None

    # -- graded data ---------------------------------------------------------

    def graded_dim(self, d: int) -> int:
        """Dimension of the ideal's degree-d graded piece: the number of
        degree-d monomials that a lead of the reduced basis divides, read
        off the Hilbert series N(t) / (1 - t)^n of R modulo the leads.
        That is C(d+n-1, n-1) minus the sum of N_k C(d-k+n-1, n-1), and 0
        for d < 0.  N is computed once, from the reduced basis."""
        if self._numerator is None:
            self._numerator = _hilbert_numerator(
                [_unpack(g[0][1], self.nvars) for g in self._core()],
                self.nvars)
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
    guard = _guard(I.nvars)
    return Ideal._from_g([_g_mul(f, g, guard) for f in I._core()
                          for g in J._core()], I.nvars, I.budget)


def ideal_power(I: Ideal, k: int) -> Ideal:
    """Generated by the k-fold products of the reduced basis of I."""
    if k < 1:
        raise ValueError("power must be >= 1")
    guard = _guard(I.nvars)
    return Ideal._from_g([functools.reduce(lambda f, g: _g_mul(f, g, guard), c)
                          for c in itertools.combinations_with_replacement(
                              I._core(), k)], I.nvars, I.budget)


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """Intersection via the single-auxiliary-variable trick (Cox, Little
    and O'Shea, Ideals, Varieties, and Algorithms, ch. 3-4).

    The elimination ideal E is generated by t*f and (1-t)*g over the ring
    extended by t, formed from the generators' gpolys, and its basis is
    taken under _elimination_key, which ranks any monomial with t above
    every monomial without.  The elements of E's reduced basis free of t
    then form the reduced basis of I cap J: t is the top field and the top
    key digit, so a t-free gpoly of E is already the grevlex gpoly of the
    ring without t, in lead order.  The intersection is generated by them
    and carries that basis.  E and the result keep I's budget.
    """
    _same_ring(I, J)
    n = I.nvars
    guard = _guard(n + 1)
    t = 1 << n * _WIDTH  # t's mono field and its key digit
    gens = [_shifted(f, t, t, 1, guard) for f in I._gens_g]
    for h in J._gens_g:
        gens.append(_shifted(h, t, t, 1, guard)
                    + [(k, m, -c) for k, m, c in h])
    E = Ideal._from_g(gens, n + 1, I.budget)
    E._key = _elimination_key
    basis = [g for g in E._core() if not g[0][0] >> n * _WIDTH]
    return Ideal._from_g(basis, n, I.budget, basis)


def intersect_many(ideals) -> Ideal:
    """Fold pairwise intersections, always merging the two smallest."""
    items = list(ideals)
    if not items:
        raise ValueError("need at least one ideal")
    heap = [(len(I._gens_g), pos, I) for pos, I in enumerate(items)]
    heapq.heapify(heap)
    counter = len(items)
    while len(heap) > 1:
        _, _, A = heapq.heappop(heap)
        _, _, B = heapq.heappop(heap)
        C = ideal_intersect(A, B)
        heapq.heappush(heap, (len(C._gens_g), counter, C))
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
    basis = _Basis(_grevlex_key, full.nvars, full.budget)
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
    P._gb = basis.reduced()
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
        terms = [(_unpack(m, I.nvars), c) for _, m, c in g]
        if len({sum(m) for m, _ in terms}) != 1:
            raise ValueError("normal-form tables need a homogeneous ideal")
        (lead, lc), *tail = terms
        entries.append((lead, [(m, QQ(-c, lc)) for m, c in tail]))
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
