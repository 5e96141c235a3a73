import hashlib
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagonals import diagideals, groebner
from diagonals.diagideals import pair_ideal_power, symbolic_power
from diagonals.groebner import (
    Budget,
    BudgetExceeded,
    Ideal,
    graded_basis,
    ideal_equal,
    ideal_intersect,
    ideal_power,
    ideal_product,
    intersect_many,
    minimal_generator_counts,
    minimal_generators,
    nf_monomial_table,
)
from diagonals.linalg import RowEchelon
from diagonals.polyring import (
    Polynomial,
    QQ,
    count_monomials,
    grevlex_key,
    monomials_of_degree,
    random_polynomial,
    to_string,
    variables,
)
from diagonals.weyl import root_system

from support import (
    homogeneous_polynomials,
    span_membership,
    sympy_expr,
)


def P(text, nvars, names=None):
    from diagonals.polyring import from_string

    return from_string(text, nvars, names)


class TestBuchbergerBasics:
    def test_principal(self):
        x, y = variables(2)
        gb = Ideal([2 * x * y + 2 * y]).groebner_basis()
        assert gb == (x * y + y,)

    def test_already_a_basis(self):
        x, y = variables(2)
        gb = Ideal([x, y]).groebner_basis()
        assert gb == (y, x) or gb == (x, y)
        assert len(gb) == 2

    def test_interreduced_and_monic(self):
        x, y, z = variables(3)
        gens = [x**2 + y, x**2 + z, 3 * y - 3 * z]
        gb = Ideal(gens).groebner_basis()
        assert all(g.leading_coefficient() == 1 for g in gb)
        leads = [g.leading_monomial() for g in gb]
        # no lead divides another, and tails avoid all leads
        for i, g in enumerate(gb):
            for m in g.terms:
                for j, l in enumerate(leads):
                    if i == j and m == leads[i]:
                        continue
                    assert not all(a <= b for a, b in zip(l, m))

    def test_deterministic_under_generator_shuffle(self):
        x, y, z = variables(3)
        gens = [x * y - z**2, y * z - x**2, x * z - y**2, x**2 * y - z * y**2]
        ref = Ideal(gens).groebner_basis()
        rng = random.Random(7)
        for _ in range(4):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert Ideal(shuffled).groebner_basis() == ref

    def test_zero_and_constant(self):
        x, y = variables(2)
        assert Ideal([Polynomial.zero(2)], nvars=2).groebner_basis() == ()
        gb = Ideal([x + 1, x]).groebner_basis()
        assert gb == (Polynomial.constant(2, 1),)


def _remainder(I, f):
    """The kernel's remainder of f against I's reduced basis, a normal form
    up to a unit, as a monic Polynomial (zero for a member)."""
    r = groebner._g_nf(groebner._to_g(f.terms), I._core(), I.nvars,
                       I.budget)
    return groebner._g_to_poly(r, f.nvars) if r else Polynomial.zero(f.nvars)


class TestNormalForm:
    def test_nf_is_reduced(self):
        x, y = variables(2)
        I = Ideal([x**2 - y, y**2 - x])
        f = x**4 + x * y
        nf = _remainder(I, f)
        leads = [g.leading_monomial() for g in I.groebner_basis()]
        for m in nf.terms:
            assert not any(all(a <= b for a, b in zip(l, m)) for l in leads)
        # x^4 = y^2 = x modulo I, so the remainder is x*y + x up to a unit
        assert nf == x * y + x
        assert I.contains(f - nf)

    def test_membership(self):
        x, y, z = variables(3)
        I = Ideal([x * y - z**2, x - y])
        assert I.contains(y * (x * y - z**2) + z * (x - y))
        assert not I.contains(x)

    def test_nf_linear_over_ideal(self):
        x, y = variables(2)
        I = Ideal([x**2 - y])
        f, g = x**3, y * x
        # f and g agree modulo I, so f, g, f + g and f plus any member
        # have one remainder up to a unit
        assert _remainder(I, f) == x * y
        assert _remainder(I, g) == x * y
        assert _remainder(I, f + g) == x * y
        assert _remainder(I, f + (3 * x * y + 1) * (x**2 - y)) == x * y
        assert _remainder(I, 2 * f - 2 * g) == Polynomial.zero(2)

    @settings(max_examples=25)
    @given(st.integers(0, 10 ** 6))
    def test_spolys_reduce_to_zero(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(2, 3)
        gens = [random_polynomial(rng, nvars, 3, 3) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            return
        I = Ideal(gens)
        gb = I.groebner_basis()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                fi, fj = gb[i], gb[j]
                mi = fi.leading_monomial()
                mj = fj.leading_monomial()
                lcm = tuple(max(a, b) for a, b in zip(mi, mj))
                ui = Polynomial(nvars, {tuple(l - a for l, a in zip(lcm, mi)): 1})
                uj = Polynomial(nvars, {tuple(l - a for l, a in zip(lcm, mj)): 1})
                s = ui * fi - uj * fj
                assert I.contains(s)


def _multiples(gens, top):
    """RowEchelon of the monomial multiples of homogeneous gens through
    total degree top."""
    ech = RowEchelon()
    for g in gens:
        for e in range(top - g.total_degree() + 1):
            for m in monomials_of_degree(g.nvars, e):
                ech.add((Polynomial(g.nvars, {m: 1}) * g).terms)
    return ech


class TestNonMonicNormalForm:
    """The kernel's remainder is the normal form up to a unit.  Every
    reduction step by a non-monic basis element scales the terms already
    found irreducible, so those must keep their share of that scale."""

    @pytest.mark.parametrize("seed", range(40))
    def test_nf_is_reduced_and_congruent(self, seed):
        x, y, z = variables(3)
        gens = [3 * x**2 + 2 * y * z, 5 * y**2 - 7 * x * z]
        I = Ideal(gens)
        basis = I._core()
        rng = random.Random(seed)
        if seed % 2:
            f = random_polynomial(rng, 3, 5, 6)
        else:
            # a member: a combination of the generators
            f = sum((random_polynomial(rng, 3, 3, 4) * g for g in gens),
                    Polynomial.zero(3))
        member = span_membership(f, gens)
        fg = groebner._to_g(f.terms)
        r = groebner._g_nf(fg, basis, 3, I.budget)
        assert (r == []) == member
        assert (groebner._g_nf(fg, basis, 3, I.budget, member_only=True)
                is None) == (not member)
        if not r:
            return
        assert r[0][2] > 0
        assert math.gcd(*(c for _, _, c in r)) == 1
        assert [k for k, _, _ in r] == sorted((k for k, _, _ in r),
                                              reverse=True)
        leads = [groebner._unpack(g[0][1], 3) for g in basis]
        terms = {groebner._unpack(m, 3): QQ(c) for _, m, c in r}
        for m in terms:
            assert not any(groebner._divides(lead, m) for lead in leads)
        # r is a nonzero multiple of f modulo the ideal: it lies in the
        # span of f and the ideal's multiples of f's degrees
        ech = _multiples(gens, f.total_degree())
        ech.add(f.terms)
        assert ech.contains(terms)


# every exponent, and under grevlex the degree, stays below this
LIMIT = 1 << groebner._WIDTH - 1


@st.composite
def exponent_vectors(draw, nvars, degree_below=None):
    """Exponent vectors with entries below LIMIT; with degree_below, scaled
    down so that their degree stays below it, as a key needs."""
    e = draw(st.lists(st.integers(0, LIMIT - 1), min_size=nvars,
                      max_size=nvars))
    total = sum(e)
    if degree_below is not None and total >= degree_below:
        e = [x * (degree_below - 1) // total for x in e]
    return tuple(e)


def _tuple_elimination_key(m):
    return (m[-1],) + grevlex_key(m[:-1])


def _sum(u, v):
    return tuple(a + b for a, b in zip(u, v))


nvars_range = st.integers(1, 11)


class TestPackedEncoding:
    """The kernel's ints against the tuples they encode."""

    @given(st.data())
    def test_int_keys_order_and_add_as_tuple_keys(self, data):
        n = data.draw(nvars_range)
        u, v = (data.draw(exponent_vectors(n, LIMIT)) for _ in range(2))
        # factors whose product stays inside the limit
        f, g = (data.draw(exponent_vectors(n, LIMIT // 2)) for _ in range(2))
        for key, ref in ((groebner._grevlex_key, grevlex_key),
                         (groebner._elimination_key, _tuple_elimination_key)):
            assert (key(u) < key(v)) == (ref(u) < ref(v))
            assert (key(u) == key(v)) == (u == v)
            assert key(f) + key(g) == key(_sum(f, g))

    @given(st.data())
    def test_guard_bit_test_is_divisibility(self, data):
        n = data.draw(nvars_range)
        a = data.draw(exponent_vectors(n))
        # a multiple of a, so that both answers occur
        multiple = tuple(min(x + y, LIMIT - 1) for x, y in zip(
            a, data.draw(exponent_vectors(n, 4))))
        b = data.draw(st.one_of(exponent_vectors(n), st.just(multiple)))
        guard = groebner._guard(n)
        assert (groebner._packed_divides(groebner._pack(a),
                                         groebner._pack(b), guard)
                == groebner._divides(a, b))

    @given(st.data())
    def test_pack_round_trip(self, data):
        n = data.draw(nvars_range)
        m = data.draw(exponent_vectors(n))
        packed = groebner._pack(m)
        assert groebner._unpack(packed, n) == m
        assert packed & groebner._guard(n) == 0

    def test_t_free_elimination_gpoly_is_the_grevlex_one(self):
        x, y, z = variables(3)
        f = 3 * x**2 * y - 2 * z**3 + x
        ext = {m + (0,): c for m, c in f.terms.items()}
        assert (groebner._to_g(ext, groebner._elimination_key)
                == groebner._to_g(f.terms))


class TestOverflow:
    """An exponent or key digit that reaches its field's guard bit raises
    instead of carrying into the next field."""

    def test_input_past_the_limit(self):
        x, y = variables(2)
        for f in (x**LIMIT, x**(LIMIT // 2) * y**(LIMIT // 2)):
            with pytest.raises(OverflowError):
                Ideal([f + y]).groebner_basis()
        assert Ideal([x**(LIMIT - 1) + y]).groebner_basis()
        # t's exponent is a digit of its own under the elimination key
        with pytest.raises(OverflowError):
            groebner._to_g({(0, LIMIT): QQ(1)}, groebner._elimination_key)

    def test_pair_lcm_past_the_limit(self):
        x, y = variables(2)
        half = LIMIT // 2
        with pytest.raises(OverflowError):
            Ideal([x**half + y, y**half + x]).groebner_basis()

    def test_product_past_the_limit(self):
        x, y = variables(2)
        I = Ideal([x**(LIMIT // 2) + y])
        assert ideal_power(I, 1).gens == I.gens
        with pytest.raises(OverflowError):
            ideal_power(I, 2)

    def test_reduction_step_past_the_limit(self):
        # under the elimination key t*x0 leads t*x0 - x1^(LIMIT-1), and
        # reducing t*x0*x1 by it makes x1^LIMIT
        key = groebner._elimination_key
        g = groebner._to_g({(1, 0, 1): QQ(1), (0, LIMIT - 1, 0): QQ(-1)},
                           key)
        # t*x0 itself reduces to x1^(LIMIT-1), just inside the limit
        assert groebner._g_nf(groebner._to_g({(1, 0, 1): QQ(1)}, key), [g],
                              3, Budget()) == groebner._to_g(
                                  {(0, LIMIT - 1, 0): QQ(1)}, key)
        f = groebner._to_g({(1, 1, 1): QQ(1)}, key)
        with pytest.raises(OverflowError):
            groebner._g_nf(f, [g], 3, Budget())


def _textbook_remainder(f, divisors, key):
    """Remainder of the division of f by the divisors over Fractions: the
    largest term first, cancelled by the first divisor in list order whose
    lead divides it, else moved to the remainder."""
    work, rem = dict(f.terms), {}
    leads = [max(g.terms, key=key) for g in divisors]
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for g, lead in zip(divisors, leads):
            if all(a <= b for a, b in zip(lead, m)):
                q = c / g.terms[lead]
                u = tuple(a - b for a, b in zip(m, lead))
                for gm, gc in g.terms.items():
                    if gm != lead:
                        sm = _sum(gm, u)
                        s = work.get(sm, 0) - q * gc
                        if s:
                            work[sm] = s
                        else:
                            work.pop(sm, None)
                break
        else:
            rem[m] = c
    return rem


class TestHeapDivision:
    """_g_nf against a textbook division over Fractions, on divisor lists
    that need not be Groebner bases."""

    @pytest.mark.parametrize("seed", range(40))
    def test_remainder_is_proportional_to_the_textbook_one(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        divisors = [g for g in (random_polynomial(rng, n, 3, 4)
                                for _ in range(rng.randint(1, 4))) if g]
        if seed % 4 == 0 and divisors:
            # a multiple of the first divisor divides out exactly
            u = tuple(rng.randint(0, 2) for _ in range(n))
            f = Polynomial(n, {u: QQ(rng.randint(1, 5))}) * divisors[0]
        else:
            f = random_polynomial(rng, n, 5, 8)
        for key, ref in ((groebner._grevlex_key, grevlex_key),
                         (groebner._elimination_key, _tuple_elimination_key)):
            basis = [groebner._to_g(g.terms, key) for g in divisors]
            fg = groebner._to_g(f.terms, key)
            want = _textbook_remainder(f, divisors, ref)
            got = groebner._g_nf(fg, basis, n, Budget())
            assert [k for k, _, _ in got] == sorted(
                (k for k, _, _ in got), reverse=True)
            got = {groebner._unpack(m, n): QQ(c) for _, m, c in got}
            assert got.keys() == want.keys(), (seed, key)
            if got:
                lead = max(want, key=ref)
                ratio = want[lead] / got[lead]
                assert all(want[m] == ratio * c for m, c in got.items())
            member = groebner._g_nf(fg, basis, n, Budget(), member_only=True)
            assert member == (None if want else [])


class TestAgainstSpanOracle:
    def test_seeded_membership_matches_oracle(self):
        # random homogeneous instances, cross-checked coefficient by
        # coefficient against plain linear algebra
        rng = random.Random(20260817)
        agree = 0
        for trial in range(60):
            nvars = rng.randint(2, 4)
            gens = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                monos = list(monomials_of_degree(nvars, deg))
                terms = {}
                for m in rng.sample(monos, min(len(monos), rng.randint(1, 4))):
                    terms[m] = QQ(rng.randint(-5, 5))
                g = Polynomial(nvars, terms)
                if g:
                    gens.append(g)
            if not gens:
                continue
            I = Ideal(gens)
            # half the probes are crafted members, half are random
            if trial % 2:
                f = Polynomial.zero(nvars)
                for g in gens:
                    f = f + random_polynomial(rng, nvars, 2, 2) * g
            else:
                f = random_polynomial(rng, nvars, 4, 3)
            assert I.contains(f) == span_membership(f, gens)
            agree += 1
        assert agree >= 40


class TestIdealOps:
    def test_intersect_monomial(self):
        x, y = variables(2)
        I = Ideal([x])
        J = Ideal([y])
        K = ideal_intersect(I, J)
        assert ideal_equal(K, Ideal([x * y]))

    def test_intersect_classic(self):
        x, y = variables(2)
        K = ideal_intersect(Ideal([x**2, y]), Ideal([x]))
        assert ideal_equal(K, Ideal([x**2, x * y]))

    def test_intersect_is_contained_in_both(self):
        x, y, z = variables(3)
        I = Ideal([x + y, z])
        J = Ideal([x - z, y**2])
        K = ideal_intersect(I, J)
        for g in K.gens:
            assert I.contains(g)
            assert J.contains(g)

    def test_intersect_many(self):
        x, y, z = variables(3)
        K = intersect_many([Ideal([x]), Ideal([y]), Ideal([z])])
        assert ideal_equal(K, Ideal([x * y * z]))

    def test_product_and_power(self):
        x, y = variables(2)
        I = Ideal([x, y])
        sq = ideal_power(I, 2)
        assert ideal_equal(sq, ideal_product(I, I))
        assert ideal_equal(sq, Ideal([x**2, x * y, y**2]))

    def test_equal_vs_different(self):
        x, y = variables(2)
        assert ideal_equal(Ideal([x, y]), Ideal([x + y, y]))
        assert not ideal_equal(Ideal([x]), Ideal([x**2]))


def _mutually_contained(I, J):
    return (all(I.contains(g) for g in J.gens)
            and all(J.contains(g) for g in I.gens))


class TestCanonicalBasis:
    # ideal_equal compares reduced bases, which are unique only if every
    # basis an operation installs is the one the ideal's own generators give

    def test_intersection_installs_the_generators_basis(self):
        for seed in range(30):
            rng = random.Random(seed)
            A = Ideal(_seeded_gens(seed, rng, rng.randint(1, 3)), nvars=3)
            B = Ideal(_seeded_gens(seed, rng, rng.randint(1, 3)), nvars=3)
            K = ideal_intersect(A, B)
            assert K._core() == Ideal(K.gens, nvars=3)._core(), seed

    def test_equal_for_another_generating_set(self):
        # H_i = G_i plus multiples of the earlier G_j, in reverse order and
        # with one redundant sum: the same ideal from other generators
        for seed in range(30):
            rng = random.Random(seed)
            G = _seeded_gens(seed, rng, rng.randint(2, 4))
            H = [g + sum((random_polynomial(rng, 3, 1, 2) * h
                          for h in G[:i]), Polynomial.zero(3))
                 for i, g in enumerate(G)]
            H = H[::-1] + [sum(G, Polynomial.zero(3))]
            assert ideal_equal(Ideal(G, nvars=3), Ideal(H, nvars=3)), seed

    def test_unequal_with_equal_graded_dimensions(self):
        # swapping two variables keeps every graded dimension; the ideals
        # differ exactly when mutual membership fails
        unequal = 0
        for seed in range(1, 60, 2):
            rng = random.Random(seed)
            G = _seeded_gens(seed, rng, rng.randint(1, 3))
            I = Ideal(G, nvars=3)
            J = Ideal([Polynomial(3, {(m[1], m[0], m[2]): c
                                      for m, c in g.terms.items()})
                       for g in G], nvars=3)
            assert ([I.graded_dim(d) for d in range(6)]
                    == [J.graded_dim(d) for d in range(6)])
            same = ideal_equal(I, J)
            assert same == _mutually_contained(I, J), seed
            unequal += not same
        assert unequal >= 20


def _scanned_multiples(leads, nvars, d):
    """Reference count: the degree-d monomials that one of the leads
    divides, found by testing each of them."""
    return sum(any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
               for m in monomials_of_degree(nvars, d))


def _lead_sets(seed):
    """(nvars, leads) samples: no leads, the unit ideal, pure powers,
    duplicate and non-minimal leads, and random sets in 1 to 7 variables."""
    rng = random.Random(seed)
    out = []
    for nvars in range(1, 8):
        powers = [tuple(rng.randint(1, 4) if i == j else 0
                        for i in range(nvars)) for j in range(nvars)]
        out += [(nvars, []), (nvars, [(0,) * nvars]), (nvars, powers)]
        for _ in range(6):
            leads = [tuple(rng.randint(0, 3) for _ in range(nvars))
                     for _ in range(rng.randint(1, 8))]
            # a duplicate, and a multiple of the first lead
            leads += [leads[0], tuple(e + rng.randint(0, 2) for e in leads[0])]
            rng.shuffle(leads)
            out.append((nvars, leads))
    return out


class TestGradedData:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_hilbert_numerator_counts_the_lead_multiples(self, seed):
        for nvars, leads in _lead_sets(seed):
            numerator = groebner._hilbert_numerator(leads, nvars)
            for d in range(-1, 9):
                assert groebner._graded_count(numerator, nvars, d) \
                    == _scanned_multiples(leads, nvars, d), (nvars, leads, d)

    def test_graded_dim_of_monomial_ideals_matches_the_scan(self):
        rng = random.Random(5)
        for nvars in (2, 4, 6):
            monos = [tuple(rng.randint(0, 3) for _ in range(nvars))
                     for _ in range(6)]
            I = Ideal([Polynomial(nvars, {m: 1}) for m in monos])
            assert [I.graded_dim(d) for d in range(-1, 9)] == [
                _scanned_multiples(monos, nvars, d) for d in range(-1, 9)]

    def test_graded_dim_principal(self):
        x, y = variables(2)
        I = Ideal([x * y])
        # multiples of xy in degree d: monomials xy * (deg d-2)
        for d in range(0, 6):
            expected = count_monomials(2, d - 2) if d >= 2 else 0
            assert I.graded_dim(d) == expected

    def test_nf_table_and_basis(self):
        x, y = variables(2)
        I = Ideal([x**2 - y**2, x * y])
        for d in range(2, 6):
            table = nf_monomial_table(I, d)
            assert len(table) == count_monomials(2, d)
            basis = graded_basis(I, d)
            assert len(basis) == I.graded_dim(d)
            for b in basis:
                assert I.contains(b)
                assert b.is_homogeneous() and b.total_degree() == d

    def test_min_gens_complete_intersection(self):
        x, y, z = variables(3)
        I = Ideal([x**2 + y * z, y**3 - z**3, z**4])
        counts = minimal_generator_counts(I, 6)
        assert counts == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0}

    def test_min_gens_power_of_maximal(self):
        x, y = variables(2)
        I = ideal_power(Ideal([x, y]), 3)
        counts = minimal_generator_counts(I, 5)
        assert counts == {0: 0, 1: 0, 2: 0, 3: 4, 4: 0, 5: 0}

    def test_min_gen_counts_build_no_reduced_basis(self, monkeypatch):
        # the counts need only the kept generators, so the walk's basis is
        # neither completed nor reduced
        x, y, z = variables(3)
        I = Ideal([x**2 + y * z, y**3 - z**3, z**4])
        I.groebner_basis()

        def refuse(self):
            raise AssertionError("reduced basis built")

        monkeypatch.setattr(groebner._Basis, "reduced", refuse)
        assert minimal_generator_counts(I, 4) == {0: 0, 1: 0, 2: 1, 3: 1,
                                                  4: 1}

    def test_min_gens_matches_mI_dimension_oracle(self):
        # count_d must equal dim I_d - dim (m*I)_d
        x, y, z = variables(3)
        gens = [x * y - z**2, x**2 * y, y**3]
        I = Ideal(gens)
        m = Ideal([x, y, z])
        mI = ideal_product(m, I)
        counts = minimal_generator_counts(I, 6)
        for d in range(7):
            assert counts[d] == I.graded_dim(d) - mI.graded_dim(d)


def _homogeneous(rng, nvars, d, terms=3):
    monos = list(monomials_of_degree(nvars, d))
    return Polynomial(nvars, {rng.choice(monos): QQ(rng.randint(-5, 5))
                              for _ in range(terms)})


def _candidate_lists(seed):
    """Seeded homogeneous candidates by degree: fresh samples, monomial and
    S-polynomial multiples of lower candidates, and sums of two candidates
    of one degree, so that a walk over them both keeps and rejects."""
    rng = random.Random(seed)
    nvars, top = rng.randint(3, 4), rng.randint(3, 4)
    by_degree = {d: [] for d in range(top + 1)}

    def shift(f, d):
        monos = list(monomials_of_degree(nvars, d - f.total_degree()))
        return Polynomial(nvars, {rng.choice(monos): QQ(1)}) * f

    for d in range(2, top + 1):
        lower = [f for e in range(2, d) for f in by_degree[e]]
        pool = [_homogeneous(rng, nvars, d) for _ in range(rng.randint(1, 2))]
        pool += [shift(f, d) for f in rng.sample(lower, min(2, len(lower)))]
        for f, g in itertools.combinations(lower, 2):
            lf, lg = f.leading_monomial(), g.leading_monomial()
            lcm = tuple(map(max, lf, lg))
            if sum(lcm) <= d:
                u = tuple(a - b for a, b in zip(lcm, lf))
                v = tuple(a - b for a, b in zip(lcm, lg))
                s = (Polynomial(nvars, {u: g.leading_coefficient()}) * f
                     - Polynomial(nvars, {v: f.leading_coefficient()}) * g)
                if s:
                    pool.append(shift(s, d))
        pool += [a + b for a, b in itertools.combinations(pool[:3], 2)]
        pool = [f for f in pool if f]
        rng.shuffle(pool)
        by_degree[d] = pool
    return nvars, top, by_degree


def _rebuilt_walk(candidates, top):
    """The walk by plain linear algebra, with no Groebner basis: in degree
    d a RowEchelon holds the monomial multiples through degree d of the
    generators kept so far (only those of degree d meet a candidate), and
    a candidate is kept when it raises the rank."""
    kept = []
    for d in range(top + 1):
        ech = _multiples(kept, d)
        kept += [f for f in candidates(d) if ech.add(f.terms)]
    return kept


class TestMinimalGeneratorWalk:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_rebuilt_walk(self, seed):
        nvars, top, by_degree = _candidate_lists(seed)
        every = [f for fs in by_degree.values() for f in fs]
        full = Ideal(every, nvars=nvars)
        kept = _rebuilt_walk(by_degree.__getitem__, top)
        assert len(kept) < len(every)
        P = minimal_generators(by_degree.__getitem__, full, top)
        assert list(P.gens) == kept
        assert P.generated_up_to == top
        assert P._gb is not None
        assert P._gb == Ideal(kept, nvars=nvars)._core()


class TestBudget:
    def test_basis_cap_raises(self):
        x, y, z = variables(3)
        gens = [x**3 * y - z**2, y**3 * z - x**2, z**3 * x - y**2]
        with pytest.raises(BudgetExceeded):
            Ideal(gens, budget=Budget(max_seconds=600, max_basis=3)).groebner_basis()

    def test_reduction_abort_reports_elapsed(self):
        # 325 terms: reducing the first generator checks the clock at step 256
        wide = Polynomial(3, {m: 1 for m in monomials_of_degree(3, 24)})
        with pytest.raises(BudgetExceeded) as info:
            Ideal([wide], budget=Budget(max_seconds=0,
                                        max_basis=4000)).groebner_basis()
        assert info.value.reason == "time limit in reduction"
        assert info.value.elapsed > 0

    def test_minimal_generators_check_the_budget_per_degree(self):
        # the clock runs from the budget's creation, so a spent budget on
        # the full ideal stops the first degree before any basis work
        x, y = variables(2)
        full = Ideal([x, y], budget=Budget(max_seconds=0))
        with pytest.raises(BudgetExceeded) as info:
            minimal_generators(lambda d: [], full, 2)
        assert info.value.reason == "time limit in minimal generators"

    def test_normal_form_tables_check_the_budget(self):
        # 462 monomials of degree 6 in 6 variables: the clock is read at
        # the 256th
        I = Ideal(variables(6)[:2])
        I.groebner_basis()
        I.budget = Budget(max_seconds=0)
        with pytest.raises(BudgetExceeded) as info:
            nf_monomial_table(I, 6)
        assert info.value.reason == "time limit in normal-form tables"
        assert info.value.basis_size is None
        with pytest.raises(BudgetExceeded):
            graded_basis(I, 6)

    def test_membership_reductions_check_the_budget(self):
        # 325 terms, all but the last divisible by x or y: the reduction
        # reads the clock at step 256
        wide = Polynomial(3, {m: 1 for m in monomials_of_degree(3, 24)})
        x, y, _ = variables(3)
        spent = Ideal([x, y], budget=Budget(max_seconds=0))
        with pytest.raises(BudgetExceeded) as info:
            spent.contains(wide)
        assert info.value.reason == "time limit in reduction"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DIAGONALS_MAX_SECONDS", "12.5")
        monkeypatch.setenv("DIAGONALS_MAX_BASIS", "77")
        b = Budget.from_env()
        assert b.max_seconds == 12.5
        assert b.max_basis == 77

    def test_ideal_without_a_budget_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("DIAGONALS_MAX_SECONDS", "12.5")
        own = Ideal([variables(1)[0]]).budget
        assert (own.max_seconds, own.max_basis) == (12.5, Budget.max_basis)

    def test_only_constructors_take_a_budget(self):
        # every other layer reads the budget of the ideal it is given
        takers = set()
        for module in (groebner, diagideals):
            for name, obj in vars(module).items():
                if (name.startswith("_") or not callable(obj)
                        or obj.__module__ != module.__name__):
                    continue
                members = [(name, obj)]
                if inspect.isclass(obj):
                    members += [(f"{name}.{attr}", fn)
                                for attr, fn in vars(obj).items()
                                if not attr.startswith("_")
                                and inspect.isfunction(fn)]
                takers |= {label for label, fn in members
                           if "budget" in inspect.signature(fn).parameters}
        assert takers == {"Ideal", "pair_ideal_power",
                          "ideal_I", "symbolic_power", "full_ring_ideal",
                          "alternant_basis"}


def _checked_intersection(I, J, top=6):
    """I cap J, checked against dim (I cap J)_d = dim I_d + dim J_d
    - dim (I + J)_d for d <= top."""
    K = ideal_intersect(I, J)
    S = Ideal(I.gens + J.gens, nvars=I.nvars)
    for d in range(top + 1):
        assert K.graded_dim(d) == (I.graded_dim(d) + J.graded_dim(d)
                                   - S.graded_dim(d)), d
    return K


class TestIntersectionOracle:
    """The elimination-order path against the Grassmann identity."""

    @pytest.mark.parametrize("name", ["B2", "G2"])
    def test_squared_pair_ideals(self, name):
        rs = root_system(name)
        squares = [pair_ideal_power(rs, k, 2)
                   for k in range(len(rs.positive_roots))]
        fold = squares[0]
        for P in squares[1:]:
            fold = _checked_intersection(fold, P)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_random_homogeneous_ideals(self, data):
        nvars = data.draw(st.integers(2, 3))

        def ideal():
            gens = [data.draw(homogeneous_polynomials(
                nvars, data.draw(st.integers(1, 3)), max_terms=3))
                for _ in range(data.draw(st.integers(1, 2)))]
            return Ideal(gens, nvars=nvars)

        _checked_intersection(ideal(), ideal())


def _seeded_gens(seed, rng, count, max_deg=3, max_terms=4):
    """The nonzero ones of count seeded polynomials in three variables; on
    odd seeds each is cut to its top-degree part, so the ideal is
    homogeneous."""
    gens = [random_polynomial(rng, 3, max_deg, max_terms)
            for _ in range(count)]
    if seed % 2:
        gens = [Polynomial(3, {m: c for m, c in g.terms.items()
                               if sum(m) == g.total_degree()})
                for g in gens]
    return [g for g in gens if g]


def _sympy_terms(polys):
    return sorted(sorted((m, QQ(str(c))) for m, c in p.terms())
                  for p in polys)


def _our_terms(gb):
    return sorted(sorted(g.terms.items()) for g in gb)


class TestAgainstSympy:
    def test_reduced_bases_agree(self):
        # 300 seeded ideals in three variables, odd seeds homogeneous, under
        # grevlex; wrong pair pruning shows up in only a few of them
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x0:3")
        for seed in range(300):
            rng = random.Random(seed)
            gens = _seeded_gens(seed, rng, rng.randint(2, 4))
            theirs = sympy.groebner([sympy_expr(sympy, xs, g) for g in gens],
                                    *xs, order="grevlex", domain="QQ")
            got = Ideal(gens, nvars=3).groebner_basis()
            assert _our_terms(got) == _sympy_terms(theirs.polys), seed

    def test_intersection_matches_lex_elimination(self):
        # the block order of ideal_intersect against sympy's lex basis of
        # t*A + (1-t)*B in (t, x0, x1, x2): its t-free part generates
        # A cap B, and that part's grevlex reduced basis must be ours.
        # Seeded pairs of ideals, odd seeds homogeneous; a product criterion
        # that ignored t would fail 56 of them
        sympy = pytest.importorskip("sympy")
        t, *xs = sympy.symbols("t x0:3")
        checked = 0
        for seed in range(150):
            rng = random.Random(seed)
            A = _seeded_gens(seed, rng, rng.randint(1, 2), 2, 3)
            B = _seeded_gens(seed, rng, rng.randint(1, 2), 2, 3)
            if not A or not B:
                continue
            lex = sympy.groebner(
                [t * sympy_expr(sympy, xs, a) for a in A]
                + [(1 - t) * sympy_expr(sympy, xs, b) for b in B],
                t, *xs, order="lex", domain="QQ")
            free = [p.as_expr() for p in lex.polys if p.degree(t) == 0]
            theirs = sympy.groebner(free, *xs, order="grevlex", domain="QQ")
            got = ideal_intersect(Ideal(A, nvars=3),
                                  Ideal(B, nvars=3)).groebner_basis()
            assert _our_terms(got) == _sympy_terms(theirs.polys), seed
            checked += 1
        assert checked == 147


class TestPinnedBasis:
    def test_g2_symbolic_square(self):
        # recorded under the normal strategy; a reduced basis is unique, so
        # any pair selection must reproduce it
        gb = symbolic_power(root_system("G2"), 2).groebner_basis()
        assert [list(g.leading_monomial()) for g in gb] == [
            [0, 2, 0, 2, 0, 0], [0, 1, 0, 6, 1, 0], [1, 1, 0, 5, 1, 0],
            [2, 1, 0, 4, 1, 0], [3, 1, 0, 3, 1, 0], [4, 1, 0, 2, 1, 0],
            [5, 1, 0, 1, 1, 0], [5, 2, 0, 1, 0, 0], [0, 0, 0, 10, 2, 0],
            [1, 0, 0, 9, 2, 0], [2, 0, 0, 8, 2, 0], [3, 0, 0, 7, 2, 0],
            [4, 0, 0, 6, 2, 0], [5, 0, 0, 5, 2, 0], [6, 0, 0, 4, 2, 0],
            [7, 0, 0, 3, 2, 0], [8, 0, 0, 2, 2, 0], [9, 0, 0, 1, 2, 0],
            [10, 0, 0, 0, 2, 0], [10, 1, 0, 0, 1, 0], [10, 2, 0, 0, 0, 0],
        ]
        assert sum(len(g.terms) for g in gb) == 4218
        text = "\n".join(sorted(to_string(g) for g in gb))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1471d7a8b4f0134a007830e900178be90433be07b756ec502384389fb291cbac")
