import itertools
import random

import pytest

from diagonals import groebner
from diagonals.diagideals import (
    alternant_basis,
    averaged_multiple_dim,
    compare,
    discriminant,
    full_ring_ideal,
    ideal_I,
    ideal_J,
    invariant_image_dim,
    pair_ideal_power,
    primitive_part,
    symbolic_power,
    x_form,
    y_form,
)
from diagonals.groebner import (
    Budget,
    BudgetExceeded,
    Ideal,
    degree_counts,
    graded_basis,
    ideal_equal,
    ideal_power,
    intersect_many,
    minimal_generator_counts,
    nf_monomial_table,
)
from diagonals.linalg import RowEchelon
from diagonals.polyring import (
    LinearSubstitution,
    Polynomial,
    QQ,
    monomials_of_bidegree,
    monomials_of_degree,
    random_polynomial,
    to_string,
)
from diagonals.weyl import WeylGroup, orbit_projection, root_system
from support import (
    bidegree,
    naive_average,
    product_ideal,
    sympy_matrix,
    variables,
)


def alternant_dim_oracle(W, a, b):
    """Solution-space dimension of the alternation constraints, assembled
    as a raw linear system with no orbit or averaging machinery."""
    n = W.ambient
    monos = list(monomials_of_bidegree(n, a, b))
    gens = [W.root_system.reflection(r) for r in W.root_system.generator_roots]
    ech = RowEchelon()
    rank = 0
    for s in gens:
        cols: dict = {}
        for m in monos:
            g = W.act(s, Polynomial(2 * n, {m: 1})) + Polynomial(2 * n, {m: 1})
            for u, c in g.terms.items():
                cols.setdefault(u, {})[m] = c
        for u in sorted(cols):
            if ech.add(cols[u]):
                rank += 1
    return len(monos) - rank


def restriction_graded_dims(rs, top):
    """dim I_d for d <= top, I the intersection of the pair ideals, as
    dim R_d minus the rank of f -> (f o pi_alpha) over the positive roots.

    pi_alpha = (1 + s_alpha) / 2 on each block projects onto the subspace
    where the x- and y-forms of alpha vanish, so f o pi_alpha = 0 exactly
    when f lies in the pair ideal P_alpha.  No Groebner basis is involved.
    """
    n = rs.ambient
    projections = []
    for alpha in rs.positive_roots:
        s = rs.reflection(alpha)
        pi = tuple(tuple(((i == j) + s[i][j]) * QQ(1, 2)
                         for j in range(n)) for i in range(n))
        projections.append(LinearSubstitution(pi))
    dims = []
    for d in range(top + 1):
        monos = list(monomials_of_degree(2 * n, d))
        ech = RowEchelon()
        for m in monos:
            f = Polynomial(2 * n, {m: 1})
            ech.add({(k, u): c for k, pi in enumerate(projections)
                     for u, c in pi(f).terms.items()})
        dims.append(len(monos) - ech.rank)
    return dims


def _complete_homogeneous(M, top):
    """h_0..h_top of the eigenvalues of the sympy matrix M, the
    coefficients of 1/det(1 - s*M), from the principal minors e_k by the
    e/h recurrence."""
    n = M.rows
    e = [sum(M.extract(list(S), list(S)).det()
             for S in itertools.combinations(range(n), k))
         for k in range(n + 1)]
    h = [1]
    for k in range(1, top + 1):
        h.append(sum((-1) ** (i + 1) * e[i] * h[k - i]
                     for i in range(1, min(k, n) + 1)))
    return h


def molien_alternant_dims(W, top):
    """{(a, b): dim of the alternants of bidegree (a, b)} for a + b <= top,
    read off the bigraded Molien series
    (1/|W|) sum_w det(w) / (det(1 - s*w^-1) det(1 - t*w^T)).  Determinants
    and inverses come from sympy, not from the group's own data."""
    sympy = pytest.importorskip("sympy")
    dims = {(a, b): 0 for a in range(top + 1) for b in range(top + 1 - a)}
    for w in W.elements:
        M = sympy_matrix(sympy, w)
        hx = _complete_homogeneous(M.inv(), top)
        hy = _complete_homogeneous(M.T, top)
        sign = M.det()
        for a, b in dims:
            dims[a, b] += sign * hx[a] * hy[b]
    return {ab: v / W.order for ab, v in dims.items()}


class TestForms:
    def test_b3_pair_forms_in_session_order(self):
        rs = root_system("B3")
        xs = [to_string(x_form(rs, k)) for k in range(9)]
        ys = [to_string(y_form(rs, k)) for k in range(9)]
        assert xs == ["x1 - x2", "x1 - x3", "x2 - x3",
                      "x1 + x2", "x1 + x3", "x2 + x3",
                      "x1", "x2", "x3"]
        assert ys[6] == "y1"

    def test_g2_long_root_form(self):
        rs = root_system("G2")
        assert to_string(x_form(rs, 3)) == "2*x1 - x2 - x3"
        assert to_string(y_form(rs, 3)) == "2*y1 - y2 - y3"

    def test_discriminant_degree_and_alternancy(self):
        for name in ("A2", "B2", "G2"):
            rs = root_system(name)
            W = WeylGroup(rs)
            delta = discriminant(rs)
            assert delta.total_degree() == len(rs.positive_roots)
            assert bidegree(delta) == (len(rs.positive_roots), 0)
            assert all(W.act(s, delta) == -delta for s in W.generators)


class TestSmallTypes:
    def test_a1_ideals_coincide(self):
        rs = root_system("A", 1)
        W = WeylGroup(rs)
        I = ideal_I(rs)
        J = ideal_J(W, I, 3)
        assert compare(J, I, 5).relation == "equal"

    def test_a1_powers_coincide(self):
        rs = root_system("A", 1)
        W = WeylGroup(rs)
        I = ideal_I(rs)
        J = ideal_J(W, I, 3)
        for k in (1, 2, 3):
            Ik = ideal_power(I, k)
            assert ideal_equal(ideal_power(J, k), Ik)
            assert ideal_equal(Ik, symbolic_power(rs, k))

    def test_a2_equality_and_square(self):
        rs = root_system("A", 2)
        W = WeylGroup(rs)
        I = ideal_I(rs)
        J = ideal_J(W, I, 6)
        assert compare(J, I, 6).relation == "equal"
        assert ideal_equal(ideal_power(I, 2), symbolic_power(rs, 2))

    def test_b2_equality(self):
        rs = root_system("B2")
        W = WeylGroup(rs)
        I = ideal_I(rs)
        c = compare(ideal_J(W, I, 8), I, 8)
        assert c.relation == "equal"
        assert c.certificate is None

    def test_a3_minimal_generators_and_equality(self):
        # oracle: the number of minimal generators in degree d is
        # dim I_d - dim (m*I)_d, m the maximal homogeneous ideal
        rs = root_system("A", 3)
        W = WeylGroup(rs)
        I = ideal_I(rs)
        counts = minimal_generator_counts(I, 6)
        assert {d: c for d, c in counts.items() if c} == {4: 3, 5: 4, 6: 7}
        mI = product_ideal(Ideal(variables(I.nvars)), I)
        assert all(counts[d] == I.graded_dim(d) - mI.graded_dim(d)
                   for d in range(7))
        J = ideal_J(W, I, 6)
        assert degree_counts(J.gens, 6) == counts
        assert compare(J, I, 6).relation == "equal"

    @pytest.mark.parametrize("name, bound", [("A2", 6), ("B2", 6),
                                             ("G2", 6)])
    def test_installed_bases_are_the_generators_bases(self, name, bound):
        # ideal_equal compares reduced bases, so the ones intersect_many
        # and ideal_J install must be those their generators give, and the
        # gens a kernel-built ideal decodes on read must generate its basis
        rs = root_system(name)
        I = ideal_I(rs)
        J = ideal_J(WeylGroup(rs), I, bound)
        for X in (I, J, ideal_power(I, 2)):
            assert X._core() == Ideal(X.gens, nvars=X.nvars)._core()

    def test_kernel_built_ideals_encode_no_polynomial(self, monkeypatch):
        # intersections and powers pass gpolys from ideal to ideal, so once
        # the pair ideals are encoded nothing encodes a Polynomial again
        rs = root_system("B2")
        parts = [pair_ideal_power(rs, k, 1)
                 for k in range(len(rs.positive_roots))]
        for P in parts:
            assert P._gens_g

        def refuse(*args):
            raise AssertionError("a Polynomial was encoded")

        monkeypatch.setattr(groebner, "_to_g", refuse)
        I = intersect_many(parts)
        square = ideal_power(I, 2)
        square._core()
        monkeypatch.undo()
        assert ideal_equal(square, product_ideal(I, I))

    def test_pair_ideal_power_generators(self):
        rs = root_system("B2")
        P2 = pair_ideal_power(rs, 0, 2)
        lx, ly = x_form(rs, 0), y_form(rs, 0)
        assert list(P2.gens) == [lx * lx, lx * ly, ly * ly]

    def test_symbolic_power_contains_ordinary(self):
        rs = root_system("B2")
        I2 = ideal_power(ideal_I(rs), 2)
        S2 = symbolic_power(rs, 2)
        assert all(S2.contains(g) for g in I2.gens)


class TestAlternants:
    def test_dimensions_match_constraint_oracle(self):
        W = WeylGroup(root_system("B2"))
        for a in range(0, 4):
            for b in range(0, 3):
                assert (len(alternant_basis(W, a, b))
                        == alternant_dim_oracle(W, a, b))

    def test_dimensions_match_constraint_oracle_dense(self):
        W = WeylGroup(root_system("G2"))
        for a, b in ((0, 0), (1, 1), (2, 1), (3, 0), (2, 2)):
            assert (len(alternant_basis(W, a, b))
                    == alternant_dim_oracle(W, a, b))

    @pytest.mark.parametrize("name, top", [
        ("A1", 6), ("A2", 6), ("B2", 6), ("B3", 6), ("G2", 6), ("C3", 5)])
    def test_dimensions_match_molien_series(self, name, top):
        W = WeylGroup(root_system(name))
        for (a, b), dim in molien_alternant_dims(W, top).items():
            assert len(alternant_basis(W, a, b)) == dim, (a, b)

    def test_basis_elements_are_alternating(self):
        for name in ("B2", "G2"):
            W = WeylGroup(root_system(name))
            for a, b in ((2, 1), (1, 1), (3, 1)):
                for g in alternant_basis(W, a, b):
                    assert all(W.act(s, g) == -g for s in W.generators)
                    assert bidegree(g) == (a, b)

    def test_basis_is_independent(self):
        W = WeylGroup(root_system("B2"))
        ech = RowEchelon()
        for g in alternant_basis(W, 3, 2):
            assert ech.add(dict(g.terms))

    def test_generators_degree_bound_recorded(self):
        W = WeylGroup(root_system("A", 1))
        J = ideal_J(W, ideal_I(W.root_system), 4)
        assert J.generated_up_to == 4
        assert all(g.total_degree() <= 4 for g in J.gens)

    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3"])
    def test_minimal_generators_match_every_alternant(self, name):
        # reference: the ideal of every alternant through the bound
        bound = 8
        rs = root_system(name)
        W = WeylGroup(rs)
        I = ideal_I(rs)
        every = [g for d in range(bound + 1) for a in range(d + 1)
                 for g in alternant_basis(W, a, d - a)]
        assert all(I.contains(g) for g in every)
        J = ideal_J(W, I, bound)
        # J comes with the reduced basis built along the walk
        assert J._gb is not None
        assert J._gb == Ideal(every)._core()
        assert J._gb == Ideal(J.gens)._core()
        assert degree_counts(J.gens, bound) == minimal_generator_counts(
            J, bound)

    def test_orbit_projection_matches_naive_average(self):
        # the projection averages over the monomial subgroup, which is all
        # of W but for G2, where it is six of the twelve elements
        for name in ("A2", "A3", "B2", "B3", "C3", "D3", "D4", "G2"):
            self._check_orbit_projection(WeylGroup(root_system(name)))

    @staticmethod
    def _check_orbit_projection(W):
        n = W.ambient
        rng = random.Random(2)
        monos = []
        for _ in range(12):
            mono = [rng.randint(0, 3) for _ in range(2 * n)]
            monos.append(tuple(mono))
            # a repeated exponent pair: the signed coefficient cancels to 0
            mono[1], mono[n + 1] = mono[0], mono[n]
            monos.append(tuple(mono))
        # distinct pairs (2p+1, 2p) of odd sum under some odd and even
        # permutations p: their signed coefficient is nonzero in every type
        staircases = [
            tuple(2 * p + 1 for p in perm) + tuple(2 * p for p in perm)
            for perm in itertools.islice(itertools.permutations(range(n)), 6)]
        for mono in monos + staircases:
            single = Polynomial(2 * n, {mono: 1})
            for signed in (False, True):
                rep, coeff = orbit_projection(W, mono, signed)
                avg = Polynomial.zero(2 * n)
                for h in W._monomial:
                    sign = W.sign(h) if signed else 1
                    avg = avg + sign * W.act(h, single)
                avg = avg * QQ(1, len(W._monomial))
                assert avg.terms.get(rep, 0) == coeff, (mono, signed)
                # the representative is the orbit's largest monomial
                assert rep == max(m for h in W._monomial
                                  for m in W.act(h, single).terms)
                pairs = list(zip(mono[:n], mono[n:]))
                if signed and len(set(pairs)) < n:
                    assert coeff == 0
                if signed and mono in staircases:
                    assert coeff

    def test_alternants_check_the_budget_per_candidate(self):
        # a spent budget stops before the first candidate's row
        W = WeylGroup(root_system("B2"))
        assert alternant_basis(W, 2, 2)
        with pytest.raises(BudgetExceeded) as info:
            alternant_basis(W, 2, 2, Budget(max_seconds=0))
        assert info.value.reason == "time limit in alternants"
        assert info.value.basis_size is None

    def test_primitive_part(self):
        x1, x2, y1, y2 = variables(4)
        f = QQ(2, 3) * x1 - QQ(4, 3) * x2
        g = primitive_part(f)
        assert g == x1 - 2 * x2 or g == 2 * x2 - x1
        assert g.terms[g.leading_monomial()] > 0

    def test_primitive_part_matches_the_kernel_encoding(self):
        # the oracle is the kernel's primitive gpoly of f, decoded
        def oracle(f):
            return Polynomial(f.nvars, {
                groebner._unpack(m, f.nvars): c
                for _, m, c in groebner._to_g(f.terms)})

        rng = random.Random(52)
        for _ in range(200):
            f = random_polynomial(rng, 4, 4, 6)
            f = Polynomial(4, {m: c / rng.randint(1, 12) * rng.choice((1, 7))
                               for m, c in f.terms.items()})
            g = primitive_part(f)
            assert g == oracle(f)
            assert all(c.denominator == 1 for c in g.terms.values())
        assert primitive_part(Polynomial.zero(4)) == Polynomial.zero(4)


class TestRestrictionOracle:
    @pytest.mark.parametrize("name, top", [
        ("A2", 6), ("B2", 6), ("G2", 4), ("B3", 6)])
    def test_graded_dims_of_I(self, name, top):
        rs = root_system(name)
        I = ideal_I(rs)
        assert restriction_graded_dims(rs, top) == [
            I.graded_dim(d) for d in range(top + 1)]


class TestAveragedImages:
    def test_delta_identity(self):
        # e(delta * f) = delta * e_-(f) for random f
        for name in ("B2", "G2"):
            rs = root_system(name)
            W = WeylGroup(rs)
            delta = discriminant(rs)
            rng = random.Random(31)
            for _ in range(5):
                f = random_polynomial(rng, 2 * rs.ambient, 3, 4)
                assert W.symmetrize(delta * f) == delta * W.antisymmetrize(f)

    def test_signed_image_of_I_equals_alternant_dimension(self):
        # alternants sit inside I and are fixed by the signed average, so
        # the signed image of I_d is exactly the degree-d alternant space
        rs = root_system("B2")
        W = WeylGroup(rs)
        I = ideal_I(rs)
        for d in range(2, 7):
            expected = sum(len(alternant_basis(W, a, d - a))
                           for a in range(d + 1))
            assert invariant_image_dim(W, I, d, signed=True) == expected

    def test_three_way_delta_images_agree_b2(self):
        rs = root_system("B2")
        W = WeylGroup(rs)
        I = ideal_I(rs)
        J = ideal_J(W, I, 8)
        A = full_ring_ideal(2 * rs.ambient)
        delta = discriminant(rs)
        for k in (2, 3, 4):
            dims = {averaged_multiple_dim(W, delta, X, k) for X in (I, J, A)}
            assert len(dims) == 1

    def test_compressed_rows_match_full_averages_g2(self):
        # reference: the rank of the plain sums over the group, with no
        # orbit compression
        rs = root_system("G2")
        W = WeylGroup(rs)
        I = ideal_I(rs)
        A = full_ring_ideal(6)
        delta = discriminant(rs)
        for X, d in ((I, 3), (I, 4), (A, 2), (A, 3)):
            basis = graded_basis(X, d)
            for signed in (False, True):
                full = RowEchelon()
                for b in basis:
                    full.add(dict(naive_average(W, b, signed).terms))
                assert invariant_image_dim(W, X, d, signed) == full.rank
            full = RowEchelon()
            for b in basis:
                full.add(dict(naive_average(W, delta * b, False).terms))
            assert averaged_multiple_dim(W, delta, X, d) == full.rank

    def test_averaged_images_check_the_budget_per_row(self):
        # the clock runs from the budget's creation, so a spent budget
        # stops at the first row of a nonzero graded piece
        rs = root_system("B2")
        W = WeylGroup(rs)
        I = ideal_I(rs)
        delta = discriminant(rs)
        assert I.graded_dim(4)
        I.budget = Budget(max_seconds=0)
        for dim in (lambda: invariant_image_dim(W, I, 4),
                    lambda: averaged_multiple_dim(W, delta, I, 4)):
            with pytest.raises(BudgetExceeded) as info:
                dim()
            assert info.value.reason == "time limit in averaged images"
            # an image rank is not a basis, so no basis size is reported
            assert info.value.basis_size is None
            assert "basis elements" not in str(info.value)

    def test_full_ring_ideal_basis(self):
        A = full_ring_ideal(4)
        assert A.graded_dim(3) == 20
        table = nf_monomial_table(A, 2)
        assert all(v == {} for v in table.values())


class TestCompare:
    def test_four_relations(self):
        x, y = variables(2)
        A = Ideal([x])
        B = Ideal([x, y])
        C = Ideal([y])
        assert compare(A, A, 3).relation == "equal"
        assert compare(A, B, 3).relation == "left-strictly-contained"
        assert compare(B, A, 3).relation == "right-strictly-contained"
        assert compare(A, C, 3).relation == "incomparable-at-bound"

    def test_certificate_contents(self):
        x, y = variables(2)
        c = compare(Ideal([x]), Ideal([x, y]), 3)
        assert c.certificate == {"degree": 1, "dimLeft": 1, "dimRight": 2}
        assert c.bounds_used["degreeBound"] == 3
        assert c.dims_left == (0, 1, 2, 3)
        assert c.dims_right == (0, 2, 3, 4)

    def test_membership_tests_check_the_budget(self):
        x, y = variables(2)
        spent = Ideal([x], budget=Budget(max_seconds=0))
        with pytest.raises(BudgetExceeded) as info:
            compare(spent, Ideal([x, y]), 2)
        assert info.value.reason == "time limit in comparison"
        assert info.value.basis_size is None

    def test_bounds_recorded(self):
        W = WeylGroup(root_system("A", 1))
        I = ideal_I(W.root_system)
        J = ideal_J(W, I, 2)
        c = compare(J, I, 3)
        assert c.bounds_used["leftGeneratedUpTo"] == 2
        assert c.bounds_used["rightGeneratedUpTo"] is None
        assert c.to_json()["boundsUsed"]["degreeBound"] == 3
