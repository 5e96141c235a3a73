import itertools
import random
from pathlib import Path

import pytest

import diagonals
from diagonals import weyl
from diagonals.linalg import identity, mat_mul, transpose
from diagonals.polyring import (
    Polynomial,
    QQ,
    random_polynomial,
    to_string,
)
from diagonals.weyl import RootSystem, WeylGroup, root_system
from support import (
    from_string,
    naive_average,
    sympy_expr,
    sympy_matrix,
    variables,
)


def test_group_orders():
    assert WeylGroup(root_system("A", 1)).order == 2
    assert WeylGroup(root_system("A", 2)).order == 6
    assert WeylGroup(root_system("A", 3)).order == 24
    assert WeylGroup(root_system("B", 2)).order == 8
    assert WeylGroup(root_system("B", 3)).order == 48
    assert WeylGroup(root_system("C", 3)).order == 48
    assert WeylGroup(root_system("D", 3)).order == 24
    assert WeylGroup(root_system("G2")).order == 12


def test_positive_root_counts_and_order():
    b3 = root_system("B3")
    forms = b3.pair_forms()
    assert forms == (
        (1, -1, 0), (1, 0, -1), (0, 1, -1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    )
    g2 = root_system("G2")
    assert g2.pair_forms() == (
        (1, -1, 0), (1, 0, -1), (0, 1, -1),
        (2, -1, -1), (-1, 2, -1), (-1, -1, 2),
    )
    # C singles are long but define the same primitive forms as B
    assert root_system("C3").pair_forms() == forms


def test_session_generator_matrices():
    b3 = root_system("B3")
    gens = [b3.reflection(a) for a in b3.generator_roots]
    assert gens[0] == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert gens[1] == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert gens[2] == ((-1, 0, 0), (0, 1, 0), (0, 0, 1))

    g2 = root_system("G2")
    m1, m2 = (g2.reflection(a) for a in g2.generator_roots)
    assert m1 == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    third = QQ(1, 3)
    assert m2 == tuple(
        tuple(third * c for c in row)
        for row in [[-1, 2, 2], [2, 2, -1], [2, -1, 2]]
    )


def test_reflection_negates_root():
    for name in ("A2", "B3", "G2"):
        rs = root_system(name)
        for alpha in rs.positive_roots:
            s = rs.reflection(alpha)
            column = tuple((a,) for a in alpha)
            assert mat_mul(s, column) == tuple((-a,) for a in alpha)
            assert mat_mul(s, s) == identity(rs.ambient)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2"])
def test_root_data_and_signed_permutations_are_integral(name):
    # roots are int vectors and a reflection's integral entries are ints;
    # only G2 has elements with entries outside ZZ, six of them, in thirds
    W = WeylGroup(root_system(name))
    assert all(type(c) is int for a in W.root_system.positive_roots
               for c in a)
    for s in W.reflections:
        assert all(type(c) is int or c.denominator == 3
                   for row in s for c in row)
    dense = [w for w in W.elements
             if any(c.denominator != 1 for row in w for c in row)]
    assert len(dense) == (6 if name == "G2" else 0)
    if name != "G2":
        assert all(type(c) is int for w in W.elements for row in w
                   for c in row)


def test_coroots_pair_to_two():
    for name in ("B2", "G2", "C3"):
        rs = root_system(name)
        for alpha in rs.positive_roots:
            av = rs.coroot(alpha)
            assert sum(a * b for a, b in zip(alpha, av)) == 2


def test_signs_are_characters():
    W = WeylGroup(root_system("B2"))
    for w in W.elements:
        assert W.signs[w] in (-1, 1)
    for u in W.elements:
        for w in W.elements:
            assert W.signs[mat_mul(u, w)] == W.signs[u] * W.signs[w]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "D4",
                                  "G2"])
def test_elements_are_orthogonal_and_act_by_their_transposes(name):
    # every element is a product of reflections in the standard dot
    # product, so w w^T = 1; the sign the closure records is det w, and the
    # action is x -> w^-1 x, y -> w^T y, with det and w^-1 from sympy
    sympy = pytest.importorskip("sympy")
    W = WeylGroup(root_system(name))
    n = W.ambient
    xs = sympy.symbols(f"x0:{n}")
    ys = sympy.symbols(f"y0:{n}")
    f = random_polynomial(random.Random(17), 2 * n, 3, 4)
    F = sympy_expr(sympy, xs + ys, f)
    for w in W.elements:
        assert mat_mul(w, transpose(w)) == identity(n)
        M = sympy_matrix(sympy, w)
        assert W.signs[w] == M.det()
        X = M.inv() * sympy.Matrix(xs)
        Y = M.T * sympy.Matrix(ys)
        image = F.subs(list(zip(xs + ys, list(X) + list(Y))),
                       simultaneous=True)
        assert (sympy.Poly(sympy_expr(sympy, xs + ys, W.act(w, f)), *xs, *ys)
                == sympy.Poly(image, *xs, *ys))


def test_left_action_law():
    for name in ("B2", "G2"):
        W = WeylGroup(root_system(name))
        n = W.ambient
        rng = random.Random(5)
        f = random_polynomial(rng, 2 * n, 3, 4)
        for u in W.elements[:5]:
            for w in W.elements[5:9]:
                assert W.act(u, W.act(w, f)) == W.act(mat_mul(u, w), f)


def test_action_is_ring_homomorphism():
    W = WeylGroup(root_system("G2"))
    rng = random.Random(11)
    f = random_polynomial(rng, 6, 2, 3)
    g = random_polynomial(rng, 6, 2, 3)
    for w in W.elements:
        assert W.act(w, f * g) == W.act(w, f) * W.act(w, g)
        assert W.act(w, f + g) == W.act(w, f) + W.act(w, g)


def test_doubled_action_on_variables():
    # the swap of coordinates 1,2 must swap x1,x2 and y1,y2
    W = WeylGroup(root_system("A", 2))
    s = W.root_system.reflection(W.root_system.generator_roots[0])
    x1, x2, x3, y1, y2, y3 = variables(6)
    assert W.act(s, x1) == x2
    assert W.act(s, y1) == y2
    assert W.act(s, x3) == x3


def test_dual_action_preserves_pairing():
    # sum x_i y_i is the tautological pairing, invariant for every group
    for name in ("A2", "B3", "G2"):
        W = WeylGroup(root_system(name))
        n = W.ambient
        vs = variables(2 * n)
        pairing = sum((vs[i] * vs[n + i] for i in range(n)),
                      Polynomial.zero(2 * n))
        for w in W.elements:
            assert W.act(w, pairing) == pairing


def test_averages_are_projections():
    for name in ("B2", "G2"):
        W = WeylGroup(root_system(name))
        n = W.ambient
        rng = random.Random(3)
        f = random_polynomial(rng, 2 * n, 3, 4)
        e = W.symmetrize(f)
        em = W.antisymmetrize(f)
        assert W.symmetrize(e) == e
        assert W.antisymmetrize(em) == em
        assert all(W.act(s, e) == e for s in W.generators)
        assert all(W.act(s, em) == -em for s in W.generators)
        # cross projections annihilate
        assert W.symmetrize(em) == Polynomial.zero(2 * n)
        assert W.antisymmetrize(e) == Polynomial.zero(2 * n)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "B3", "C3", "D3", "G2"])
def test_average_matches_naive_sum(name):
    W = WeylGroup(root_system(name))
    n = W.ambient
    # x1^(2n-1) x2^(2n-3) ... xn has distinct odd exponents, so no signed
    # permutation fixes it, and the signed average is not zero
    stair = tuple(2 * (n - i) - 1 for i in range(n)) + (0,) * n
    rng = random.Random(9)
    f = random_polynomial(rng, 2 * n, 3, 4) + Polynomial(2 * n, {stair: 1})
    alt = naive_average(W, f, True)
    assert alt
    assert W.symmetrize(f) == naive_average(W, f, False)
    assert W.antisymmetrize(f) == alt


# (f, e(f), e_-(f)) for G2, whose coset representatives act by dense
# matrices with entries in 1/3 Z.  The averages were recorded from the
# term-by-term rational substitution that the integer block kernel replaced.
G2_AVERAGES = [
    ("x1^2*y2 - 1/2*x3*y1",
     '1/27*x1^2*y1 - 1/27*x1*x2*y1 + 4/27*x2^2*y1 - 1/27*x1*x3*y1 '
     '+ 2/27*x2*x3*y1 + 4/27*x3^2*y1 + 4/27*x1^2*y2 - '
     '1/27*x1*x2*y2 + 1/27*x2^2*y2 + 2/27*x1*x3*y2 - 1/27*x2*x3*y2 '
     '+ 4/27*x3^2*y2 + 4/27*x1^2*y3 + 2/27*x1*x2*y3 + 4/27*x2^2*y3 '
     '- 1/27*x1*x3*y3 - 1/27*x2*x3*y3 + 1/27*x3^2*y3 - 1/12*x2*y1 '
     '- 1/12*x3*y1 - 1/12*x1*y2 - 1/12*x3*y2 - 1/12*x1*y3 - '
     '1/12*x2*y3',
     '-1/9*x1*x2*y1 - 1/9*x2^2*y1 + 1/9*x1*x3*y1 + 1/9*x3^2*y1 + '
     '1/9*x1^2*y2 + 1/9*x1*x2*y2 - 1/9*x2*x3*y2 - 1/9*x3^2*y2 - '
     '1/9*x1^2*y3 + 1/9*x2^2*y3 - 1/9*x1*x3*y3 + 1/9*x2*x3*y3 + '
     '1/12*x2*y1 - 1/12*x3*y1 - 1/12*x1*y2 + 1/12*x3*y2 + '
     '1/12*x1*y3 - 1/12*x2*y3'),
    ("x1*x2^2 + 3/7*y1*y3",
     '1/27*x1^3 + 1/9*x1^2*x2 + 1/9*x1*x2^2 + 1/27*x2^3 + '
     '1/9*x1^2*x3 + 2/9*x1*x2*x3 + 1/9*x2^2*x3 + 1/9*x1*x3^2 + '
     '1/9*x2*x3^2 + 1/27*x3^3 + 1/7*y1*y2 + 1/7*y1*y3 + 1/7*y2*y3',
     '0'),
]


@pytest.mark.parametrize("text, sym, alt", G2_AVERAGES)
def test_g2_averages_match_recorded_values(text, sym, alt):
    W = WeylGroup(root_system("G2"))
    f = from_string(text, 6)
    assert to_string(W.symmetrize(f)) == sym
    assert to_string(W.antisymmetrize(f)) == alt


def test_g2_coset_structure():
    W = WeylGroup(root_system("G2"))
    assert len(W._monomial) == 6
    assert len(W._coset_inverses) == 2
    B = WeylGroup(root_system("B3"))
    assert len(B._monomial) == B.order
    assert len(B._coset_inverses) == 1


def test_averaging_state_stays_in_weyl():
    # averaging over the group is weyl.py's job: no other module of the
    # package reads the coset and orbit state it keeps
    private = ("_monomial_action", "_coset_inverses", "_projection_pairs",
               "projection_memo", "_rep_coefficients")
    package = Path(diagonals.__file__).parent
    readers = {p.name: [n for n in private if n in p.read_text()]
               for p in package.glob("*.py")}
    assert readers.pop("weyl.py") == list(private)
    assert {name: found for name, found in readers.items() if found} == {}


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "B3", "C3", "D3", "G2"])
def test_monomial_cosets_partition_the_group(name):
    # W is the disjoint union of the cosets H*r^-1 that group averaging
    # splits into (H the monomial subgroup, r the coset representatives)
    W = WeylGroup(root_system(name))
    products = [mat_mul(h, rinv) for h in W._monomial
                for rinv in W._coset_inverses]
    assert sorted(products) == sorted(W.elements)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3",
                                  "D2", "D3", "D4", "G2"])
def test_monomial_subgroup_holds_every_coordinate_permutation(name):
    # orbit_projection sorts exponent pairs by a coordinate permutation
    W = WeylGroup(root_system(name))
    eye = identity(W.ambient)
    members = set(W._monomial)
    assert all(tuple(eye[i] for i in perm) in members
               for perm in itertools.permutations(range(W.ambient)))


def test_group_without_coordinate_transpositions_is_refused(monkeypatch):
    # the sign changes of B2 alone close to an order-4 group with no
    # permutation matrix
    rs = root_system("B2")
    flips = RootSystem("B", 2, 2, rs.positive_roots[2:], rs.positive_roots[2:])
    monkeypatch.setitem(weyl.EXPECTED_ORDER, "B", lambda r: 4)
    with pytest.raises(RuntimeError, match="transposition of coordinates"):
        WeylGroup(flips)


def test_family_parsing():
    assert root_system("b", 3).name == "B3"
    assert root_system("G2").name == "G2"
    with pytest.raises(ValueError):
        root_system("E", 8)
    with pytest.raises(ValueError):
        root_system("G", 3)
    with pytest.raises(ValueError):
        root_system("B3", 2)
