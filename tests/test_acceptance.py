"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS/FAIL line so a `-v -s` run doubles as a
verification report.  Expected numbers that are not forced by symmetry
alone (graded dimensions, generator counts) were frozen from oracle runs
recorded in the unit-test suite; they are asserted exactly, never within
a tolerance, because every computation here is over QQ.
"""

import random
import time

import pytest

from diagonals.cells import (
    check_family_class_correspondence,
    j_classes,
)
from diagonals.cli import _table_text
from diagonals.diagideals import (
    averaged_multiple_dim,
    compare,
    discriminant,
    full_ring_ideal,
    ideal_I,
    ideal_J,
    invariant_image_dim,
    symbolic_power,
)
from diagonals.dunkl import (
    DunklOperator,
    commutation_rhs,
    multiplication_commutator,
)
from diagonals.groebner import (
    Ideal,
    ideal_equal,
    ideal_intersect,
    ideal_power,
    minimal_generator_counts,
)
from diagonals.polyring import (
    ONE,
    QQ,
    Polynomial,
    _extend,
    monomials_of_degree,
    partial_derivative,
    random_polynomial,
)
from diagonals.weyl import WeylGroup, root_system

from support import (
    span_graded_dim,
    span_membership,
)

BOUND = 10
C_VALUES = (QQ(0), QQ(1, 2), QQ(1), QQ(3, 7))


def _report(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _build(family: str, rank: int, bound: int = BOUND):
    rs = root_system(family, rank)
    W = WeylGroup(rs)
    I = ideal_I(rs)
    return rs, W, I, ideal_J(W, I, bound)


@pytest.fixture(scope="session")
def g2_setup():
    return _build("G", 2)


@pytest.fixture(scope="session")
def b2_setup():
    return _build("B", 2)


@pytest.fixture(scope="session")
def b3_setup():
    return _build("B", 3)


def test_01_g2_pairwise_and_alternant_ideals_coincide(g2_setup):
    start = time.monotonic()
    rs, W, I, J = g2_setup
    cmp = compare(J, I, BOUND)
    dims = [I.graded_dim(d) for d in range(BOUND + 1)]
    ok = (
        cmp.relation == "equal"
        and cmp.certificate is None
        and dims == [0, 0, 1, 6, 21, 56, 133, 282, 542, 962, 1602]
        and time.monotonic() - start < 600
    )
    _report("G2: alternant ideal equals intersection ideal through degree 10", ok)


def test_02_b3_alternant_ideal_strictly_smaller(b3_setup):
    start = time.monotonic()
    rs, W, I, J = b3_setup
    cmp = compare(J, I, BOUND)
    dims_i = [I.graded_dim(d) for d in range(BOUND + 1)]
    dims_j = [J.graded_dim(d) for d in range(BOUND + 1)]
    gap_degrees = [d for d in range(BOUND + 1) if dims_i[d] != dims_j[d]]
    mg_i = minimal_generator_counts(I, BOUND)
    mg_j = minimal_generator_counts(J, BOUND)
    ok = (
        cmp.relation == "left-strictly-contained"
        and cmp.certificate == {"degree": 6, "dimLeft": 24, "dimRight": 25}
        and gap_degrees == [6]
        and dims_i[6] - dims_j[6] == 1
        and sum(mg_i.values()) - sum(mg_j.values()) == 1
        and {d: mg_i[d] - mg_j.get(d, 0) for d in mg_i if mg_i[d] != mg_j.get(d, 0)}
        == {6: 1}
        and time.monotonic() - start < 1800
    )
    _report("B3: alternant ideal strictly inside, gap is one dimension at degree 6", ok)


def test_03_b3_invariant_images_agree(b3_setup):
    rs, W, I, J = b3_setup
    dims_i = [invariant_image_dim(W, I, d) for d in range(BOUND + 1)]
    dims_j = [invariant_image_dim(W, J, d) for d in range(BOUND + 1)]
    ok = dims_i == dims_j == [0] * 10 + [10]
    _report("B3: symmetrized images of both ideals agree in every degree <= 10", ok)


def test_04_discriminant_multiple_images_coincide(b2_setup, g2_setup):
    expected = {"B2": [0, 0, 1, 0, 8, 0, 18], "G2": [0, 0, 1, 2, 6]}
    ok = True
    for name, setup in (("B2", b2_setup), ("G2", g2_setup)):
        rs, W, I, J = setup
        delta = discriminant(rs)
        deg = delta.total_degree()
        full = full_ring_ideal(2 * rs.ambient)
        rows = []
        for out_deg in range(deg, BOUND + 1):
            k = out_deg - deg
            vals = {
                averaged_multiple_dim(W, delta, X, k) for X in (I, J, full)
            }
            if len(vals) != 1:
                ok = False
            rows.append(vals.pop())
        if rows != expected[name]:
            ok = False
    _report("B2+G2: discriminant-multiple images agree across I, J, full ring", ok)


def test_05_type_a_ideals_match_and_a2_square_is_symbolic():
    start = time.monotonic()
    ok = True
    for rank, bound in ((1, 6), (2, 8)):
        rs, W, I, J = _build("A", rank, bound)
        if compare(J, I, bound).relation != "equal":
            ok = False
        if rank == 2:
            ok = ok and ideal_equal(ideal_power(I, 2), symbolic_power(rs, 2))
    ok = ok and time.monotonic() - start < 300
    _report("A1+A2: ideals coincide and the A2 square equals the symbolic square", ok)


def test_06_a1_powers_collapse():
    rs = root_system("A", 1)
    W = WeylGroup(rs)
    I = ideal_I(rs)
    J = ideal_J(W, I, 6)
    ok = True
    for k in (1, 2, 3):
        pk = ideal_power(I, k)
        ok = ok and ideal_equal(ideal_power(J, k), pk)
        ok = ok and ideal_equal(pk, symbolic_power(rs, k))
    _report("A1: ordinary powers of I and J equal symbolic powers for k = 1, 2, 3", ok)


def test_07_dunkl_operators_commute_and_satisfy_relation():
    types = (("A", 2), ("B", 2), ("G", 2))
    per_cell = 9
    comm_count = 0
    rel_count = 0
    ok = True
    for family, rank in types:
        rs = root_system(family, rank)
        W = WeylGroup(rs)
        n = rs.ambient
        for c in C_VALUES:
            ops = [DunklOperator(W, c, tuple(int(i == j) for j in range(n)))
                   for i in range(n)]
            rng = random.Random(f"acceptance:{family}{rank}:{c}")
            for _ in range(per_cell):
                f = _extend(random_polynomial(rng, n, 3, 4), n)
                images = [op(f) for op in ops]
                for i in range(n):
                    for j in range(i + 1, n):
                        if ops[i](images[j]) != ops[j](images[i]):
                            ok = False
                comm_count += 1
                v = tuple(QQ(rng.randint(-3, 3)) for _ in range(n))
                xi = tuple(QQ(rng.randint(-3, 3)) for _ in range(n))
                op = DunklOperator(W, c, v)
                lhs = multiplication_commutator(op, xi, f)
                if lhs != commutation_rhs(W, c, v, xi, f):
                    ok = False
                rel_count += 1
                if not c:
                    for i, op_i in enumerate(ops):
                        e = tuple(ONE if k == i else QQ(0) for k in range(n))
                        if op_i(f) != partial_derivative(f, e + (QQ(0),) * n):
                            ok = False
    ok = ok and comm_count >= 100 and rel_count >= 100
    _report(
        "A2+B2+G2: Dunkl commutativity and bracket relation on "
        f"{comm_count}+{rel_count} seeded samples, c in {{0, 1/2, 1, 3/7}}",
        ok,
    )


def test_08_cell_table_and_class_family_match():
    start = time.monotonic()
    with open("tests/fixtures/cells_table_n3.tsv", encoding="utf-8") as fh:
        frozen = fh.read()
    ok = _table_text(3) + "\n" == frozen  # emitted output ends with newline
    sizes = sorted(len(cls.members) for cls in j_classes(3))
    ok = ok and sizes == [1, 1, 1, 1, 3, 3]
    for n in range(1, 7):
        ok = ok and check_family_class_correspondence(n)
    ok = ok and time.monotonic() - start < 60
    _report("cells: n=3 table matches frozen copy; classes = families for n <= 6", ok)


def _random_homogeneous(rng: random.Random, nvars: int, degree: int,
                        max_terms: int) -> Polynomial:
    monos = list(monomials_of_degree(nvars, degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-5, 5)
        if c:
            terms[rng.choice(monos)] = QQ(c)
    return Polynomial(nvars, terms)


def _random_gens(rng: random.Random, nvars: int, max_deg: int) -> list:
    gens = []
    while len(gens) < 2:
        g = _random_homogeneous(rng, nvars, rng.randint(1, max_deg), 3)
        if g:
            gens.append(g)
    return gens


def test_09_kernel_agrees_with_linear_algebra_oracle():
    rng = random.Random("kernel-vs-oracle")
    instances = 0
    ok = True
    for i in range(100):
        nvars = rng.randint(2, 4)
        gens = _random_gens(rng, nvars, 3)
        I = Ideal(gens)
        if i % 2 == 0:
            # guaranteed member: random combination of the generators
            f = Polynomial.zero(nvars)
            for g in gens:
                mult = _random_homogeneous(rng, nvars, rng.randint(0, 2), 2)
                f = f + mult * g
        else:
            f = _random_homogeneous(rng, nvars, rng.randint(1, 5), 3)
        if f and f.total_degree() <= 5:
            if I.contains(f) != span_membership(f, list(gens)):
                ok = False
        instances += 1
    for _ in range(50):
        nvars = rng.randint(2, 4)
        gens = _random_gens(rng, nvars, 3)
        d = rng.randint(0, 5)
        if Ideal(gens).graded_dim(d) != span_graded_dim(gens, d):
            ok = False
        instances += 1
    for j in range(50):
        nvars = rng.randint(2, 3)
        g1 = _random_gens(rng, nvars, 2)
        g2 = _random_gens(rng, nvars, 2)
        K = ideal_intersect(Ideal(g1), Ideal(g2))
        for g in K.groebner_basis()[:3]:
            if not (span_membership(g, g1) and span_membership(g, g2)):
                ok = False
        if j % 2 == 0:
            h = g1[0] * g2[0]  # lies in both ideals by construction
        else:
            h = _random_homogeneous(rng, nvars, rng.randint(1, 4), 3)
        if h and h.total_degree() <= 5:
            expect = span_membership(h, g1) and span_membership(h, g2)
            if K.contains(h) != expect:
                ok = False
        instances += 1
    ok = ok and instances == 200
    _report("kernel vs dense-span oracle on 200 seeded instances", ok)


def test_10_degree_two_symbolic_powers_are_decided(b2_setup, g2_setup):
    # Derived finding, frozen once computed: in both cases the ordinary
    # square already fills the symbolic square.
    verdicts = {}
    for name, setup in (("B2", b2_setup), ("G2", g2_setup)):
        rs, W, I, J = setup
        verdicts[name] = ideal_equal(ideal_power(I, 2), symbolic_power(rs, 2))
    ok = verdicts == {"B2": True, "G2": True}
    _report(f"B2+G2: square vs symbolic square decided, verdicts {verdicts}", ok)
