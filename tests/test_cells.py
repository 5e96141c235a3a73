from pathlib import Path

from hypothesis import given, strategies as st

from diagonals.cells import (
    a_value,
    beta_numbers,
    bipartitions,
    check_family_class_correspondence,
    corners,
    diagram_label,
    families,
    format_bipartition,
    format_partition,
    format_symbol,
    j_classes,
    j_heart,
    partitions,
    strip_removable,
    symbol_of,
    table_rows,
    tau,
    two_core,
    two_quotient,
)

FIXTURE = Path(__file__).parent / "fixtures" / "cells_table_n3.tsv"


def random_partitions(max_part: int = 7, max_len: int = 7):
    return st.lists(
        st.integers(1, max_part), max_size=max_len
    ).map(lambda parts: tuple(sorted(parts, reverse=True)))


def domino_strip_oracle(p: tuple) -> tuple:
    """Independent route to the 2-core: peel rim dominoes until stuck.

    A domino is two boxes whose removal leaves a partition; by general
    theory the end result does not depend on the removal order, so a
    first-found greedy walk is enough for an oracle.
    """
    rows = list(p)
    while True:
        hit = False
        for r in range(len(rows)):
            below = rows[r + 1] if r + 1 < len(rows) else 0
            # horizontal domino at the end of row r
            if rows[r] - below >= 2:
                rows[r] -= 2
                hit = True
                break
            # vertical domino in rows r, r+1
            if (r + 1 < len(rows) and rows[r] == rows[r + 1] >= 1
                    and (r + 2 >= len(rows) or rows[r + 1] - rows[r + 2] >= 1)):
                rows[r] -= 1
                rows[r + 1] -= 1
                hit = True
                break
        if not hit:
            return tuple(a for a in rows if a)


class TestBasics:
    def test_partition_counts(self):
        assert [len(list(partitions(n))) for n in range(8)] == \
            [1, 1, 2, 3, 5, 7, 11, 15]
        assert len(list(partitions(10))) == 42

    def test_partitions_ascending_and_valid(self):
        for n in range(21):
            parts = list(partitions(n))
            assert parts == sorted(parts), n
            assert len(set(parts)) == len(parts), n
            for p in parts:
                # positive parts, weakly decreasing, summing to n
                assert all(type(a) is int and a > 0 for a in p), p
                assert list(p) == sorted(p, reverse=True) and sum(p) == n

    def test_bipartition_count(self):
        # matches the number of partitions of 2n with trivial 2-core
        for n in range(1, 6):
            bips = list(bipartitions(n))
            trivial = [p for p in partitions(2 * n) if not two_core(p)]
            assert len(bips) == len(trivial)


class TestHeart:
    def test_corners(self):
        assert corners((4, 2, 2, 1)) == [(0, 3), (2, 1), (3, 0)]
        assert corners(()) == []

    def test_single_pass(self):
        # corners of (2,2,1,1) sit at contents 0 and -3; only the even one goes
        assert strip_removable((2, 2, 1, 1)) == (2, 1, 1, 1)

    def test_heart_examples(self):
        assert j_heart((6,)) == (6,)
        assert j_heart((5, 1)) == (4, 1)
        assert j_heart((4, 2)) == (4, 1)
        assert j_heart((3, 1, 1, 1)) == (2, 1, 1, 1)
        assert j_heart((3, 3)) == (3, 3)
        assert j_heart((2, 2, 2)) == (2, 2, 2)
        assert j_heart(()) == ()

    @given(random_partitions())
    def test_heart_is_fixed_point_without_even_corners(self, p):
        h = j_heart(p)
        assert strip_removable(h) == h
        assert all((c - r) % 2 for r, c in corners(h))

    def test_j_classes_n3(self):
        classes = j_classes(3)
        assert sorted(len(cls.members) for cls in classes) == \
            [1, 1, 1, 1, 3, 3]
        for cls in classes:
            assert all(j_heart(p) == cls.heart for p in cls.members)

    def test_j_classes_n1(self):
        assert [cls.members for cls in j_classes(1)] == [((1, 1),), ((2,),)]


class TestLabels:
    def test_examples(self):
        assert diagram_label((6,)) == "010101"
        assert diagram_label((2, 2, 1, 1)) == "1,0,10,01"
        assert diagram_label((2, 2, 2)) == "01,10,01"
        assert diagram_label(()) == ""


class TestAbacus:
    def test_beta_numbers(self):
        assert beta_numbers((2, 2, 1, 1)) == (5, 4, 2, 1)
        assert beta_numbers(()) == (1, 0)
        assert beta_numbers((6,)) == (7, 0)

    def test_quotient_examples(self):
        assert two_quotient((2, 2, 1, 1)) == ((1,), (1, 1))
        assert two_quotient((6,)) == ((3,), ())
        assert two_quotient((1, 1, 1, 1, 1, 1)) == ((), (1, 1, 1))

    def test_core_examples(self):
        assert two_core((3, 2, 1)) == (3, 2, 1)
        assert two_core((4, 2)) == ()
        assert two_core((3, 1)) == ()
        assert two_core((2, 1)) == (2, 1)

    @given(random_partitions())
    def test_display_length_invariance(self, p):
        L = len(p) + (len(p) % 2) + 4
        betas = beta_numbers(p, L)
        odd = sorted(((b - 1) // 2 for b in betas if b % 2), reverse=True)
        even = sorted((b // 2 for b in betas if b % 2 == 0), reverse=True)
        lam = tuple(a for a in
                    (q - (len(odd) - 1 - i) for i, q in enumerate(odd)) if a)
        mu = tuple(a for a in
                   (q - (len(even) - 1 - i) for i, q in enumerate(even)) if a)
        assert (lam, mu) == two_quotient(p)

    @given(random_partitions())
    def test_size_identity(self, p):
        lam, mu = two_quotient(p)
        assert sum(p) == sum(two_core(p)) + 2 * (sum(lam) + sum(mu))

    @given(random_partitions())
    def test_core_against_domino_oracle(self, p):
        assert two_core(p) == domino_strip_oracle(p)

    @given(random_partitions())
    def test_core_is_idempotent(self, p):
        core = two_core(p)
        assert two_core(core) == core
        assert two_quotient(core) == ((), ())


class TestTau:
    def test_roundtrip_small_ranks(self):
        for n in range(1, 9):
            seen = set()
            for bip in bipartitions(n):
                p = tau(*bip)
                assert sum(p) == 2 * n
                assert two_core(p) == ()
                assert two_quotient(p) == bip
                seen.add(p)
            trivial = {q for q in partitions(2 * n) if not two_core(q)}
            assert seen == trivial

    def test_examples(self):
        assert tau((1,), (1, 1)) == (2, 2, 1, 1)
        assert tau((3,), ()) == (6,)
        assert tau((), ()) == ()


class TestSymbols:
    def test_examples(self):
        assert symbol_of(((), (1, 1, 1))) == ((0, 1, 2, 3), (1, 2, 3))
        assert symbol_of(((1, 1, 1), ())) == ((1, 2, 3), (0, 1))
        assert symbol_of(((1,), (1, 1))) == ((0, 1, 3), (1, 2))
        assert symbol_of(((2,), (1,))) == ((0, 3), (1,))
        assert symbol_of(((3,), ())) == ((3,), ())

    def test_shape(self):
        for n in range(5):
            for bip in bipartitions(n):
                top, bottom = symbol_of(bip)
                assert len(top) == len(bottom) + 1
                assert all(top[i] < top[i + 1] for i in range(len(top) - 1))
                assert all(bottom[i] < bottom[i + 1]
                           for i in range(len(bottom) - 1))

    def test_families_b2_b3(self):
        assert sorted(len(v) for v in families(2).values()) == [1, 1, 3]
        assert sorted(len(v) for v in families(3).values()) == \
            [1, 1, 1, 1, 3, 3]

    def test_classes_match_families(self):
        # partitions with the same heart have quotients with the same
        # symbol content, and the grouping is exactly the same
        for n in range(1, 7):
            assert check_family_class_correspondence(n)
            classes = j_classes(n)
            class_sets = {frozenset(two_quotient(p) for p in cls.members)
                          for cls in classes}
            family_sets = {frozenset(v) for v in families(n).values()}
            assert class_sets == family_sets


class TestAValue:
    def test_b2_values(self):
        assert sorted(a_value(b) for b in bipartitions(2)) == [0, 1, 1, 1, 4]

    def test_normalization(self):
        for n in range(7):
            assert a_value(((n,) if n else (), ())) == 0

    def test_constant_on_families(self):
        for n in range(1, 6):
            for members in families(n).values():
                assert len({a_value(b) for b in members}) == 1


class TestTable:
    def test_matches_committed_fixture(self):
        want = [line.split("\t") for line in
                FIXTURE.read_text().strip().splitlines()
                if not line.startswith("#")]
        got = [[format_partition(r["partition"]), r["labels"],
                format_partition(r["heart"]),
                format_bipartition(r["bipartition"]),
                format_symbol(r["symbol"])] for r in table_rows(3)]
        assert got == want

    def test_row_count(self):
        assert [len(table_rows(n)) for n in range(1, 5)] == [2, 5, 10, 20]
