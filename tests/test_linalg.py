from hypothesis import given
from hypothesis import strategies as st

from diagonals.linalg import (
    RowEchelon,
    identity,
    mat_mul,
    transpose,
)
from diagonals.polyring import QQ

from support import block_diag, rationals


def small_matrices(n):
    return st.lists(
        st.tuples(*(rationals(6, 4) for _ in range(n))),
        min_size=n, max_size=n,
    ).map(tuple)


class TestDense:
    def test_identity_and_mul(self):
        m = ((1, 2), (3, 4))
        assert identity(2) == ((1, 0), (0, 1))
        assert mat_mul(m, identity(2)) == m
        assert mat_mul(m, ((1,), (1,))) == ((3,), (7,))
        # integer matrices multiply to integer matrices
        assert all(type(c) is int for row in mat_mul(m, m) for c in row)
        assert mat_mul(m, ((QQ(1, 2), 0), (0, 1))) == ((QQ(1, 2), 2),
                                                      (QQ(3, 2), 4))

    def test_block_diag(self):
        # the tests' block_diag, which doubles a matrix for the oracle of
        # the doubled-ring substitution
        b = block_diag(((2,),), ((0, 1), (1, 0)))
        assert b == ((2, 0, 0), (0, 0, 1), (0, 1, 0))

    @given(small_matrices(3))
    def test_transpose_involution(self, m):
        assert transpose(transpose(m)) == m


class TestRowEchelon:
    def test_rank_basic(self):
        ech = RowEchelon()
        for row in ({0: QQ(1), 1: QQ(2)}, {0: QQ(2), 1: QQ(4)}, {1: QQ(1)}):
            ech.add(row)
        assert ech.rank == 2

    def test_contains(self):
        ech = RowEchelon()
        ech.add({0: QQ(1), 2: QQ(1)})
        ech.add({1: QQ(1)})
        assert not ech.reduce({0: QQ(3), 1: QQ(-1), 2: QQ(3)})
        assert ech.reduce({2: QQ(1)})

    def test_tuple_keys(self):
        # column labels may be arbitrary comparable hashables
        ech = RowEchelon()
        assert ech.add({(1, 0): QQ(1), (0, 1): QQ(1)})
        assert not ech.add({(1, 0): QQ(2), (0, 1): QQ(2)})
        assert ech.rank == 1

    @given(st.lists(st.dictionaries(st.integers(0, 5), rationals(), max_size=4),
                    max_size=8))
    def test_rank_bounded(self, rows):
        clean = [{k: v for k, v in r.items() if v} for r in rows]
        clean = [r for r in clean if r]
        ech = RowEchelon()
        for row in clean:
            ech.add(row)
        assert 0 <= ech.rank <= min(len(clean), 6)
