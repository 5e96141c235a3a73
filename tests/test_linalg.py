from hypothesis import given
from hypothesis import strategies as st

from diagonals.linalg import (
    RowEchelon,
    block_diag,
    identity,
    mat,
    mat_mul,
    mat_vec,
    transpose,
)
from diagonals.polyring import QQ

from support import rationals


def small_matrices(n):
    return st.lists(
        st.lists(rationals(6, 4), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(mat)


class TestDense:
    def test_identity_and_mul(self):
        m = mat([[1, 2], [3, 4]])
        assert mat_mul(m, identity(2)) == m
        assert mat_vec(m, (1, 1)) == (QQ(3), QQ(7))

    def test_block_diag(self):
        b = block_diag(mat([[2]]), mat([[0, 1], [1, 0]]))
        assert b == mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]])

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
        assert ech.contains({0: QQ(3), 1: QQ(-1), 2: QQ(3)})
        assert not ech.contains({2: QQ(1)})

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
