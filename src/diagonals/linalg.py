"""Small exact linear algebra helpers: dense matrices and a sparse
incremental row-echelon rank tracker.

Matrices are tuples of tuples of ints and rationals; all arithmetic is
exact, and products of integer matrices stay integral.
"""

from __future__ import annotations

from typing import Hashable

from .polyring import ZERO

Matrix = tuple


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


class RowEchelon:
    """Incremental rank of sparse rational rows keyed by hashable columns.

    Rows are dicts column->coefficient.  add() reduces against stored pivots
    and returns True when the row enlarges the span.  Pivot choice is the
    maximal column key, so feeding rows whose keys are monomial-order keys
    keeps the structure triangular in that order.
    """

    def __init__(self):
        self.pivots: dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        row = dict(row)
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            f = row[lead]
            for k, v in piv.items():
                s = row.get(k, ZERO) - f * v
                if s:
                    row[k] = s
                else:
                    row.pop(k, None)
        return row

    def add(self, row: dict) -> bool:
        red = self.reduce(row)
        if not red:
            return False
        lead = max(red)
        lc = red[lead]
        self.pivots[lead] = {k: v / lc for k, v in red.items()}
        return True
