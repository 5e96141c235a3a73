"""Partition combinatorics on the two-runner abacus.

Partitions are tuples of weakly decreasing positive integers; the empty
partition is ().  Young diagrams use matrix coordinates internally (row r,
column c, both starting at 0, content c - r) and are printed bottom row
first, the way the diagrams are drawn with the long row at the floor.

The module provides the 2-core / 2-quotient correspondence through beta
numbers, the parity-labelled diagrams, the heart obtained by repeatedly
stripping removable boxes of even content, symbols of bipartitions, the
grouping of bipartitions into families by symbol content, and the
associated a-invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

Partition = tuple


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, ascending in tuple order."""
    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(cap, remaining) + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    # first parts ascend and, by induction, so do the tails: no sort needed
    yield from rec(n, n)


def bipartitions(n: int) -> Iterator[tuple]:
    for k in range(n + 1):
        for lam, mu in product(partitions(k), partitions(n - k)):
            yield (lam, mu)


def row_labels(p: Partition) -> list:
    """Parity of the content, row by row, top row first."""
    return ["".join(str((c - r) % 2) for c in range(width))
            for r, width in enumerate(p)]


def diagram_label(p: Partition) -> str:
    """Rows printed floor first, joined by commas."""
    return ",".join(reversed(row_labels(p)))


def corners(p: Partition) -> list:
    """(row, column) of every removable box."""
    out = []
    for r, width in enumerate(p):
        below = p[r + 1] if r + 1 < len(p) else 0
        if width > below:
            out.append((r, width - 1))
    return out


def strip_removable(p: Partition) -> Partition:
    """One pass: drop every removable box of even content."""
    rows = list(p)
    for r, c in corners(p):
        if (c - r) % 2 == 0:
            rows[r] -= 1
    return tuple(a for a in rows if a)


def j_heart(p: Partition) -> Partition:
    while True:
        q = strip_removable(p)
        if q == p:
            return p
        p = q


@dataclass(frozen=True)
class JClass:
    heart: Partition
    members: tuple


def group_by_heart(parts: Sequence) -> list:
    out: dict = {}
    for p in parts:
        out.setdefault(j_heart(p), []).append(p)
    return [JClass(h, tuple(sorted(v))) for h, v in sorted(out.items())]


def _core_free(n: int, budget=None) -> Iterator[Partition]:
    """Partitions of 2n with trivial 2-core, ascending; a budget, when
    given, is checked once per partition of 2n."""
    for p in partitions(2 * n):
        if budget is not None:
            budget.check("cells")
        if not two_core(p):
            yield p


def j_classes(n: int, budget=None) -> list:
    """Partitions of 2n with trivial 2-core, grouped by heart."""
    return group_by_heart(list(_core_free(n, budget)))


def beta_numbers(p: Partition, length: int | None = None) -> tuple:
    """First-column hook lengths padded to the given display length.

    The default length is the number of parts rounded up to an even
    count; an even count keeps the runner that each part lands on stable
    when the display is extended.
    """
    if length is None:
        length = len(p) + (len(p) % 2)
        length = max(length, 2)
    if length < len(p):
        raise ValueError("display length shorter than the partition")
    padded = tuple(p) + (0,) * (length - len(p))
    return tuple(padded[j] + (length - 1 - j) for j in range(length))


def _from_betas(betas) -> Partition:
    """The partition whose beta numbers, in any order, are betas."""
    betas = sorted(betas, reverse=True)
    L = len(betas)
    parts = (b - (L - 1 - j) for j, b in enumerate(betas))
    return tuple(a for a in parts if a)


def two_quotient(p: Partition) -> tuple:
    """Bipartition (odd runner, even runner) read off the abacus."""
    betas = beta_numbers(p)
    odd = [(b - 1) // 2 for b in betas if b % 2]
    even = [b // 2 for b in betas if b % 2 == 0]
    return (_from_betas(odd), _from_betas(even))


def two_core(p: Partition) -> Partition:
    """Push every bead down its runner, then read the partition back."""
    betas = beta_numbers(p)
    n_odd = sum(1 for b in betas if b % 2)
    n_even = len(betas) - n_odd
    return _from_betas([2 * q + 1 for q in range(n_odd)]
                       + [2 * q for q in range(n_even)])


def tau(lam: Partition, mu: Partition) -> Partition:
    """Partition with trivial 2-core whose quotient is (lam, mu)."""
    h = max(len(lam), len(mu), 1)
    return _from_betas([2 * b + 1 for b in beta_numbers(lam, h)]
                       + [2 * b for b in beta_numbers(mu, h)])


def symbol_of(bip: tuple) -> tuple:
    """Two-row symbol of a bipartition, rows increasing, top one longer.

    The first component, padded with leading zeros when it is not the
    longer one, fills the top row; entry k (from 0) gets k added.
    """
    lam, mu = bip
    top = sorted(lam)
    bottom = sorted(mu)
    if len(lam) <= len(mu):
        top = [0] * (len(mu) + 1 - len(lam)) + top
    else:
        bottom = [0] * (len(lam) - 1 - len(mu)) + bottom
    return (tuple(t + i for i, t in enumerate(top)),
            tuple(b + j for j, b in enumerate(bottom)))


def _pad_symbol(sym: tuple) -> tuple:
    top, bottom = sym
    return ((0,) + tuple(t + 1 for t in top),
            (0,) + tuple(b + 1 for b in bottom))


def symbol_entries(bip: tuple) -> tuple:
    top, bottom = symbol_of(bip)
    return tuple(sorted(top + bottom))


def families(n: int) -> dict:
    """Bipartitions of n grouped by the multiset of symbol entries."""
    out: dict = {}
    for bip in bipartitions(n):
        out.setdefault(symbol_entries(bip), []).append(bip)
    return out


def check_family_class_correspondence(n: int) -> bool:
    """Equal symbol entries if and only if equal heart of the tau image."""
    by_heart: dict = {}
    for bip in bipartitions(n):
        by_heart.setdefault(j_heart(tau(*bip)), set()).add(bip)
    return (set(map(frozenset, families(n).values()))
            == set(map(frozenset, by_heart.values())))


def _raw_a(sym: tuple) -> int:
    entries = sorted(sym[0] + sym[1], reverse=True)
    return sum(i * z for i, z in enumerate(entries))


def a_value(bip: tuple) -> int:
    """a-invariant, normalized to vanish on ((n), ())."""
    n = sum(bip[0]) + sum(bip[1])
    sym = symbol_of(bip)
    ref = symbol_of(((n,) if n else (), ()))
    while len(ref[0]) < len(sym[0]):
        ref = _pad_symbol(ref)
    while len(sym[0]) < len(ref[0]):
        sym = _pad_symbol(sym)
    return _raw_a(sym) - _raw_a(ref)


def format_partition(p: Partition) -> str:
    return ",".join(str(a) for a in p) if p else "-"


def format_bipartition(bip: tuple) -> str:
    return f"({format_partition(bip[0])}|{format_partition(bip[1])})"


def format_symbol(sym: tuple) -> str:
    top, bottom = sym
    return (" ".join(str(t) for t in top) + " / "
            + (" ".join(str(b) for b in bottom) if bottom else "-"))


def table_rows(n: int, budget=None) -> list:
    """One row per partition of 2n with trivial 2-core, ascending.

    Each row records the parity-labelled diagram, the heart, the
    quotient bipartition and its symbol.  A budget, when given, is
    checked once per partition of 2n.
    """
    rows = []
    for p in _core_free(n, budget):
        bip = two_quotient(p)
        rows.append({
            "partition": p,
            "labels": diagram_label(p),
            "heart": j_heart(p),
            "bipartition": bip,
            "symbol": symbol_of(bip),
        })
    return rows
