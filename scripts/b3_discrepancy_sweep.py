#!/usr/bin/env python3
"""Locate and describe the B3 gap between the alternant ideal and the
intersection ideal.

Prints graded dimensions of both ideals degree by degree, the minimal
generator counts, and a primitive generator witnessing the defect.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diagonals.diagideals import compare, ideal_I, ideal_J, primitive_part  # noqa: E402
from diagonals.groebner import (  # noqa: E402
    degree_counts,
    graded_basis,
    minimal_generator_counts,
)
from diagonals.weyl import WeylGroup, root_system  # noqa: E402


def witness(I, J, degree: int):
    """The first element of I's degree-d basis outside J, in primitive form."""
    for b in graded_basis(I, degree):
        if not J.contains(b):
            return primitive_part(b)
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degree-bound", type=int, default=10)
    args = ap.parse_args()

    t0 = time.monotonic()
    rs = root_system("B", 3)
    W = WeylGroup(rs)
    I = ideal_I(rs)
    J = ideal_J(W, I, args.degree_bound)

    cmp = compare(J, I, args.degree_bound)
    print("deg  dim J_d  dim I_d  gap")
    for d, (dj, di) in enumerate(zip(cmp.dims_left, cmp.dims_right)):
        flag = "  <-- defect" if dj != di else ""
        print(f"{d:3d}  {dj:7d}  {di:7d}  {di - dj:3d}{flag}")

    print(f"\nrelation: {cmp.relation}")
    print(f"certificate: {cmp.certificate}")
    counts_j = degree_counts(J.gens, args.degree_bound)
    print(f"minimal generators of J: {counts_j}")
    print(f"minimal generators of I: {minimal_generator_counts(I, args.degree_bound)}")

    if cmp.certificate:
        w = witness(I, J, cmp.certificate["degree"])
        if w is not None:
            print(f"\nwitness ({len(w.terms)} terms, primitive):")
            print(w)

    print(f"\nelapsed: {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
