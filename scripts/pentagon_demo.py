#!/usr/bin/env python3
"""Walk through the pentagon lattice example end to end.

Builds the five-element non-modular lattice, attaches the 0/1 row
functions that make every diagonal recursion value except one vanish,
and prints the matrix, the factorization pieces, and the rank bounds.
This is the boundary case where the rank upper bound n-1 is attained.
"""

import argparse

from meetjoin import (
    MEET,
    ClosureSet,
    FinitePoset,
    FunctionFamily,
    Subset,
    build_matrix,
    closed_psi,
    factorize,
    rank_report,
    theorem_det,
)
from meetjoin.scalar import ONE, ZERO


def pentagon():
    backend = FinitePoset(
        [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")],
        elements=["x1", "x2", "x3", "x4", "x5"],
    )
    subset = Subset(backend, ["x1", "x2", "x3", "x4", "x5"])
    ones = {
        (1, "x2"), (2, "x1"), (2, "x3"), (3, "x3"), (3, "x4"), (4, "x4"), (4, "x5"),
    }
    family = FunctionFamily(
        [
            {x: (ONE if (i, x) in ones else ZERO) for x in subset.members}
            for i in range(5)
        ]
    )
    return subset, family


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("meet", "join"), default=MEET)
    args = parser.parse_args()

    subset, family = pentagon()
    matrix = build_matrix(subset, family, args.mode)
    print(f"{args.mode} matrix over {' '.join(subset.members)}:")
    print(matrix)
    print()

    fact = factorize(subset, family, args.mode, ClosureSet.from_subset(subset, args.mode))
    print("incidence matrix:")
    print(fact.incidence)
    print()
    print("recursion grid:")
    print(fact.psi_grid)
    print()
    assert fact.product == matrix

    table = closed_psi(subset, family, args.mode)
    rr = rank_report(table)
    print(f"zero diagonal recursion values: k = {rr.k}")
    print(f"rank bounds [{rr.lower}, {rr.upper}], exact rank {matrix.rank()}")
    print(f"determinant: {theorem_det(table)}")


if __name__ == "__main__":
    main()
