#!/usr/bin/env python3
"""Tabulate gcd-grid determinants three ways for n = 1..N.

For each n the grid has entry gcd(i, j) with 1 <= i, j <= n. The closed
form multiplies the Dirichlet convolutions (id * mu)(i), which equal the
totients, so the determinant is the totient product. The table shows the
convolution route, the diagonal recursion route, and plain elimination
agreeing exactly, plus the running totient product.
"""

import argparse

from meetjoin import DivisorLattice, Subset, closed_psi, theorem_det
from meetjoin.numtheory import bege_det, bege_matrix, make_family, totient


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=12, help="largest grid size")
    args = parser.parse_args()

    print(f"{'n':>3} {'convolution':>14} {'recursion':>14} {'elimination':>14} {'phi product':>14}")
    phi_product = 1
    for n in range(1, args.n + 1):
        fam = make_family("id", n, list(range(1, n + 1)))
        subset = Subset(DivisorLattice(), list(range(1, n + 1)))
        by_convolution = bege_det(n, fam)
        by_recursion = theorem_det(closed_psi(subset, fam, "meet"))
        by_elimination = bege_matrix(n, fam).det()
        phi_product *= totient(n)
        assert by_convolution == by_recursion == by_elimination
        assert by_convolution == phi_product
        print(
            f"{n:>3} {str(by_convolution):>14} {str(by_recursion):>14} "
            f"{str(by_elimination):>14} {phi_product:>14}"
        )


if __name__ == "__main__":
    main()
