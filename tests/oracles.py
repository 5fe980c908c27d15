"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own elimination code paths:
determinants by permutation expansion, rank by exhaustive minor search,
inverses by the adjugate, reachability by matrix powers of the cover
relation, and number theory by counting. Slow and obviously correct.
`zeta_matrix` is the partner that checks the library's Möbius matrices.
"""

from itertools import combinations, permutations
from math import gcd

from meetjoin.matrix import Matrix
from meetjoin.scalar import ONE, ZERO, Scalar


def naive_det(m: Matrix) -> Scalar:
    """Permutation expansion; factorial time, fine for n <= 8."""
    assert m.rows == m.cols
    n = m.rows
    total = ZERO
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = ONE if sign == 1 else -ONE
        for i in range(n):
            term = term * m[i, perm[i]]
        total = total + term
    return total


def naive_rank(m: Matrix) -> int:
    """Largest size of a square submatrix with nonzero naive_det."""
    for size in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), size):
            for cols in combinations(range(m.cols), size):
                sub = Matrix([[m[i, j] for j in cols] for i in rows])
                if not naive_det(sub).is_zero:
                    return size
    return 0


def naive_inverse(m: Matrix) -> Matrix:
    """Adjugate over determinant."""
    n = m.rows
    det = naive_det(m)
    assert not det.is_zero
    if n == 1:
        return Matrix([[ONE / m[0, 0]]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = Matrix(
                [
                    [m[r, c] for c in range(n) if c != i]
                    for r in range(n)
                    if r != j
                ]
            )
            cof = naive_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            row.append(cof / det)
        rows.append(row)
    return Matrix(rows)


def reachable_pairs(elements, covers) -> set:
    """All (a, b) with a <= b, by iterating the cover relation to a fixpoint."""
    pairs = {(e, e) for e in elements}
    pairs.update(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def zeta_matrix(closure) -> Matrix:
    """Square 0/1 matrix of the order relation on a closure set; the
    library's `mobius_matrix` of the same set must be its inverse."""
    leq = closure.backend.leq
    return Matrix(
        [[ONE if leq(a, b) else ZERO for b in closure.elements] for a in closure.elements]
    )


def gcd_by_scan(a: int, b: int) -> int:
    best = 1
    for d in range(1, min(a, b) + 1):
        if a % d == 0 and b % d == 0:
            best = d
    return best


def lcm_by_scan(a: int, b: int) -> int:
    m = max(a, b)
    while m % a or m % b:
        m += 1
    return m


def totient_by_count(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
