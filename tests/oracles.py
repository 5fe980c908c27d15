"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own elimination code paths:
determinants by permutation expansion, rank by exhaustive minor search,
inverses by the adjugate, products by the triple loop, reachability by
matrix powers of the cover relation, and number theory by counting. Slow
and obviously correct. `zeta_matrix` is the partner that checks the
library's Möbius matrices.

`old_det`, `old_rank` and `old_inverse` are the library's former
elimination kernels, and `old_psi_recursion`, `old_theta_table` and
`old_mobius_matrix` its former recurrences behind the closed forms, all
kept verbatim on `Scalar` arithmetic as the reference for the integer
code that replaced them. `old_walk` is the former solving order of the
recursions, read from `leq`, the reference for the order table a
`ClosureSet` keeps; `masked_by_product` is the entrywise product that
`PsiTable.masked` replaced.
"""

from itertools import combinations, permutations
from math import gcd

from meetjoin.errors import SingularError, SingularPsiError
from meetjoin.matrix import Matrix
from meetjoin.posets import MEET
from meetjoin.rowadjusted import _closed_diagonal
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


def naive_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The triple loop, every term included."""
    assert a.cols == b.rows
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            total = ZERO
            for k in range(a.cols):
                total = total + a[i, k] * b[k, j]
            row.append(total)
        rows.append(row)
    return Matrix(rows)


def old_det(m: Matrix) -> Scalar:
    """Bareiss condensation on Scalars, with row swaps for zero pivots."""
    assert m.rows == m.cols
    n = m.rows
    work = [list(row) for row in m.entries]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if work[k][k].is_zero:
            pivot = next(
                (r for r in range(k + 1, n) if not work[r][k].is_zero), None
            )
            if pivot is None:
                return ZERO
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        pk = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pk - work[i][k] * work[k][j]) / prev
            work[i][k] = ZERO
        prev = pk
    result = work[n - 1][n - 1]
    return -result if sign < 0 else result


def old_rank(m: Matrix) -> int:
    """Row echelon reduction on Scalars."""
    work = [list(row) for row in m.entries]
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if not work[i][c].is_zero), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        for i in range(r + 1, m.rows):
            if work[i][c].is_zero:
                continue
            factor = work[i][c] / lead
            for j in range(c, m.cols):
                work[i][j] = work[i][j] - factor * work[r][j]
        r += 1
        if r == m.rows:
            break
    return r


def old_inverse(m: Matrix) -> Matrix:
    """Gauss-Jordan elimination on Scalars; raises SingularError."""
    assert m.rows == m.cols
    n = m.rows
    work = [list(row) for row in m.entries]
    out = [
        [ONE if i == j else ZERO for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = next((i for i in range(c, n) if not work[i][c].is_zero), None)
        if pivot is None:
            raise SingularError("matrix is singular")
        work[c], work[pivot] = work[pivot], work[c]
        out[c], out[pivot] = out[pivot], out[c]
        lead = work[c][c]
        work[c] = [e / lead for e in work[c]]
        out[c] = [e / lead for e in out[c]]
        for i in range(n):
            if i == c or work[i][c].is_zero:
                continue
            factor = work[i][c]
            work[i] = [a - factor * b for a, b in zip(work[i], work[c])]
            out[i] = [a - factor * b for a, b in zip(out[i], out[c])]
    return Matrix(out)


def old_walk(closure) -> list[tuple[int, list[int]]]:
    """Closure indices in solving order, each with the indices it depends on.

    Meet mode walks bottom-up and pairs each element with those strictly
    below it; join mode walks top-down and pairs it with those strictly
    above. Every related index is walked before the element itself.
    """
    leq = closure.backend.leq
    elems = closure.elements
    m = len(elems)
    if closure.mode == MEET:
        order, precedes = range(m), leq
    else:
        order, precedes = range(m - 1, -1, -1), lambda a, b: leq(b, a)
    walked: list[int] = []
    steps = []
    for k in order:
        steps.append((k, [v for v in walked if precedes(elems[v], elems[k])]))
        walked.append(k)
    return steps


def masked_by_product(incidence: Matrix, grid: Matrix) -> Matrix:
    """The entrywise product incidence . grid, by Scalar multiplication."""
    assert (incidence.rows, incidence.cols) == (grid.rows, grid.cols)
    return Matrix(
        [[a * b for a, b in zip(ra, rb)] for ra, rb in zip(incidence.entries, grid.entries)]
    )


def old_psi_recursion(family, closure) -> Matrix:
    """The Psi recursion on Scalars: each value minus those already solved
    at the related elements, walked bottom-up (top-down in join mode)."""
    elems = closure.elements
    steps = old_walk(closure)
    rows = []
    for i in range(family.n):
        values: list[Scalar] = [ZERO] * len(elems)
        for k, related in steps:
            total = family.value(i, elems[k])
            for v in related:
                total = total - values[v]
            values[k] = total
        rows.append(values)
    return Matrix(rows)


def old_theta_table(table) -> Matrix:
    """Theta = L^-1 by forward substitution on Scalars."""
    diag = _closed_diagonal(table)
    for i, value in enumerate(diag):
        if value.is_zero:
            raise SingularPsiError(i)

    # L (incidence . psi) is triangular in the walk order, so L @ Theta = I
    # is solved by substitution, one row of Theta at a time.
    psi = table.grid
    n = len(diag)
    theta = [[ZERO] * n for _ in range(n)]
    solved: list[int] = []
    for k, related in old_walk(table.closure):
        theta[k][k] = ONE / diag[k]
        for j in solved:
            total = ZERO
            for u in related:
                total = total + psi[k, u] * theta[u][j]
            theta[k][j] = -(total / diag[k])
        solved.append(k)
    return Matrix(theta)


def old_mobius_matrix(closure) -> Matrix:
    """The Möbius recursion on Scalars."""
    backend = closure.backend
    elems = closure.elements
    m = len(elems)
    grid = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        grid[i][i] = ONE
        for j in range(i + 1, m):
            if not backend.leq(elems[i], elems[j]):
                continue
            total = ZERO
            for v in range(i, j):
                if backend.leq(elems[i], elems[v]) and backend.leq(elems[v], elems[j]):
                    total = total + grid[i][v]
            grid[i][j] = -total
    return Matrix(grid)


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
