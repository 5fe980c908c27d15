"""Row-adjusted meet and join matrices and their closed forms.

The matrix under study has entry (i, j) = f_i(x_i meet x_j), one function
per row (dually with joins). Everything here is driven by the recursion
tables Psi: for each row function, the unique values on the closure set
whose down-set sums (up-set sums in join mode) reconstruct the function.
They give the factorization

    matrix = (incidence . psi_grid) @ incidence^T   (entrywise product)

from which determinant, rank bounds, and the inverse of closed sets
follow without elimination. For a closed set the closure is the subset
itself and the masked grid L = incidence . psi_grid is triangular, so
det is the product of its diagonal and the inverse is mobius @ L^-1
(mobius^T @ L^-1 in join mode). Psi has one route here, the recursion;
the routes that only cross-check it live in `randomcheck`.

The entrywise product is a selection, not arithmetic: the masked grid
keeps Psi where the incidence matrix is 1. The recurrences, Psi and the
substitution for L^-1, walk the closure set's own `walk` and run on the
integer core of `matrix`: values cleared to Gaussian integers (re, im)
over one shared denominator, converted back to Scalars once per entry.
"""

from __future__ import annotations

from math import prod
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    AdmissibilityError,
    DimensionError,
    MissingValueError,
    NotClosedError,
    SingularPsiError,
)
from .matrix import Matrix, _gaussian, _scalar
from .posets import (
    MEET,
    ClosureSet,
    Subset,
    check_mode,
    closure_set,
    incidence_matrix,
    mobius_matrix,
)
from .scalar import ONE, ZERO, Scalar, as_scalar


class FunctionFamily:
    """One value table per row; every lookup outside a table is an error."""

    def __init__(self, tables: Sequence[Mapping]):
        if not tables:
            raise DimensionError("function family needs at least one row")
        self._tables = tuple(
            {element: as_scalar(v) for element, v in table.items()} for table in tables
        )

    @classmethod
    def from_callable(cls, n: int, fn, elements: Sequence) -> "FunctionFamily":
        """Tabulate fn(row_index, element) for rows 1..n over the elements."""
        return cls([{e: fn(i, e) for e in elements} for i in range(n)])

    @property
    def n(self) -> int:
        return len(self._tables)

    def value(self, row: int, element) -> Scalar:
        try:
            return self._tables[row][element]
        except KeyError:
            raise MissingValueError(
                f"f{row + 1} has no value at {element!r}"
            ) from None

    def table(self, row: int) -> dict:
        return dict(self._tables[row])

    def __repr__(self):
        return f"FunctionFamily({self.n} rows)"


class PsiTable:
    """Recursion values for every row of `subset` over a closure set, n x m (not a tuple)."""

    __slots__ = ("subset", "mode", "closure", "grid")

    def __init__(self, subset: Subset, mode: str, closure: ClosureSet, grid: Matrix):
        self.subset, self.mode, self.closure, self.grid = subset, mode, closure, grid

    def __eq__(self, other):
        if not isinstance(other, PsiTable):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self.__slots__))

    def diagonal(self) -> list[Scalar]:
        """Values at the subset's own members, in row order."""
        return [self.grid[i, self.closure.index(x)] for i, x in enumerate(self.subset.members)]

    def masked(self) -> Matrix:
        """The entrywise product of the incidence matrix and the grid: row i
        keeps its values on `closure.cone(x_i)` and is zero elsewhere."""
        rows = []
        for x, row in zip(self.subset.members, self.grid.entries):
            ones = self.closure.cone(x)
            rows.append([v if j in ones else ZERO for j, v in enumerate(row)])
        return Matrix(rows)


class Factorization(NamedTuple):
    """The structure decomposition of a row-adjusted matrix.

    product = masked_psi @ incidence^T holds exactly, and product equals
    the directly built matrix; masked_psi is the entrywise product of
    incidence and psi_grid.
    """

    mode: str
    incidence: Matrix
    psi_grid: Matrix
    masked_psi: Matrix
    product: Matrix


def _resolve_closure(subset: Subset, mode: str, closure: ClosureSet | None) -> ClosureSet:
    if closure is None:
        return closure_set(subset, mode)
    if closure.mode != mode:
        raise ValueError(f"closure set has mode {closure.mode!r}, need {mode!r}")
    closure.validate_for(subset)
    return closure


def _require_family(subset: Subset, family: FunctionFamily):
    if family.n != subset.n:
        raise DimensionError(
            f"family has {family.n} rows but the subset has {subset.n} members"
        )


def psi_table(
    subset: Subset,
    family: FunctionFamily,
    mode: str = MEET,
    closure: ClosureSet | None = None,
) -> PsiTable:
    """Tabulate the recursion values of every row function over the closure.

    Meet mode solves f_i(d_k) = sum of values over elements below d_k by a
    bottom-up pass; join mode is the top-down dual.
    """
    check_mode(mode)
    _require_family(subset, family)
    closure = _resolve_closure(subset, mode, closure)
    return PsiTable(subset, mode, closure, _psi_recursion(family, closure))


def _psi_recursion(family: FunctionFamily, closure: ClosureSet) -> Matrix:
    """Psi grid over the closure: each row's values, cleared to Gaussian
    integers over one denominator, minus the values already solved at the
    related elements."""
    elems = closure.elements
    steps = closure.walk
    # read row by row in walk order, so the first missing value to raise is
    # the one the recursion would reach first
    ints, den = _gaussian([[family.value(i, elems[k]) for k, _ in steps] for i in range(family.n)])
    rows = []
    for read in ints:
        values = [(0, 0)] * len(elems)
        for (k, related), (re, im) in zip(steps, read):
            for v in related:
                vr, vi = values[v]
                re -= vr
                im -= vi
            values[k] = (re, im)
        rows.append([_scalar(re, im, den) for re, im in values])
    return Matrix(rows)


def build_matrix(
    subset: Subset,
    family: FunctionFamily,
    mode: str = MEET,
    column_adjusted: bool = False,
) -> Matrix:
    """The row-adjusted matrix itself: entry (i, j) = f_i(x_i meet/join x_j).

    With column_adjusted=True the transpose is returned, which is the
    column-adjusted matrix of the same data.
    """
    check_mode(mode)
    _require_family(subset, family)
    backend = subset.backend
    rows = []
    for i, xi in enumerate(subset.members):
        row = []
        for xj in subset.members:
            row.append(family.value(i, backend.bound(mode, xi, xj)))
        rows.append(row)
    result = Matrix(rows)
    return result.transpose() if column_adjusted else result


def factorize(
    subset: Subset,
    family: FunctionFamily,
    mode: str = MEET,
    closure: ClosureSet | None = None,
) -> Factorization:
    """Decompose the row-adjusted matrix through any admissible closure set.

    The product is independent of which admissible closure set is used.
    """
    check_mode(mode)
    _require_family(subset, family)
    closure = _resolve_closure(subset, mode, closure)
    incidence = incidence_matrix(subset, closure)
    table = PsiTable(subset, mode, closure, _psi_recursion(family, closure))
    masked = table.masked()
    return Factorization(
        mode=mode,
        incidence=incidence,
        psi_grid=table.grid,
        masked_psi=masked,
        product=masked @ incidence.transpose(),
    )


def closed_psi(subset: Subset, family: FunctionFamily, mode: str = MEET) -> PsiTable:
    """Psi table of a closed set over the set itself (D = S), the input of
    `theorem_det`, `rank_report`, `theta_table` and `theorem_inverse`.

    The subset is its own admissible closure set iff it is closed, so the
    admissibility check `psi_table` makes is the closedness test."""
    try:
        return psi_table(subset, family, mode, ClosureSet.from_subset(subset, mode))
    except AdmissibilityError:
        raise NotClosedError(f"the subset is not {mode} closed") from None


def _closed_diagonal(table: PsiTable) -> list[Scalar]:
    """The diagonal of a table over its own subset, the one kind of table
    whose diagonal is `grid[i, i]` and whose `walk` indices are row indices;
    any other (a larger closure set, the subset in another order) is refused."""
    if table.closure.elements != table.subset.members:
        raise NotClosedError(f"the Psi table is not over the {table.mode} closed subset itself")
    return [table.grid[i, i] for i in range(table.subset.n)]


def theorem_det(table: PsiTable) -> Scalar:
    """Determinant of the matrix of a closed set: product of the diagonal
    recursion values, no elimination involved."""
    return prod(_closed_diagonal(table), start=ONE)


class RankReport(NamedTuple):
    """Rank bounds from the diagonal recursion values.

    k counts the zero diagonal values. For a nonzero matrix, k = 0 forces
    full rank and k > 0 pins the rank between n-k and n-1.
    """

    k: int
    lower: int
    upper: int


def rank_report(table: PsiTable) -> RankReport:
    """Rank trichotomy for a closed set, from its recursion table alone.

    The matrix L @ E^T (E unit-triangular) is zero iff L is; row i of L
    holds Psi at x_i and at the elements the closure's `walk` relates to x_i."""
    diag = _closed_diagonal(table)
    k = sum(1 for v in diag if v.is_zero)
    n = len(diag)
    if k == 0:
        lower = upper = n
    elif k == n and all(
        table.grid[i, u].is_zero for i, related in table.closure.walk for u in related
    ):
        lower = upper = 0
    else:
        lower, upper = n - k, n - 1
    return RankReport(k=k, lower=lower, upper=upper)


def theta_table(table: PsiTable) -> Matrix:
    """Theta = L^-1, the inverse of the triangular masked recursion grid L
    of a closed set.

    The diagonal is the reciprocal of the diagonal recursion values; meet
    mode fills below it, join mode above, the rest is zero. Raises
    SingularPsiError naming the first row whose diagonal value is zero.
    """
    diag = _closed_diagonal(table)
    for i, value in enumerate(diag):
        if value.is_zero:
            raise SingularPsiError(i)

    # L (incidence . psi) is triangular in the walk order, so L @ Theta = I
    # is solved by substitution, one row at a time. Fraction-free over Z[i]:
    # with L = P / D, Theta = D * P^-1, and row k of P^-1 is Y_k / d_k, where
    # d_k is the product of the pivots P[u][u] walked up to and including k.
    # Then Y_k[k] = d_(k-1) and Y_k[j] = -sum of P[k][u] * Y_u[j] * (d_(k-1)
    # / d_u) over the related u; each quotient is an exact division in Z[i].
    # A row Y_u is a dict over the columns it reaches; the others are zero.
    ints, den = table.grid._int_form()
    n = len(diag)
    solved: dict[int, tuple[dict, tuple]] = {}  # k -> (Y_k, d_k)
    prev = (1, 0)
    for k, related in table.closure.walk:
        row = ints[k]
        y = {k: prev}
        for u in related:
            pr, pi = row[u]
            if not (pr or pi):
                continue
            yu, du = solved[u]
            qr, qi = _exact_quotient(prev, du)
            cr, ci = pr * qr - pi * qi, pr * qi + pi * qr
            for j, (ur, ui) in yu.items():
                sr, si = y.get(j, (0, 0))
                y[j] = (sr - cr * ur + ci * ui, si - cr * ui - ci * ur)
        (pr, pi), (dr, di) = row[k], prev
        prev = (dr * pr - di * pi, dr * pi + di * pr)
        solved[k] = (y, prev)
    theta = []
    for k in range(n):
        y, (dr, di) = solved[k]
        # divide D * Y_k by d_k as multiplication by its conjugate, then by its norm
        norm = dr * dr + di * di
        theta.append(
            [
                _scalar(den * (re * dr + im * di), den * (im * dr - re * di), norm)
                for re, im in (y.get(j, (0, 0)) for j in range(n))
            ]
        )
    return Matrix(theta)


def _exact_quotient(a: tuple, b: tuple) -> tuple:
    """a / b for Gaussian integers b != 0 that divide a exactly."""
    (ar, ai), (br, bi) = a, b
    if not bi:
        return ar // br, ai // br
    norm = br * br + bi * bi
    return (ar * br + ai * bi) // norm, (ai * br - ar * bi) // norm


def theorem_inverse(table: PsiTable) -> Matrix:
    """Inverse of the matrix of a closed set via the triangular recursion.

    Exists iff every diagonal recursion value is nonzero; otherwise raises
    SingularPsiError naming the first offending row. The product of the
    Möbius matrix of the subset (its transpose in join mode) and Theta,
    never from elimination.
    """
    theta = theta_table(table)
    mob = mobius_matrix(table.closure)
    return (mob if table.mode == MEET else mob.transpose()) @ theta


def ordinary_rank(subset: Subset, table: Mapping, mode: str = MEET) -> int:
    """Rank of the one-function (ordinary) matrix of a closed set: exactly
    n minus the number of zero diagonal recursion values."""
    return subset.n - rank_report(closed_psi(subset, FunctionFamily([table] * subset.n), mode)).k
