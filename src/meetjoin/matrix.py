"""Dense matrices over the exact scalar field.

Determinant, rank, and inverse are computed by exact elimination and act
as the brute-force oracles against which every closed-form result is
checked. Entries are `Scalar` at the boundary. The four kernels (`det`,
`rank`, `inverse` and `@`) convert each operand once into rows of
Gaussian integers `(re, im)` over one shared denominator, the lcm of all
entry denominators, run on Python ints, and convert back once per output
entry. All three eliminations are fraction-free over Z[i]: determinant
and rank by Bareiss condensation with row pivoting, the inverse by
Gauss-Jordan on [A | D*I]; each division, by the previous pivot, is
exact. The product is (A*B) / (Da*Db) and skips zero terms. The
entrywise `+`, `-` and negation stay on Scalars; no closed form uses them.

A matrix keeps its integer form once made: the first kernel that needs
it fills a private slot, later kernels on the same matrix read it, and
the eliminations work on copies of its rows. The slot lives and dies
with the matrix and takes no part in equality, hashing or pickling.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionError, SingularError
from .scalar import ONE, ZERO, Scalar, as_scalar


class Matrix:
    """Immutable rectangular grid of Scalars."""

    __slots__ = ("rows", "cols", "entries", "_ints")

    def __init__(self, entries: Iterable[Sequence]):
        grid = tuple(
            tuple(e if isinstance(e, Scalar) else as_scalar(e) for e in row)
            for row in entries
        )
        if not grid or not grid[0]:
            raise DimensionError("matrix dimensions must be positive")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise DimensionError("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Matrix, (self.entries,)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def _int_form(self) -> tuple[list, int]:
        """The integer form `_gaussian(self.entries)`, made on first use and
        kept; callers that eliminate in place copy its rows."""
        if self._ints is None:
            object.__setattr__(self, "_ints", _gaussian(self.entries))
        return self._ints

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, da = self._int_form()
        b, db = other._int_form()
        den = da * db
        # the nonzero entries of each row of b, with their column
        terms = [[(j, br, bi) for j, (br, bi) in enumerate(row) if br or bi] for row in b]
        width = other.cols
        out = []
        for row in a:
            sum_re, sum_im = [0] * width, [0] * width
            for (ar, ai), nonzero in zip(row, terms):
                if ar or ai:
                    for j, br, bi in nonzero:
                        sum_re[j] += ar * br - ai * bi
                        sum_im[j] += ar * bi + ai * br
            out.append([_scalar(re, im, den) for re, im in zip(sum_re, sum_im)])
        return Matrix(out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("matrix sum needs equal dimensions")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Matrix([[-e for e in row] for row in self.entries])

    def det(self) -> Scalar:
        """Exact determinant by fraction-free (Bareiss) condensation over Z[i].

        With every entry over the shared denominator D, det = det(ints) / D^n.
        """
        if not self.is_square:
            raise DimensionError("determinant needs a square matrix")
        ints, den = self._int_form()
        rank, sign, (re, im) = _echelon([list(row) for row in ints], self.cols)
        if rank < self.rows:
            return ZERO
        return _scalar(sign * re, sign * im, den**self.rows)

    def rank(self) -> int:
        """Exact rank by fraction-free (Bareiss) row echelon reduction over Z[i]."""
        ints, _ = self._int_form()
        return _echelon([list(row) for row in ints], self.cols)[0]

    def inverse(self) -> "Matrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination over Z[i].

        With A = ints / D, elimination turns [ints | D*I] into [d*I | d*A^-1],
        where d is the last pivot, so A^-1 is the right block divided by d.
        """
        if not self.is_square:
            raise DimensionError("inverse needs a square matrix")
        n = self.rows
        ints, den = self._int_form()
        work = [
            row + [(den, 0) if j == i else (0, 0) for j in range(n)] for i, row in enumerate(ints)
        ]
        prev = (1, 0)
        for c in range(n):
            pivot = next((i for i in range(c, n) if work[i][c] != (0, 0)), None)
            if pivot is None:
                raise SingularError("matrix is singular")
            work[c], work[pivot] = work[pivot], work[c]
            top = work[c]
            for i, row in enumerate(work):
                if i != c:
                    row[c + 1:] = _condense(row[c + 1:], top[c + 1:], top[c], row[c], prev)
            prev = top[c]
        return _over([row[n:] for row in work], 1, prev)

    def __str__(self):
        text = [[str(e) for e in row] for row in self.entries]
        widths = [max(len(text[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for row in text:
            cells = "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            lines.append(f"[ {cells} ]")
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _gaussian(entries) -> tuple[list, int]:
    """Rows of Scalars as rows of Gaussian integers (re, im) over one shared
    denominator, the lcm of every entry's denominators."""
    den = lcm(*(part.denominator for row in entries for e in row for part in (e.real, e.imag)))
    return [
        [
            (
                e.real.numerator * (den // e.real.denominator),
                e.imag.numerator * (den // e.imag.denominator),
            )
            for e in row
        ]
        for row in entries
    ], den


def _scalar(re: int, im: int, den: int) -> Scalar:
    """The Scalar (re + im*i) / den for a nonzero integer den."""
    if not (re or im):
        return ZERO
    return Scalar(Fraction(re, den), Fraction(im, den))


def _over(rows, den: int, d: tuple) -> Matrix:
    """The matrix den * rows / d of Gaussian-integer rows, for a nonzero
    Gaussian integer d: multiplied by its conjugate, divided by its norm."""
    dr, di = d
    norm, cr, ci = dr * dr + di * di, den * dr, den * di
    return Matrix([[_scalar(x * cr + y * ci, y * cr - x * ci, norm) for x, y in row] for row in rows])


def _condense(xs, ys, p, a, q) -> list:
    """[(p*x - a*y) / q for x, y in zip(xs, ys)] over Z[i], the Bareiss step.

    Elimination only divides by a previous pivot q, where each quotient is
    exact (Sylvester's identity), so it is taken as multiplication by the
    conjugate of q and integer division by its norm.
    """
    (pr, pi), (ar, ai), (qr, qi) = p, a, q
    if not (pi or ai):  # real multipliers
        out = [(xr * pr - ar * yr, xi * pr - ar * yi) for (xr, xi), (yr, yi) in zip(xs, ys)]
    else:
        out = [
            (xr * pr - xi * pi - ar * yr + ai * yi, xr * pi + xi * pr - ar * yi - ai * yr)
            for (xr, xi), (yr, yi) in zip(xs, ys)
        ]
    if qi:
        norm = qr * qr + qi * qi
        return [((re * qr + im * qi) // norm, (im * qr - re * qi) // norm) for re, im in out]
    if qr == 1:
        return out
    return [(re // qr, im // qr) for re, im in out]


def _echelon(work: list, cols: int) -> tuple[int, int, tuple]:
    """Fraction-free (Bareiss) row echelon reduction of Gaussian-integer rows,
    in place, pivoting on the first nonzero entry of each column.

    Returns the rank, the sign of the row permutation and the last pivot;
    for nonsingular square rows, sign times that pivot is their determinant.
    """
    rows = len(work)
    rank, sign, prev = 0, 1, (1, 0)
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if work[i][c] != (0, 0)), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        for row in work[rank + 1:]:
            row[c + 1:] = _condense(row[c + 1:], top[c + 1:], top[c], row[c], prev)
        prev = top[c]
        rank += 1
        if rank == rows:
            break
    return rank, sign, prev
