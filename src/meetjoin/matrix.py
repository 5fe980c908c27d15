"""Dense matrices over the exact scalar field.

Determinant, rank, and inverse are computed by exact elimination and act
as the brute-force oracles against which every closed-form result is
checked. Determinants use fraction-free (Bareiss) condensation with row
pivoting; rank and inverse use ordinary exact Gaussian elimination.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionError, SingularError
from .scalar import ONE, ZERO, Scalar, as_scalar


class Matrix:
    """Immutable rectangular grid of Scalars."""

    __slots__ = ("rows", "cols", "entries")

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

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

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

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.transpose().entries
        return Matrix(
            [
                [_dot(row, col) for col in cols]
                for row in self.entries
            ]
        )

    def hadamard(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("hadamard product needs equal dimensions")
        return Matrix(
            [
                [a * b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

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
        """Exact determinant by fraction-free condensation.

        Row swaps (with sign tracking) handle zero pivots; every division
        in the Bareiss step is exact.
        """
        if not self.is_square:
            raise DimensionError("determinant needs a square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
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

    def rank(self) -> int:
        """Exact rank by row echelon reduction."""
        work = [list(row) for row in self.entries]
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if not work[i][c].is_zero), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            lead = work[r][c]
            for i in range(r + 1, self.rows):
                if work[i][c].is_zero:
                    continue
                factor = work[i][c] / lead
                for j in range(c, self.cols):
                    work[i][j] = work[i][j] - factor * work[r][j]
            r += 1
            if r == self.rows:
                break
        return r

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if not self.is_square:
            raise DimensionError("inverse needs a square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
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


def _dot(row, col) -> Scalar:
    # Zero terms are skipped: exact 0 * b is 0, and triangular or 0/1
    # factors are mostly zeros.
    total = ZERO
    for a, b in zip(row, col):
        if a.is_zero or b.is_zero:
            continue
        total = total + a * b
    return total
