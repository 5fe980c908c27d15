"""Arithmetic-function utilities for the divisor-lattice specializations.

Everything is exact integer or rational arithmetic; sizes stay small
(inputs are matrix orders, not cryptographic), so trial division is the
right tool.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, MissingValueError
from .matrix import Matrix
from .rowadjusted import FunctionFamily, build_matrix
from .posets import DivisorLattice, Subset
from .scalar import ONE, ZERO, Scalar, as_scalar


def _require_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"expected a positive integer, got {n!r}")


def factorize_int(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent} by trial division."""
    _require_positive(n)
    out: dict[int, int] = {}
    rest = n
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def mobius_nt(n: int) -> int:
    """The number-theoretic Möbius function: 0 on non-squarefree n, else
    (-1)^(number of prime factors)."""
    exponents = factorize_int(n)
    if any(e > 1 for e in exponents.values()):
        return 0
    return -1 if len(exponents) % 2 else 1


def divisors_of(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    _require_positive(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _lookup(f, d: int) -> Scalar:
    if callable(f):
        return as_scalar(f(d))
    try:
        return as_scalar(f[d])
    except KeyError:
        raise MissingValueError(f"no value at {d}") from None


def dirichlet(f, g, n: int) -> Scalar:
    """Dirichlet convolution (f * g)(n) = sum over d | n of f(d) g(n/d).

    f and g may be callables or mappings; a mapping missing a needed
    divisor is an error, not a zero.
    """
    _require_positive(n)
    total = ZERO
    for d in divisors_of(n):
        total = total + _lookup(f, d) * _lookup(g, n // d)
    return total


def make_family(spec: str, n: int, elements: Sequence) -> FunctionFamily:
    """Build the n-row family named by a compact spec string.

    "id" is f_i(x) = x, "const:<c>" is constant c in every row, and
    "pow:<r>" is f_i(x) = x^r (r a nonnegative integer). Elements must be
    integers for "id" and "pow".
    """
    if spec == "id":
        fn: Callable = lambda i, x: x
    elif spec.startswith("const:"):
        c = as_scalar(spec[len("const:"):])
        fn = lambda i, x: c
    elif spec.startswith("pow:"):
        raw = spec[len("pow:"):]
        try:
            r = int(raw)
        except ValueError:
            raise DomainError(f"pow exponent must be an integer, got {raw!r}") from None
        if r < 0:
            raise DomainError(f"pow exponent must be nonnegative, got {r}")
        fn = lambda i, x: Scalar(Fraction(x) ** r)
    else:
        raise DomainError(f"unknown family spec {spec!r}")
    if spec == "id" or spec.startswith("pow:"):
        for x in elements:
            if not isinstance(x, int):
                raise DomainError(f"family {spec!r} needs integer elements, got {x!r}")
    if spec.startswith("pow:"):
        # x^r has floor(r*log10 x) + 1 digits: refuse what could not be printed
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        top = max((abs(x) for x in elements), default=0)
        if limit and top > 1 and r * math.log10(top) >= limit:
            raise DomainError(f"{spec!r} gives {top}^{r}, more than {limit} digits")
    return FunctionFamily.from_callable(n, fn, elements)


def bege_matrix(n: int, family: FunctionFamily) -> Matrix:
    """The n x n matrix with entry (i, j) = f_i(gcd(i, j)), indices 1-based.

    This is the row-adjusted meet matrix of {1, ..., n} in the divisor
    lattice; {1, ..., n} is gcd closed, so the closed-set theorems apply.
    """
    _require_positive(n)
    subset = Subset(DivisorLattice(), list(range(1, n + 1)))
    return build_matrix(subset, family, "meet")


def bege_det(n: int, family: FunctionFamily) -> Scalar:
    """det of bege_matrix by the closed form: the product over i of the
    Dirichlet convolution (f_i * mobius)(i)."""
    _require_positive(n)
    result = ONE
    for i in range(1, n + 1):
        needed = divisors_of(i)
        table = {d: family.value(i - 1, d) for d in needed}
        result = result * dirichlet(table, mobius_nt, i)
    return result


def totient(n: int) -> int:
    """Euler's totient from the prime factorization."""
    _require_positive(n)
    result = n
    for p in factorize_int(n):
        result = result // p * (p - 1)
    return result
