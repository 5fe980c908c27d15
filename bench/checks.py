"""Output checks that share no code with the program under test.

Scalars in `--format machine` output are Gaussian rationals written as
`p/q`, `i`, `-3/2i` or `1/2-3i`. They are parsed here into
`(Fraction, Fraction)` pairs, and every identity is checked with this
module's own integer and Fraction arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

Gauss = tuple[Fraction, Fraction]  # (real part, imaginary part)


def parse_gauss(text: str) -> Gauss:
    """Parse one machine-format scalar; raise ValueError on anything else."""
    if not text.endswith("i"):
        return (Fraction(text), Fraction(0))
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut > 0:
        real, coef = body[:cut], body[cut:]
    else:
        real, coef = "0", body
    if coef in ("", "+"):
        imag = Fraction(1)
    elif coef == "-":
        imag = Fraction(-1)
    else:
        imag = Fraction(coef)
    return (Fraction(real), imag)


def parse_machine(text: str) -> dict[str, str]:
    """Split `key=value` lines; a repeated key is a malformed output."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in out:
            raise ValueError(f"malformed machine line {line!r}")
        out[key] = value
    return out


def matrix_rows(fields: dict[str, str], key: str) -> list[list[Gauss]]:
    rows = []
    while f"{key}_row{len(rows) + 1}" in fields:
        rows.append([parse_gauss(t) for t in fields[f"{key}_row{len(rows) + 1}"].split()])
    return rows


def _integral(rows: list[list[Gauss]]) -> tuple[list[list[tuple[int, int]]], int]:
    """Scale a Gaussian-rational matrix to Gaussian integers: (rows, scale)."""
    scale = 1
    for row in rows:
        for re, im in row:
            scale = math.lcm(scale, re.denominator, im.denominator)
    return [[(int(re * scale), int(im * scale)) for re, im in row] for row in rows], scale


def is_inverse_pair(a: list[list[Gauss]], b: list[list[Gauss]]) -> bool:
    """True iff the square matrices satisfy a @ b == identity exactly."""
    n = len(a)
    if n == 0 or any(len(r) != n for r in a) or len(b) != n or any(len(r) != n for r in b):
        return False
    ai, sa = _integral(a)
    bi, sb = _integral(b)
    target = sa * sb
    columns = list(zip(*bi))
    for r in range(n):
        row = ai[r]
        for c in range(n):
            re = im = 0
            for (x, y), (u, v) in zip(row, columns[c]):
                re += x * u - y * v
                im += x * v + y * u
            if im != 0 or re != (target if r == c else 0):
                return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    """The number-theoretic Moebius function."""
    sign = 1
    for p in prime_factors(n):
        n //= p
        if n % p == 0:
            return 0
        sign = -sign
    return sign


def psi_diagonal(members: list[int], mode: str, i: int, row: list[Gauss]) -> Gauss:
    """The diagonal recursion value of row i on a divisor-closed set.

    `row` holds f_i on `members`. In meet mode this is the Moebius-weighted
    sum of f_i over the divisors of x_i, in join mode over the multiples of
    x_i in the set. The determinant is the product of these values; for
    f_i = id on {1..n} each value is Euler's phi(i).
    """
    x = members[i]
    re = im = Fraction(0)
    for d, (value_re, value_im) in zip(members, row):
        if mode == "meet" and x % d == 0:
            sign = mobius(x // d)
        elif mode == "join" and d % x == 0:
            sign = mobius(d // x)
        else:
            continue
        re, im = re + sign * value_re, im + sign * value_im
    return re, im


def closed_set_det(members: list[int], mode: str, rows: list[list[Gauss]]) -> Gauss:
    """det [f_i(x_i meet/join x_j)] of a divisor-closed set: the product of
    the diagonal recursion values."""
    re, im = Fraction(1), Fraction(0)
    for i, row in enumerate(rows):
        d_re, d_im = psi_diagonal(members, mode, i, row)
        re, im = re * d_re - im * d_im, re * d_im + im * d_re
    return re, im


def one_step_closure(members, bound) -> set[int]:
    return {bound(a, b) for a in members for b in members}


def closed_hull(members, bound) -> set[int]:
    current = set(members)
    while True:
        grown = one_step_closure(current, bound)
        if grown == current:
            return current
        current = grown


def is_mobius_of(mobius: list[list[Gauss]], elements: list[int]) -> bool:
    """True iff `mobius` is the inverse of the divisibility zeta matrix."""
    zeta = [
        [(Fraction(1 if b % a == 0 else 0), Fraction(0)) for b in elements] for a in elements
    ]
    return is_inverse_pair(mobius, zeta)
