"""Arithmetic functions, Dirichlet convolution, and gcd-grid determinants."""

import math
from fractions import Fraction

import pytest

from meetjoin.errors import DomainError, MissingValueError
from meetjoin.matrix import Matrix
from meetjoin.numtheory import (
    bege_det,
    bege_matrix,
    dirichlet,
    divisors_of,
    factorize_int,
    make_family,
    mobius_nt,
    totient,
)
from meetjoin.posets import DivisorLattice, Subset
from meetjoin.rowadjusted import closed_psi, theorem_det
from meetjoin.scalar import Scalar

from oracles import naive_det, totient_by_count


def test_factorize_int():
    assert factorize_int(1) == {}
    assert factorize_int(12) == {2: 2, 3: 1}
    assert factorize_int(97) == {97: 1}
    assert factorize_int(360) == {2: 3, 3: 2, 5: 1}
    for bad in (0, -5):
        with pytest.raises(DomainError):
            factorize_int(bad)


def test_mobius_nt():
    values = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 8: 0, 9: 0, 12: 0, 30: -1}
    for n, want in values.items():
        assert mobius_nt(n) == want
    with pytest.raises(DomainError):
        mobius_nt(0)


def test_mobius_nt_sum_over_divisors():
    # sum of mu over the divisors of n is 1 only at n = 1
    for n in range(1, 60):
        total = sum(mobius_nt(d) for d in divisors_of(n))
        assert total == (1 if n == 1 else 0)


def test_divisors_of():
    assert divisors_of(1) == [1]
    assert divisors_of(12) == [1, 2, 3, 4, 6, 12]
    assert divisors_of(49) == [1, 7, 49]
    with pytest.raises(DomainError):
        divisors_of(0)


def test_dirichlet_identity_times_mobius_is_totient():
    for n in range(1, 40):
        value = dirichlet(lambda d: d, mobius_nt, n)
        assert value == Scalar(totient_by_count(n))


def test_dirichlet_accepts_mappings():
    table = {d: d for d in divisors_of(12)}
    assert dirichlet(table, mobius_nt, 12) == Scalar(totient(12))
    with pytest.raises(MissingValueError):
        dirichlet({1: 1}, mobius_nt, 12)
    with pytest.raises(DomainError):
        dirichlet(table, mobius_nt, 0)


def test_totient():
    for n in range(1, 80):
        assert totient(n) == totient_by_count(n)


def test_make_family_id():
    fam = make_family("id", 3, [1, 2, 3])
    assert fam.value(0, 2) == 2
    assert fam.value(2, 3) == 3


def test_make_family_const():
    fam = make_family("const:5/2", 2, ["a", "b"])
    assert fam.value(0, "a") == Scalar(Fraction(5, 2))
    fam = make_family("const:1-i", 1, [4])
    assert fam.value(0, 4) == Scalar(1, -1)


def test_make_family_pow():
    fam = make_family("pow:2", 2, [2, 3])
    assert fam.value(0, 3) == 9
    assert make_family("pow:0", 1, [5]).value(0, 5) == 1


def test_make_family_errors():
    with pytest.raises(DomainError):
        make_family("nope", 1, [1])
    with pytest.raises(DomainError):
        make_family("pow:x", 1, [1])
    with pytest.raises(DomainError):
        make_family("pow:-1", 1, [1])
    with pytest.raises(DomainError):
        make_family("id", 1, ["a"])


def test_bege_matrix_is_gcd_grid():
    fam = make_family("id", 4, [1, 2, 3, 4])
    m = bege_matrix(4, fam)
    for i in range(4):
        for j in range(4):
            assert m[i, j] == math.gcd(i + 1, j + 1)


def test_bege_matrix_varying_rows():
    # row i applies its own function to gcd(i, j)
    tables = [
        {d: d for d in divisors_of(1)},
        {d: d * d for d in divisors_of(2)},
    ]
    from meetjoin.rowadjusted import FunctionFamily

    fam = FunctionFamily(tables)
    m = bege_matrix(2, fam)
    assert m == Matrix([[1, 1], [1, 4]])


def test_smith_determinants():
    fam3 = make_family("id", 3, [1, 2, 3])
    assert bege_det(3, fam3) == Scalar(2)
    fam6 = make_family("id", 6, [1, 2, 3, 4, 5, 6])
    assert bege_det(6, fam6) == Scalar(32)
    phi_product = 1
    for i in range(1, 7):
        phi_product *= totient(i)
    assert phi_product == 32
    assert naive_det(bege_matrix(6, fam6)) == Scalar(32)


def test_bege_det_three_routes_agree():
    for n in range(1, 13):
        fam = make_family("id", n, list(range(1, n + 1)))
        closed = bege_det(n, fam)
        subset = Subset(DivisorLattice(), list(range(1, n + 1)))
        assert closed == theorem_det(closed_psi(subset, fam, "meet"))
        assert closed == bege_matrix(n, fam).det()
        phi_product = 1
        for i in range(1, n + 1):
            phi_product *= totient(i)
        assert closed == Scalar(phi_product)


def test_bege_det_power_family():
    # f(x) = x^2 is multiplicative, so the diagonal recursion values are
    # the Jordan totient J_2 and the determinant is their product
    n = 6
    fam = make_family("pow:2", n, list(range(1, n + 1)))
    subset = Subset(DivisorLattice(), list(range(1, n + 1)))
    assert bege_det(n, fam) == theorem_det(closed_psi(subset, fam, "meet"))
    assert bege_det(n, fam) == bege_matrix(n, fam).det()


@pytest.mark.parametrize("members", [list(range(1, 13)), divisors_of(36)])
def test_psi_on_factor_closed_set_is_convolution(members):
    # when every divisor of a member is itself a member, the meet
    # recursion at j collapses to the Dirichlet convolution (f * mu)(j)
    from meetjoin.posets import MEET, ClosureSet
    from meetjoin.rowadjusted import psi_table

    fam = make_family("pow:2", len(members), members)
    closure = ClosureSet.from_subset(Subset(DivisorLattice(), members), MEET)
    grid = psi_table(Subset(DivisorLattice(), members), fam, MEET, closure).grid
    for i in range(len(members)):
        for k, j in enumerate(members):
            assert grid[i, k] == dirichlet(lambda d: d * d, mobius_nt, j)


def test_mobius_multiplicative_on_coprime_pairs():
    import random

    rng = random.Random(774)
    seen = 0
    while seen < 200:
        a = rng.randrange(1, 1001)
        b = rng.randrange(1, 1001)
        if math.gcd(a, b) != 1:
            continue
        seen += 1
        assert mobius_nt(a * b) == mobius_nt(a) * mobius_nt(b)


def test_bege_det_vanishes_when_first_row_function_kills_one():
    from meetjoin.rowadjusted import FunctionFamily

    tables = [{d: 0 for d in divisors_of(1)}] + [
        {d: d for d in divisors_of(i)} for i in range(2, 5)
    ]
    fam = FunctionFamily(tables)
    assert bege_det(4, fam) == Scalar(0)
    assert bege_matrix(4, fam).det() == Scalar(0)


def test_bege_matrix_constant_family_is_all_ones():
    fam = make_family("const:1", 3, [1, 2, 3])
    m = bege_matrix(3, fam)
    assert m == Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])


def test_dirichlet_point_values():
    assert dirichlet(lambda d: Scalar(7, 1), mobius_nt, 1) == Scalar(7, 1)
    assert dirichlet(lambda d: 1, mobius_nt, 12) == Scalar(0)
