"""Exact scalar arithmetic and parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from meetjoin.errors import ParseError
from meetjoin.scalar import ONE, ZERO, Scalar, as_scalar


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero)


def test_parse_plain_rationals():
    assert Scalar.parse("5") == Scalar(5)
    assert Scalar.parse("-3") == Scalar(-3)
    assert Scalar.parse("1/2") == Scalar(Fraction(1, 2))
    assert Scalar.parse("-7/3") == Scalar(Fraction(-7, 3))


def test_parse_imaginary_forms():
    assert Scalar.parse("i") == Scalar(0, 1)
    assert Scalar.parse("-i") == Scalar(0, -1)
    assert Scalar.parse("2i") == Scalar(0, 2)
    assert Scalar.parse("-5/2i") == Scalar(0, Fraction(-5, 2))
    assert Scalar.parse("1/2-3/4i") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert Scalar.parse("3+i") == Scalar(3, 1)
    assert Scalar.parse("3-i") == Scalar(3, -1)


def test_parse_rejects_garbage():
    for bad in ("", "x", "1.5", "2+", "i2", "1//2", "3 + i", "1/0"):
        with pytest.raises(ParseError):
            Scalar.parse(bad)


@given(scalars)
def test_render_parse_roundtrip(s):
    assert Scalar.parse(str(s)) == s


def test_render_spot_checks():
    assert str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(0, 2)) == "2i"
    assert str(Scalar(5)) == "5"
    assert str(ZERO) == "0"


def test_arithmetic_spot_checks():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert a * b == Scalar(5, 5)
    assert a / b == Scalar(Fraction(1, 10), Fraction(7, 10))
    assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_coercion():
    assert as_scalar(3) == Scalar(3)
    assert as_scalar(Fraction(2, 5)) == Scalar(Fraction(2, 5))
    assert as_scalar("1+i") == Scalar(1, 1)
    s = Scalar(2, 3)
    assert as_scalar(s) is s
    assert Scalar(4) == 4
    assert Scalar(Fraction(1, 3)) == Fraction(1, 3)


@given(scalars, scalars, scalars)
def test_field_axioms_additive(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + ZERO == a
    assert a + (-a) == ZERO


@given(scalars, scalars, scalars)
def test_field_axioms_multiplicative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * ONE == a
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * (ONE / a) == ONE

