"""Exact Gaussian-rational scalars, the ground field of every matrix here.

A value is an immutable pair of `fractions.Fraction` (real and imaginary
part) in two slots. Fractions keep themselves reduced with positive
denominators, so equality is bit-exact and no tolerance parameter exists.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import DomainError, ParseError

_RAT = r"[+-]?\d+(?:/\d+)?"
_COMPLEX_RE = re.compile(rf"(?P<re>{_RAT})(?P<im>[+-](?:\d+(?:/\d+)?)?)i")
_IMAG_RE = re.compile(rf"(?P<im>[+-]?(?:\d+(?:/\d+)?)?)i")
_REAL_RE = re.compile(_RAT)


class Scalar:
    """An element of Q(i), canonical by construction and immutable."""

    __slots__ = ("real", "imag")

    def __init__(self, real=Fraction(0), imag=Fraction(0)):
        object.__setattr__(self, "real", real if isinstance(real, Fraction) else Fraction(real))
        object.__setattr__(self, "imag", imag if isinstance(imag, Fraction) else Fraction(imag))

    def __setattr__(self, *args):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Scalar, (self.real, self.imag)

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse `p/q`, integer, pure-imaginary, or `p/q+r/si` syntax."""
        token = text.strip()
        try:
            m = _COMPLEX_RE.fullmatch(token)
            if m:
                return cls(Fraction(m.group("re")), _imag_part(m.group("im")))
            m = _IMAG_RE.fullmatch(token)
            if m:
                return cls(Fraction(0), _imag_part(m.group("im")))
            m = _REAL_RE.fullmatch(token)
            if m:
                return cls(Fraction(token))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in scalar: {text!r}") from None
        except ValueError:  # past the int-to-str digit limit
            raise ParseError(f"scalar of {len(token)} characters has too many digits") from None
        raise ParseError(f"not a scalar: {text!r}")

    @property
    def is_zero(self) -> bool:
        return not self.real and not self.imag

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.real * other.real + other.imag * other.imag
        if not norm:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(
            (self.real * other.real + self.imag * other.imag) / norm,
            (self.imag * other.real - self.real * other.imag) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Scalar(-self.real, -self.imag)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag))

    def __str__(self):
        try:
            if not self.imag:
                return str(self.real)
            if self.imag == 1:
                imag = "i"
            elif self.imag == -1:
                imag = "-i"
            else:
                imag = f"{self.imag}i"
            if not self.real:
                return imag
            sign = "+" if self.imag > 0 else ""
            return f"{self.real}{sign}{imag}"
        except ValueError:  # past the int-to-str digit limit
            raise DomainError(f"value has more than {sys.get_int_max_str_digits()} digits") from None

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar()
ONE = Scalar(1)


def _imag_part(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return Fraction(text)


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions, and scalar syntax strings to Scalar."""
    if isinstance(value, str):
        return Scalar.parse(value)
    scalar = _coerce(value)
    if scalar is None:
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")
    return scalar
