"""Exact complex scalars with rational real and imaginary parts.

A ``GaussianRational`` is a + b*i with a, b arbitrary-precision ``Fraction``
values, so field arithmetic never rounds; ``Fraction`` keeps its operands
in lowest terms with a positive denominator, so equal values compare equal.
It is the public scalar: values come in and go out as GaussianRationals,
and exact evaluation at a point runs on them.  The exact kernels
(``Matrix``, ``BiPoly``, ``UniPoly``) run on ints instead, in the integer
form of ``gaussint``, which also converts to and from this class; the
floats handed to the root finder come from ``BiPoly._complex_terms`` and
``roots.unipoly_roots`` (through ``gaussint.to_complex``), not from this
module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]
ScalarLike = Union["GaussianRational", int, str, Fraction]


class GaussianRational:
    """An immutable element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        """Coerce an int, str, or Fraction into a GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value))

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic -------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons and hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- conversions -------------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_gr(value) -> "GaussianRational":
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
