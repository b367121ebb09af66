"""Exact complex scalars with rational real and imaginary parts.

A ``GaussianRational`` is a + b*i with a, b rational, held in the integer
form of ``gaussint`` for one entry: Gaussian-integer numerators (re, im)
over a positive denominator, with gcd(re, im, den) = 1, so equal values
have equal forms and field arithmetic never rounds.  Every operation runs
on ints and ends in one three-argument gcd; division multiplies by the
conjugate and divides by the norm.  ``.re`` and ``.im`` read the parts as
``Fraction`` values, built on demand.  It is the public scalar: values come
in and go out as GaussianRationals, and exact evaluation at a point runs on
them.  The exact kernels (``Matrix``, ``BiPoly``, ``UniPoly``) store many
values over one denominator, and ``gaussint`` converts to and from this
class by reading the three fields; the floats handed to the root finder
come from ``BiPoly._complex_terms`` and ``roots.unipoly_roots`` (through
``gaussint.to_complex``), not from this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, str, Fraction]
ScalarLike = Union["GaussianRational", int, str, Fraction]


def _format_rational(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0: "n" or "n/d" in lowest terms."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def _parts(value) -> tuple[int, int]:
    """The lowest-terms numerator and positive denominator of a rational."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


class GaussianRational:
    """An immutable element of Q(i): (_re + _im*i) / _den in canonical form."""

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            den = 1
        else:
            # Over the lcm of two lowest-terms denominators the form is canonical.
            re, b = _parts(re)
            im, d = _parts(im)
            den = b * d // gcd(b, d)
            re, im = re * (den // b), im * (den // d)
        _set_re(self, re)
        _set_im(self, im)
        _set_den(self, den)

    @staticmethod
    def _from_form(re: int, im: int, den: int) -> "GaussianRational":
        """The value (re + im*i) / den for ints with den > 0, reduced."""
        g = gcd(re, im, den)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        self = _new(GaussianRational)
        _set_re(self, re)
        _set_im(self, im)
        _set_den(self, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._re, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im, self._den)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        """Coerce an int, str, or Fraction into a GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_real(self) -> bool:
        return not self._im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic -------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._den, other._den
        return _form(self._re * b + other._re * a, self._im * b + other._im * a, a * b)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._den, other._den
        return _form(self._re * b - other._re * a, self._im * b - other._im * a, a * b)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        return _form(a * c - b * d, a * d + b * c, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        c, d = other._re, other._im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + bi)/s / ((c + di)/t) = (a + bi)(c - di) t / (s (c^2 + d^2))
        a, b, t = self._re, self._im, other._den
        return _form((a * c + b * d) * t, (b * c - a * d) * t, self._den * norm)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "GaussianRational":
        return _form(-self._re, -self._im, self._den)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        re, im = 1, 0
        base_re, base_im = self._re, self._im
        k = exponent
        while k:
            if k & 1:
                re, im = re * base_re - im * base_im, re * base_im + im * base_re
            base_re, base_im = base_re * base_re - base_im * base_im, 2 * base_re * base_im
            k >>= 1
        return _form(re, im, self._den**exponent)

    def conjugate(self) -> "GaussianRational":
        return _form(self._re, -self._im, self._den)

    # -- comparisons and hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_gr(other)
        if other is NotImplemented:
            return NotImplemented
        return self._re == other._re and self._im == other._im and self._den == other._den

    def __hash__(self) -> int:
        # A real value hashes as its Fraction, so as an equal int or Fraction.
        if not self._im:
            return hash(self.re)
        return hash((self._re, self._im, self._den))

    # -- conversions -------------------------------------------------------------

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is.
        return complex(self._re / self._den, self._im / self._den)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        # The text of str(Fraction) for each part, with no Fraction built.
        re, im, den = self._re, self._im, self._den
        if not im:
            return _format_rational(re, den)
        if im == den:
            im_text = "i"
        elif im == -den:
            im_text = "-i"
        else:
            im_text = _format_rational(im, den) + "i"
        if not re:
            return im_text
        return f"{_format_rational(re, den)}{'+' if im > 0 else ''}{im_text}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set_re = GaussianRational._re.__set__
_set_im = GaussianRational._im.__set__
_set_den = GaussianRational._den.__set__
_form = GaussianRational._from_form


def _as_gr(value) -> "GaussianRational":
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
