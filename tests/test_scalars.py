from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspace.scalars import GaussianRational


def gr(re, im=0):
    return GaussianRational(re, im)


def test_construction_normalizes():
    x = gr("2/4", "-3/6")
    assert x.re == Fraction(1, 2)
    assert x.im == Fraction(-1, 2)


def test_basic_arithmetic():
    a = gr(1, 2)
    b = gr(3, -1)
    assert a + b == gr(4, 1)
    assert a - b == gr(-2, 3)
    assert a * b == gr(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert (a * b) / b == a
    assert -a == gr(-1, -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_int_and_fraction_coercion():
    x = gr(1, 1)
    assert 2 * x == gr(2, 2)
    assert x + 1 == gr(2, 1)
    assert 1 - x == gr(0, -1)
    assert x / 2 == gr(Fraction(1, 2), Fraction(1, 2))


def test_powers():
    i = gr(0, 1)
    assert i**2 == gr(-1)
    assert i**0 == gr(1)
    assert gr(2) ** 10 == gr(1024)


def abs2(x: GaussianRational) -> Fraction:
    """Exact squared modulus |x|^2 = re^2 + im^2."""
    return x.re * x.re + x.im * x.im


def test_conjugate_and_abs2():
    x = gr(Fraction(3, 2), -2)
    assert x.conjugate() == gr(Fraction(3, 2), 2)
    assert abs2(x) == Fraction(9, 4) + 4
    assert (x * x.conjugate()) == gr(abs2(x))


def test_str_forms():
    assert str(gr(0)) == "0"
    assert str(gr(Fraction(3, 2))) == "3/2"
    assert str(gr(0, 1)) == "i"
    assert str(gr(0, -2)) == "-2i"
    assert str(gr(1, Fraction(1, 2))) == "1+1/2i"
    assert str(gr(1, -1)) == "1-i"


fractions_st = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
gaussians = st.builds(GaussianRational, fractions_st, fractions_st)


@settings(max_examples=60, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if c:
        assert (a / c) * c == a
