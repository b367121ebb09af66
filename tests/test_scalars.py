from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspace.scalars import GaussianRational

from conftest import ReferenceGaussian


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


def test_real_value_hashes_as_the_equal_int_and_fraction():
    assert gr(3) == 3 and hash(gr(3)) == hash(3)
    assert {gr(3): 1}[3] == 1 and {3: 1}[gr(3)] == 1
    assert len({gr(3), 3}) == 1
    half = gr(Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2)) and {Fraction(1, 2): "h"}[half] == "h"
    assert len({gr("-4/6"), Fraction(-2, 3), gr(Fraction(-2, 3), 0)}) == 1
    assert hash(gr(1, 2)) == hash(gr("2/2", "4/2"))


# -- against the Fraction-pair reference ------------------------------------------

# Parts from small to far beyond the float range, as int, Fraction and str.
_rationals = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(max_denominator=10**12),
    st.builds(Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**30)),
)
_inputs = st.one_of(
    st.integers(-(10**20), 10**20),
    _rationals,
    _rationals.map(str),
    st.just(0),
)


def _pair(re, im):
    return GaussianRational(re, im), ReferenceGaussian(re, im)


def _same(x, ref) -> bool:
    """x and ref hold the same value, read through every public view."""
    return (
        type(x) is GaussianRational
        and (x.re, x.im) == (ref.re, ref.im)
        and type(x.re) is type(x.im) is Fraction
        and str(x) == str(ref)
        and repr(x) == repr(ref)
        and bool(x) == bool(ref)
        and x.is_zero() == ref.is_zero()
        and x.is_real() == ref.is_real()
    )


def _outcome(f):
    """f()'s value, or its exception's type and message."""
    try:
        return f()
    except (ArithmeticError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _complex_bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_inputs, _inputs, _inputs, _inputs, st.integers(0, 6), _inputs)
def test_integer_form_matches_the_fraction_pair_reference(a_re, a_im, b_re, b_im, k, plain):
    x, rx = _pair(a_re, a_im)
    y, ry = _pair(b_re, b_im)
    assert _same(x, rx) and _same(y, ry)
    assert _same(GaussianRational.coerce(plain), ReferenceGaussian.coerce(plain))
    assert GaussianRational.coerce(x) is x
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u / v,
        lambda u, v: v / u,
        lambda u, v: u ** k,
        lambda u, v: -u,
        lambda u, v: u.conjugate(),
    ):
        got, want = _outcome(lambda: op(x, y)), _outcome(lambda: op(rx, ry))
        assert _same(got, want) if isinstance(want, ReferenceGaussian) else got == want
    # Mixed with a plain int or Fraction on either side; a str is not a number.
    if not isinstance(plain, str):
        for op in (
            lambda u: u + plain,
            lambda u: plain + u,
            lambda u: u - plain,
            lambda u: plain - u,
            lambda u: u * plain,
            lambda u: plain * u,
            lambda u: u / plain,
            lambda u: plain / u,
        ):
            got, want = _outcome(lambda: op(x)), _outcome(lambda: op(rx))
            assert _same(got, want) if isinstance(want, ReferenceGaussian) else got == want
        assert (x == plain) == (rx == plain) and (plain == x) == (plain == rx)
    assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    for s in (2, Fraction(1, 3)):
        # Same numerators over another denominator are another value.
        assert (x == x * s) == (rx == rx * s) and (x * s == x) == (rx * s == rx)
    assert (x == y) <= (hash(x) == hash(y))
    if x.is_real():
        assert hash(x) == hash(x.re)
    got, want = _outcome(x.to_complex), _outcome(rx.to_complex)
    if isinstance(want, complex):
        assert _complex_bits(got) == _complex_bits(want) and complex(x) == got
    else:
        assert got == want


def test_powers_and_errors_match_the_reference():
    x, rx = _pair(Fraction(1, 2), Fraction(1, 2))
    for k in range(8):
        assert _same(x**k, rx**k)
    for bad in (-1, 1.0, Fraction(1, 2)):
        assert _outcome(lambda: x**bad) == _outcome(lambda: rx**bad)
        assert _outcome(lambda: x**bad)[0] is ValueError
    zero, rzero = _pair(0, 0)
    assert _outcome(lambda: x / zero) == _outcome(lambda: rx / rzero)
    assert _outcome(lambda: x / 0) == _outcome(lambda: rx / 0)
    assert _outcome(lambda: 1 / zero)[0] is ZeroDivisionError
    huge, rhuge = _pair(10**400, 1)
    assert _outcome(huge.to_complex) == _outcome(rhuge.to_complex)
    assert _outcome(huge.to_complex)[0] is OverflowError


@pytest.mark.parametrize("other", [1.5, 2j, "1", None, [1]], ids=["float", "complex", "str", "None", "list"])
def test_non_rational_operands_are_not_implemented(other):
    x, rx = _pair(Fraction(3, 4), -1)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__"):
        assert getattr(x, name)(other) is NotImplemented
        assert getattr(rx, name)(other) is NotImplemented
    with pytest.raises(TypeError):
        x + other
    assert (x == other) is False and (x != other) is True


@pytest.mark.parametrize(
    "value", ["1/2", " -3/4 ", "2.5", "1e-3", "7", Fraction(-9, 12), 5, True]
)
def test_construction_from_int_str_and_fraction_matches_the_reference(value):
    assert _same(GaussianRational(value), ReferenceGaussian(value))
    assert _same(GaussianRational(1, value), ReferenceGaussian(1, value))
    assert _same(GaussianRational(value, value), ReferenceGaussian(value, value))
    for bad in ("x", "1/0", object()):
        assert _outcome(lambda: GaussianRational(bad)) == _outcome(lambda: ReferenceGaussian(bad))


def test_parts_are_read_only():
    x = gr(1, 2)
    for name in ("re", "im", "_re"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
