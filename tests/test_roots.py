import math
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pencilspace import roots
from pencilspace.bipoly import LAM, UniPoly
from pencilspace.errors import ConvergenceError, DegreeError
from pencilspace.roots import durand_kerner, unipoly_roots
from pencilspace.scalars import GaussianRational

from conftest import complex_coeffs


def test_sqrt_half_roots():
    roots = unipoly_roots(UniPoly([-1, 0, 2], var=LAM), tol=1e-13)
    expected = 1 / math.sqrt(2)
    assert len(roots) == 2
    assert abs(roots[0] - (-expected)) < 1e-12
    assert abs(roots[1] - expected) < 1e-12


def test_pure_imaginary_pair():
    roots = unipoly_roots(UniPoly([1, 0, 1], var=LAM))
    assert len(roots) == 2
    assert abs(roots[0] - (-1j)) < 1e-10
    assert abs(roots[1] - 1j) < 1e-10


def test_degree_zero_rejected():
    # A constant and the zero polynomial, both rejected by durand_kerner.
    for p in (UniPoly([5], var=LAM), UniPoly([], var=LAM)):
        with pytest.raises(DegreeError, match=r"^root finding requires degree >= 1$"):
            unipoly_roots(p)
    with pytest.raises(DegreeError):
        durand_kerner([3.0])


def test_zero_leading_coefficient_rejected():
    with pytest.raises(DegreeError):
        durand_kerner([1.0, 2.0, 0.0])


def test_output_is_sorted(rng):
    for _ in range(5):
        coeffs = [complex(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1.0
        roots = durand_kerner(coeffs, tol=1e-11)
        assert roots == sorted(roots, key=lambda z: (z.real, z.imag))


def test_vieta_sums_and_products(rng):
    # sum roots = -c_{d-1}/c_d, prod roots = (-1)^d c_0/c_d, within 10*tol.
    tol = 1e-11
    for _ in range(8):
        coeffs = [complex(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        coeffs[0] = coeffs[0] if coeffs[0] else 1.0
        coeffs[-1] = coeffs[-1] if coeffs[-1] else 1.0
        roots = durand_kerner(coeffs, tol=tol)
        degree = len(coeffs) - 1
        total = sum(roots)
        product = 1.0
        for r in roots:
            product *= r
        scale = 1 + max(abs(c) for c in coeffs)
        assert abs(total - (-coeffs[-2] / coeffs[-1])) < 10 * tol * scale
        assert abs(product - (-1) ** degree * coeffs[0] / coeffs[-1]) < 10 * tol * scale


def test_convergence_error_names_the_iteration_cap():
    with pytest.raises(
        ConvergenceError,
        match=r"did not converge in 2 iterations \(last max relative correction \d\.\d{3}e[+-]\d+\)",
    ):
        durand_kerner([1.0, 0.0, 0.0, 0.0, 1.0], max_iter=2)


def test_zero_sweeps_raise_convergence_error():
    with pytest.raises(
        ConvergenceError, match=r"did not converge in 0 iterations \(no correction computed\)"
    ):
        durand_kerner([1.0, 0.0, 1.0], max_iter=0)


def test_colliding_iterates_in_every_sweep_raise_convergence_error(monkeypatch):
    # Equal starting points collide in every sweep, so no correction is
    # ever computed.
    monkeypatch.setattr(roots, "cmath", SimpleNamespace(pi=math.pi, exp=lambda w: 1.0))
    with pytest.raises(
        ConvergenceError, match=r"did not converge in 3 iterations \(no correction computed\)"
    ):
        durand_kerner([1.0, 0.0, 1.0], max_iter=3)


def test_multiplicities_are_reported():
    # (x - 1)^2 = x^2 - 2x + 1: both roots near 1.  Double roots converge
    # linearly, so use a looser tolerance.
    roots = durand_kerner([1.0, -2.0, 1.0], tol=1e-8, max_iter=2000)
    assert len(roots) == 2
    for r in roots:
        assert abs(r - 1) < 1e-6


_parts = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(GaussianRational, _parts, _parts), min_size=2, max_size=8))
def test_scaled_coefficients_give_the_unscaled_monic_coefficients(coeffs):
    # unipoly_roots hands the iteration coefficients scaled by a power of
    # two; the monic ones it divides out are the unscaled ones, bit for bit.
    p = UniPoly(coeffs, var=LAM)
    assume(p.degree() >= 1)
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "durand_kerner", lambda c, **_: seen.append(c))
        unipoly_roots(p)

    def monic(values):
        return [(z.real.hex(), z.imag.hex()) for z in (c / values[-1] for c in values)]

    assert monic(seen[0]) == monic(complex_coeffs(p))
    lead = abs(seen[0][-1])
    assert 0.5 <= lead <= 3
