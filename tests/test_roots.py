import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pencilspace import roots
from pencilspace.bipoly import LAM, UniPoly
from pencilspace.errors import ConvergenceError, DegreeError
from pencilspace.qep import QuadSystem2P, spectrum_quadratic
from pencilspace.roots import durand_kerner, unipoly_roots
from pencilspace.scalars import GaussianRational

from conftest import complex_coeffs, rand_quad


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


def test_zero_sweeps_raise_even_when_the_starts_are_roots(monkeypatch):
    # Starts at radius 2 times +-1/2 are the roots of x^2 - 1, but the
    # rounding-floor exit needs at least one computed correction.
    starts = iter([0.5, -0.5])
    monkeypatch.setattr(roots, "cmath", SimpleNamespace(pi=math.pi, exp=lambda w: next(starts)))
    with pytest.raises(
        ConvergenceError, match=r"did not converge in 0 iterations \(no correction computed\)"
    ):
        durand_kerner([-1.0, 0.0, 1.0], max_iter=0)


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


def reference_durand_kerner(coeffs, tol, max_iter):
    """The sweep of ``durand_kerner`` as written on ``ndarray`` methods and
    ``np.fill_diagonal``, kept as the oracle of the ufunc form.  Returns
    (sorted roots or None, ConvergenceError message or None, last iterate
    sorted); it never applies the rounding-floor exit."""
    import numpy as np

    lead = complex(coeffs[-1])
    monic = np.array([complex(c) / lead for c in coeffs], dtype=complex)
    degree = len(monic) - 1
    radius = max(1.0, 1.0 + max(abs(c) for c in monic[:-1]))
    z = np.array(
        [radius * roots.cmath.exp(2j * roots.cmath.pi * k / degree + 0.4j) for k in range(degree)],
        dtype=complex,
    )
    powers = np.arange(degree + 1)
    worst = None
    with np.errstate(all="ignore"):
        for sweep in range(1, max_iter + 1):
            values = (z[:, None] ** powers[None, :]) @ monic
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            denom = diff.prod(axis=1)
            collided = denom == 0
            if collided.any():
                z = z + np.where(collided, 1e-6 * (1 + 1j), 0)
                continue
            correction = values / denom
            z = z - correction
            worst = (np.abs(correction) / np.maximum(1.0, np.abs(z))).max()
            if worst < tol:
                return roots._sorted_roots(z), None, roots._sorted_roots(z)
            if not math.isfinite(worst):
                message = (
                    f"Durand-Kerner iterate became non-finite in sweep {sweep} "
                    f"(max relative correction {worst})"
                )
                return None, message, roots._sorted_roots(z)
    if worst is None:
        last = "no correction computed"
    else:
        last = f"last max relative correction {worst:.3e}"
    message = f"Durand-Kerner did not converge in {max_iter} iterations ({last})"
    return None, message, roots._sorted_roots(z)


def _hex(points):
    return [(z.real.hex(), z.imag.hex()) for z in points]


def _oracle_sample():
    """Seeded coefficient lists: degrees 1-16 and 36, real and complex,
    leading coefficients near 1, 2^60 and 2^-60, and one that overflows in
    the first sweep."""
    rng = random.Random(39)
    sample = []
    for degree in [*range(1, 17), 36]:
        for is_complex in (False, True):
            for scale in (1.0, 2.0**60, 2.0**-60):
                coeffs = [
                    complex(rng.uniform(-4, 4), rng.uniform(-4, 4) if is_complex else 0.0)
                    for _ in range(degree)
                ]
                coeffs.append(scale * complex(rng.uniform(0.5, 2), 0.0))
                sample.append(coeffs)
    sample.append([1.0, 0.0, 1e-200])
    return sample


def _check_against_oracle(coeffs, tol, max_iter):
    want, message, last = reference_durand_kerner(coeffs, tol, max_iter)
    try:
        got = durand_kerner(coeffs, tol=tol, max_iter=max_iter)
    except ConvergenceError as error:
        assert str(error) == message
        return "raised"
    if want is not None:
        assert _hex(got) == _hex(want)
        return "converged"
    # Only the rounding floor returns where the oracle raises: after a
    # correction was computed and the cap was reached, and with every
    # residual within 8 d u sum_k |a_k| |z|^k (rechecked by Horner's rule,
    # with a factor 2 for its own rounding).
    assert message.startswith(f"Durand-Kerner did not converge in {max_iter} ")
    assert "no correction computed" not in message
    assert _hex(got) == _hex(last)
    monic = [complex(c) / complex(coeffs[-1]) for c in coeffs]
    for z in got:
        value = 0j
        for a in reversed(monic):
            value = value * z + a
        bound = sum(abs(a) * abs(z) ** k for k, a in enumerate(monic))
        assert abs(value) <= 16 * (len(monic) - 1) * 2.0**-53 * bound
    return "floor"


@pytest.mark.parametrize("max_iter", [0, 1, 2, 500])
@pytest.mark.parametrize("tol", [1e-12, 1e-8])
def test_sweeps_match_the_reference_bit_for_bit(tol, max_iter):
    outcomes = [_check_against_oracle(c, tol, max_iter) for c in _oracle_sample()]
    assert "raised" in outcomes
    if max_iter == 500:
        assert "converged" in outcomes


def test_collision_nudge_matches_the_reference(monkeypatch):
    # Starts 0 and 1 coincide, and the nudge moves both by the same step, so
    # they collide in every sweep and no correction is ever computed.
    starts = iter([1.0, 1.0, 1j, -1.0] * 2)
    monkeypatch.setattr(roots, "cmath", SimpleNamespace(pi=math.pi, exp=lambda w: next(starts)))
    assert _check_against_oracle([2.0, 1.0, 0.0, 3.0, 1.0], 1e-12, 4) == "raised"


@pytest.mark.parametrize(
    "complex_prob, n1, n2, seed, bound", [(0.0, 1, 2, 6, 8), (0.25, 2, 2, 49, 16), (0.0, 2, 2, 79, 16)]
)
def test_iterates_at_the_rounding_floor_give_a_spectrum(monkeypatch, complex_prob, n1, n2, seed, bound):
    # These iterations end 500 sweeps with a last correction of 3e-12 to
    # 8e-12 against the 1e-12 stop and every residual within the rounding
    # floor, where ConvergenceError was raised: now the oracle's last
    # iterate comes back and the system gets its full Bezout count.
    seen = []
    real = roots.durand_kerner
    monkeypatch.setattr(roots, "durand_kerner", lambda c, **kw: seen.append(c) or real(c, **kw))
    rng = random.Random(seed)
    system = QuadSystem2P(rand_quad(rng, n1, complex_prob), rand_quad(rng, n2, complex_prob))
    report = spectrum_quadratic(system)
    assert len(report.points) == report.bezout_bound == bound
    outcomes = [_check_against_oracle(c, roots.DEFAULT_TOL, roots.DEFAULT_MAX_ITER) for c in seen]
    assert "floor" in outcomes


def test_iterates_far_from_the_rounding_floor_still_raise():
    # Real (3,3) seed 5 ends 500 sweeps with a residual about 2e10 d u.
    rng = random.Random(5)
    system = QuadSystem2P(rand_quad(rng, 3, 0.0), rand_quad(rng, 3, 0.0))
    with pytest.raises(ConvergenceError, match=r"in 500 iterations \(last max relative correction 2\.105e-04\)$"):
        spectrum_quadratic(system)
