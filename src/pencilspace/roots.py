"""Simultaneous polynomial root finding (Durand-Kerner iteration).

The kernel of the float stage of a spectrum, ``qep._float_stage``, which
with this module holds all of a spectrum's floating point.  All roots of a
complex-coefficient polynomial are iterated together from perturbed-circle
initial points; the iteration stops when the largest relative correction
drops below the tolerance or, once the sweeps run out, when every root's
residual is at the rounding floor (MPSolve's test, Bini & Fiorentino 2000).
Output order is lexicographic by (real, imaginary) so downstream reports
are deterministic.  A single root with a good start is polished by Newton
steps instead (``newton_steps``).

numpy is imported inside ``durand_kerner``, at its first call, and by no
other module: the exact commands never load it.  A sweep calls the ufuncs
that ``fill_diagonal``, ``prod``, ``any`` and ``max`` wrap, on complex
exponents and a buffer made once: the same bits at less cost.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from . import gaussint
from .bipoly import UniPoly
from .errors import ConvergenceError, DegreeError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 500


def durand_kerner(
    coeffs: Sequence[complex],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[complex]:
    """All complex roots (with multiplicity) of sum_k coeffs[k] * x^k.

    coeffs is ascending with a nonzero leading coefficient and degree >= 1.
    Raises ConvergenceError if the maximum relative correction
    max |dz| / max(1, |z|) stays above tol for max_iter sweeps off the
    rounding floor, or at the first sweep where it is not finite.
    """
    import numpy as np

    if len(coeffs) < 2:
        raise DegreeError("root finding requires degree >= 1")
    lead = complex(coeffs[-1])
    if lead == 0:
        raise DegreeError("leading coefficient must be nonzero")
    monic = np.array([complex(c) / lead for c in coeffs], dtype=complex)
    degree = len(monic) - 1

    radius = max(1.0, 1.0 + max(abs(c) for c in monic[:-1]))
    # Perturbed circle: an irrational-ish angular offset avoids symmetric
    # stalls (e.g. real polynomials with conjugate root pairs).
    z = np.array(
        [radius * cmath.exp(2j * cmath.pi * k / degree + 0.4j) for k in range(degree)],
        dtype=complex,
    )

    powers = np.arange(degree + 1, dtype=complex)
    diff = np.empty((degree, degree), dtype=complex)
    diagonal = diff.reshape(-1)[:: degree + 1]
    # Stays None while no sweep has computed a correction (max_iter = 0, or
    # every sweep so far nudged colliding iterates apart).
    worst = None
    # Overflow, inf - inf and zero denominators end the sweep below,
    # through the correction; numpy's warnings about them would only add noise.
    with np.errstate(all="ignore"):
        for sweep in range(1, max_iter + 1):
            values = (z[:, None] ** powers) @ monic
            np.subtract(z[:, None], z, out=diff)
            diagonal[...] = 1.0
            denom = np.multiply.reduce(diff, axis=1)
            correction = values / denom
            step = z - correction
            largest = np.maximum.reduce(np.absolute(correction) / np.maximum(1.0, np.absolute(step)))
            if largest < tol:
                return _sorted_roots(step)
            if not math.isfinite(largest):
                # Colliding iterates (a zero denominator) make `largest` NaN: nudge.
                if not np.logical_and.reduce(denom):
                    z = z + np.where(denom == 0, 1e-6 * (1 + 1j), 0)
                    continue
                raise ConvergenceError(
                    f"Durand-Kerner iterate became non-finite in sweep {sweep} "
                    f"(max relative correction {largest})"
                )
            z, worst = step, largest
        if worst is not None and np.isfinite(z).all():
            # Rounding floor: every |p(z_i)| <= 8 d u sum_k |a_k| |z_i|^k, u = 2^-53.
            terms = z[:, None] ** powers
            floor = 8 * degree * 2.0**-53 * (np.absolute(terms) @ np.absolute(monic))
            if (np.absolute(terms @ monic) <= floor).all():
                return _sorted_roots(z)
    if worst is None:
        last = "no correction computed"
    else:
        last = f"last max relative correction {worst:.3e}"
    raise ConvergenceError(
        f"Durand-Kerner did not converge in {max_iter} iterations ({last})"
    )


def newton_steps(coeffs: Sequence[complex], z: complex, steps: int) -> complex:
    """z after ``steps`` Newton steps on sum_k coeffs[k] * x^k (ascending),
    each evaluating the value and the derivative by one Horner pass; a zero
    derivative ends them early."""
    for _ in range(steps):
        value = slope = 0j
        for c in reversed(coeffs):
            slope = slope * z + value
            value = value * z + c
        if not slope:
            break
        z -= value / slope
    return z


def _sorted_roots(z) -> list[complex]:
    return sorted(map(complex, z), key=lambda w: (w.real, w.imag))


def unipoly_roots(p: UniPoly, tol: float = DEFAULT_TOL) -> list[complex]:
    """Roots of an exact univariate polynomial, sorted lexicographically;
    DegreeError (from durand_kerner) for a constant or zero polynomial.

    The coefficients go to the float iteration scaled by a power of two
    that brings the leading one near 1, so a leading coefficient below the
    float range does not read as zero.  Scaling by 2^k is exact and the
    iteration divides by the leading coefficient, so the monic coefficients
    are those of the unscaled ones wherever neither under- nor overflows.
    """
    den, nums = p.integer_form()
    if nums:
        lead_re, lead_im = nums[-1]
        shift = den.bit_length() - max(abs(lead_re), abs(lead_im)).bit_length()
        if shift >= 0:
            nums = [(re << shift, im << shift) for re, im in nums]
        else:
            den <<= -shift
    return durand_kerner(gaussint.to_complex(den, nums), tol=tol)
