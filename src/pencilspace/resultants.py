"""Sylvester resultants of bivariate polynomials.

The resultant with respect to the eliminated variable is the determinant
of the Sylvester matrix built from the two coefficient sequences; its
roots in the kept variable locate all candidates for common zeros.  The
determinant is exact (interpolation determinant over the kept variable).
"""

from __future__ import annotations

from .bipoly import LAM, MU, BiPoly, UniPoly
from .errors import DegreeError
from .polymatrix import PolyMatrix, exact_det_poly


def sylvester_matrix(f: BiPoly, g: BiPoly, eliminate: str) -> PolyMatrix:
    """The (m+n) x (m+n) Sylvester matrix of f and g w.r.t. one variable.

    Rows hold the descending coefficient sequences: deg(g) shifted copies
    of f's coefficients followed by deg(f) shifted copies of g's.  One
    input may have degree 0: the matrix is then that input times the
    identity, so the resultant is f^deg(g) (or g^deg(f)).
    """
    m = f.degree_in(eliminate)
    n = g.degree_in(eliminate)
    if min(m, n) < 0 or max(m, n) < 1:
        raise DegreeError(
            f"at least one input must have positive degree in {eliminate}, "
            f"and neither may be zero (got {m} and {n})"
        )
    f_desc = list(reversed(f.coeffs_in(eliminate)))
    g_desc = list(reversed(g.coeffs_in(eliminate)))
    size = m + n
    zero = BiPoly.zero()
    rows = []
    for shift in range(n):
        rows.append([zero] * shift + f_desc + [zero] * (size - shift - m - 1))
    for shift in range(m):
        rows.append([zero] * shift + g_desc + [zero] * (size - shift - n - 1))
    return PolyMatrix(rows)


def sylvester_resultant(f: BiPoly, g: BiPoly, eliminate: str) -> UniPoly:
    """Exact resultant of f and g eliminating one variable.

    The result is univariate in the other variable.  Preconditions: f and g
    nonzero, at least one with positive degree in the eliminated variable
    (DegreeError otherwise).  An identically zero result signals a common
    factor; callers decide how to report it.
    """
    if f.is_zero() or g.is_zero():
        raise DegreeError("resultant of a zero polynomial")
    kept = MU if eliminate == LAM else LAM
    det = exact_det_poly(sylvester_matrix(f, g, eliminate))
    return UniPoly.from_bipoly(det, kept)
