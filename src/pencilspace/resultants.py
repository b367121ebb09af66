"""Sylvester resultants and first subresultants of bivariate polynomials.

The resultant with respect to the eliminated variable x is the determinant
of the Sylvester matrix built from the two coefficient sequences; its
roots in the kept variable y locate all candidates for common zeros.  The
first subresultant S1 = s1(y)·x + s0(y) has as coefficients the two
j = 1 minors of that matrix.  Where gcd(s1, R) = 1, the common zero over
each root y0 of R is unique, x0 = -s0(y0)/s1(y0) (the shape-lemma form of a
rational univariate representation; Rouillier, AAECC 9, 1999); ``qep``
pairs mu with each root that way, after shearing lam until gcd(s1, R) = 1.

All three come from one evaluation of the kept variable y at 2^k, with k
large enough that no coefficient of the three reaches 2^(k - 1) (a
Hadamard-type bound on the Sylvester matrix).  Where both leading
x-coefficients stay nonzero there and the signed subresultant PRS of the
specialized numerators drops one degree a step down to degree 0, that
chain holds Res, s1 and s0 exactly (Brown & Traub, J. ACM 18, 1971);
otherwise Bareiss takes the three determinants of the specialized integer
matrices.  Each polynomial is read off the signed base-2^k digits of its
value, as in ``polymatrix.exact_det_poly``; the result is identical to the
determinants' symbolic expansion.
"""

from __future__ import annotations

from . import gaussint
from .bipoly import LAM, MU, BiPoly, UniPoly, _axis, _reduced_uni, _signed_prs
from .errors import DegreeError
from .matrices import bareiss_det_int
from .polymatrix import _coefficients_at, _digit_width


def _sylvester_rows(f_desc: list, g_desc: list, zero) -> list[list]:
    """The Sylvester rows of two descending coefficient sequences: deg(g)
    shifted copies of f's, then deg(f) shifted copies of g's."""
    m, n = len(f_desc) - 1, len(g_desc) - 1
    size = m + n
    return [[zero] * s + f_desc + [zero] * (size - s - m - 1) for s in range(n)] + [
        [zero] * s + g_desc + [zero] * (size - s - n - 1) for s in range(m)
    ]


def _first_minors(rows: list[list], n: int) -> tuple[list[list], list[list]]:
    """The j = 1 minors of a Sylvester matrix with n rows of f, whose
    determinants are s1 and s0: without the first row of f, the first row
    of g and the first column, and without the x^0 column (s1) or the x^1
    column (s0).  For two linear inputs S1 is g itself, so the minors are
    g's two coefficients."""
    size = len(rows)
    if size == 2:
        return [rows[1][:1]], [rows[1][1:]]
    kept = rows[1:n] + rows[n + 1 :]
    return (
        [row[1 : size - 1] for row in kept],
        [row[1 : size - 2] + row[size - 1 :] for row in kept],
    )


def _checked_degrees(f: BiPoly, g: BiPoly, eliminate: str) -> tuple[int, int]:
    m = f.degree_in(eliminate)
    n = g.degree_in(eliminate)
    if min(m, n) < 0 or max(m, n) < 1:
        raise DegreeError(
            f"at least one input must have positive degree in {eliminate}, "
            f"and neither may be zero (got {m} and {n})"
        )
    return m, n


def sylvester_resultant(f: BiPoly, g: BiPoly, eliminate: str) -> UniPoly:
    """Exact resultant of f and g eliminating one variable.

    The result is univariate in the other variable.  Preconditions: f and g
    nonzero, at least one with positive degree in the eliminated variable
    (DegreeError otherwise).  An identically zero result signals a common
    factor; callers decide how to report it.
    """
    return first_subresultant(f, g, eliminate)[0]


def first_subresultant(
    f: BiPoly, g: BiPoly, eliminate: str
) -> tuple[UniPoly, UniPoly | None, UniPoly | None]:
    """(Res, s1, s0): the resultant of f and g eliminating one variable x
    and the coefficients of their first subresultant S1 = s1·x + s0, all
    exact and univariate in the other variable.

    s1 and s0 are the determinants of the two j = 1 minors of the Sylvester
    matrix, and g's own coefficients when both inputs are linear in x; they
    are None unless S1 exists (both degrees in x at least 1).
    Preconditions and errors as in ``sylvester_resultant``.
    """
    if f.is_zero() or g.is_zero():
        raise DegreeError("resultant of a zero polynomial")
    m, n = _checked_degrees(f, g, eliminate)
    with_s1 = min(m, n) >= 1
    kept = MU if eliminate == LAM else LAM
    den_f, norm_f, f_at = _specializer(f, eliminate)
    den_g, norm_g, g_at = _specializer(g, eliminate)
    # Res has n rows of f and m of g, each of squared norm at most norm_f or
    # norm_g on |y| = 1 (_specializer); each j = 1 minor keeps some of those
    # rows, shortened, and every norm is at least 1, so the one bound holds
    # for all three.
    k = _digit_width(norm_f**n * norm_g**m)
    t = 1 << k
    values = _node_values(f_at(t), g_at(t), with_s1)
    dens = [den_f**n * den_g**m]
    if with_s1:
        # Each minor has one row fewer of f and of g (g's row alone when
        # m = n = 1).
        dens += [den_g if m == n == 1 else den_f ** (n - 1) * den_g ** (m - 1)] * 2
    polys: list = [_reduced_uni(_coefficients_at(v, k), den, kept) for v, den in zip(values, dens)]
    if not with_s1:
        polys += [None, None]
    return tuple(polys)


def _specializer(p: BiPoly, eliminate: str):
    """(den, norm, at): p's denominator; the sum over p's x-coefficients
    p_j of w_j^2, w_j the sum of |re| + |im| over the numerator terms of
    p_j; and the map from an integer t of the kept variable to the
    ascending x-coefficients of p's numerator there, as Gaussian integers
    (a vanishing leading one kept).

    On |y| = 1 each |p_j| <= w_j, so a Sylvester row of p has squared norm
    at most norm there; by Hadamard's bound and Cauchy's estimate, no
    coefficient of a determinant of such rows exceeds the square root of
    the product of their norms.
    """
    den, terms = p.integer_form()
    x = _axis(eliminate)
    coeffs: list[list[tuple[int, int, int]]] = [[] for _ in range(p.degree_in(eliminate) + 1)]
    for e, (re, im) in terms.items():
        coeffs[e[x]].append((e[1 - x], re, im))
    norm = sum(sum(abs(re) + abs(im) for _, re, im in c) ** 2 for c in coeffs)

    def at(t: int) -> list[tuple[int, int]]:
        out = []
        for c in coeffs:
            s_re = s_im = 0
            for power, re, im in c:
                w = t**power
                s_re += re * w
                s_im += im * w
            out.append((s_re, s_im))
        return out

    return den, norm, at


def _node_values(a: list, b: list, with_s1: bool) -> list[tuple[int, int]]:
    """[Res] or [Res, s1, s0] of the Gaussian-integer polynomials a and b
    (ascending, of the full degrees m and n): from the signed PRS when the
    node is normal, by Bareiss otherwise."""
    m, n = len(a) - 1, len(b) - 1
    if a[-1] != (0, 0) and b[-1] != (0, 0):
        swapped = m < n
        big, small = (b, a) if swapped else (a, b)
        chain = _signed_prs(big, small)
        low = len(small) - 1
        if [len(p) - 1 for p in chain[1:]] == list(range(low, -1, -1)):
            # The chain holds S_j for j < deg small; S_deg(small) is
            # lc(small)^(delta - 1) small when delta = deg big - deg small > 0.
            delta = len(big) - len(small)
            if delta:
                lead = gaussint.power(small[-1], delta - 1)
                chain[1] = [gaussint.mul(lead, c) for c in small]
            res = chain[-1][0]
            if swapped and m * n % 2:
                res = (-res[0], -res[1])
            if not with_s1:
                return [res]
            s0, s1 = chain[-2]
            if swapped and (m - 1) * (n - 1) % 2:
                s0, s1 = (-s0[0], -s0[1]), (-s1[0], -s1[1])
            return [res, s1, s0]
    rows = _sylvester_rows(a[::-1], b[::-1], (0, 0))
    matrices = [rows, *_first_minors(rows, n)] if with_s1 else [rows]
    return [bareiss_det_int([list(r) for r in mat]) for mat in matrices]
