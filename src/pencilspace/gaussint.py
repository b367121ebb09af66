"""The integer form of exact values over Q(i).

``Matrix``, ``BiPoly``, ``UniPoly`` and the JSON codec store a set of Q(i)
values as one positive common denominator over Gaussian-integer numerators,
each an (re, im) int pair.  The form is canonical when the denominator and
every numerator component have no common factor, so equal values have
equal forms.  A ``Matrix`` may hold any integer form of its values over a
positive denominator, as it was built (a parsed document over its one
lcm, a laid-out member), and is canonical when read: ``integer_form``,
``==`` and ``hash`` reduce it once.  A ``GaussianRational`` is the
one-entry case, so the way in from scalars and the way back to one read
and write its three fields.
This module alone holds the rules of the form: the way in, alignment to a
common denominator, canonical reduction, Z[i] product, power and division,
the way back to a ``GaussianRational`` or a ``complex``, the signed
base-2^k digits that read integer coefficients off one value at 2^k (the
exact determinants of ``polymatrix`` and ``resultants``), and the image
in F_p that the mod-p proofs of ``bipoly`` and the det-ratio screen of
``polymatrix`` read.  Four primitives carry the linear algebra of numerator
rows that members, transforms and residuals are built from: ``times`` (rows
times a Gaussian integer), ``kron`` (the rows of a Kronecker product),
``combine`` (a sum of Gaussian integers times rows) and ``matvec`` (rows
times a column).  Each skips zero entries and takes no product for a unit
coefficient.  It runs on ints; the containers keep their own storage and
the inline arithmetic of their per-entry hot loops.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .scalars import GaussianRational

Pair = tuple[int, int]
Rows = Sequence[Sequence[Pair]]
# The lowest-terms parts (re numerator, re denominator, im numerator, im
# denominator) of one value.
Parts = tuple[int, int, int, int]


def from_parts(parts: Iterable[Parts]) -> tuple[int, list[Pair]]:
    """The integer form of values given by their lowest-terms parts: the lcm
    of their denominators (already canonical) and the numerator pairs."""
    parts = list(parts)
    den = lcm(*{p[k] for p in parts for k in (1, 3)})
    return den, [(a * (den // b), c * (den // d)) for a, b, c, d in parts]


def from_scalars(values: Iterable[GaussianRational]) -> tuple[int, list[Pair]]:
    """The integer form of GaussianRational values: the lcm of their
    denominators and each value's numerators times lcm // its denominator
    (canonical, as in ``aligned``)."""
    values = list(values)
    den = lcm(*{v._den for v in values})
    return den, [(v._re * (den // v._den), v._im * (den // v._den)) for v in values]


def aligned(forms: Sequence[tuple[int, Rows]]) -> tuple[int, list[Rows]]:
    """Forms (den, rows of numerator pairs) over the lcm of their
    denominators: the lcm, and each form's rows times lcm // den.  Canonical
    forms side by side over the lcm stay canonical: each prime of the lcm
    has its full power in some form's den, and that form's factor and one
    of its numerator components are prime to it."""
    den = lcm(*(d for d, _ in forms))
    return den, [times(rows, (den // d, 0)) for d, rows in forms]


def content(den: int, pairs: Iterable[Pair]) -> int:
    """The gcd of den and every numerator component: the factor whose
    division makes pairs / den canonical.  Stops once it reaches 1."""
    for re, im in pairs:
        if den == 1:
            break
        den = gcd(den, re, im)
    return den


def mul(x: Pair, y: Pair) -> Pair:
    """The Z[i] product x * y."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def power(x: Pair, exponent: int) -> Pair:
    """x ** exponent in Z[i], for exponent >= 0."""
    result = (1, 0)
    for _ in range(exponent):
        result = mul(result, x)
    return result


def reciprocal(y: Pair, den: int = 1) -> tuple[int, Pair]:
    """den / y for a nonzero Gaussian integer y, as (denominator, numerator)
    = (|y|^2, den * conj(y)), not reduced."""
    y_re, y_im = y
    return y_re * y_re + y_im * y_im, (den * y_re, -den * y_im)


def exact_div(xs: Iterable[Pair], y: Pair) -> list[Pair]:
    """Each x / y, for a y that divides every x in Z[i]."""
    norm, (c_re, c_im) = reciprocal(y)
    return [((re * c_re - im * c_im) // norm, (re * c_im + im * c_re) // norm) for re, im in xs]


def times(rows: Rows, s: Pair) -> Rows:
    """Every entry of rows times the Gaussian integer s: rows itself for
    s = 1, zero rows for s = 0."""
    s_re, s_im = s
    if s_im:
        return [tuple([(s_re * re - s_im * im, s_re * im + s_im * re) for re, im in row]) for row in rows]
    if s_re == 1:
        return rows
    if not s_re:
        return [((0, 0),) * len(rows[0])] * len(rows) if rows else []
    return [tuple([(s_re * re, s_re * im) for re, im in row]) for row in rows]


def kron(a: Rows, b: Rows) -> list[Sequence[Pair]]:
    """The rows of the Kronecker product a kron b: row (i, k) holds
    a[i][j] * b[k] for j = 0, 1, ... side by side."""
    if len(a[0]) == 1:
        return [row for (x,) in a for row in times(b, x)]
    return [tuple(chain.from_iterable(p)) for row_a in a for p in zip(*[times(b, x) for x in row_a])]


def combine(terms: Iterable[tuple[Pair, Sequence[Pair]]]) -> tuple[Pair, ...]:
    """sum c * x over the terms (c, x): Gaussian integers c times rows x of
    one length, past the zero coefficients, each term after the first
    added in one pass."""
    total = None
    for (c_re, c_im), x in terms:
        width = len(x)
        if total is None:
            total = times((x,), (c_re, c_im))[0] if c_re or c_im else None
        elif c_re or c_im:
            total = [(p + c_re * re - c_im * im, q + c_re * im + c_im * re) for (p, q), (re, im) in zip(total, x)]
    return ((0, 0),) * width if total is None else tuple(total)


def matvec(rows: Rows, column: Sequence[Pair]) -> list[Pair]:
    """Each row times the column, sum row[k] * column[k], past the row's
    zero entries."""
    out = []
    for row in rows:
        re = im = 0
        for (a, b), (c, d) in zip(row, column):
            if a or b:
                re += a * c - b * d
                im += a * d + b * c
        out.append((re, im))
    return out


def signed_digits(value: int, k: int) -> list[int]:
    """The signed base-2^k digits of value, least significant first: the
    d_p with value = sum d_p 2^(k p) and -2^(k-1) <= d_p < 2^(k-1), up to
    the last nonzero one (none for 0).  They are unique, so the integer
    coefficients c_p of a polynomial, each |c_p| < 2^(k-1), are the digits
    of its value at 2^k (Kronecker substitution).
    """
    base, half = 1 << k, 1 << (k - 1)
    mask = base - 1
    digits = []
    while value:
        d = value & mask
        if d >= half:
            d -= base
        digits.append(d)
        value = (value - d) >> k
    return digits


# A prime p = 1 (mod 4), so -1 has a square root s mod p and i -> s, with
# re + im*i -> re + im*s, is a ring map from Z[i] onto F_p (its kernel is
# the prime ideal (p, i - s)).  11 is the least quadratic non-residue mod p.
SQUARE_FREE_PRIME = 1_000_000_009
_SQRT_MINUS_ONE = pow(11, (SQUARE_FREE_PRIME - 1) // 4, SQUARE_FREE_PRIME)


def image_mod_p(pairs: Iterable[Pair]) -> list[int]:
    """The image in F_p of each Gaussian integer under i -> s, in range(p)."""
    p, s = SQUARE_FREE_PRIME, _SQRT_MINUS_ONE
    return [(re + im * s) % p for re, im in pairs]


def to_scalar(den: int, pair: Pair) -> GaussianRational:
    """The value pair / den, for den > 0."""
    return GaussianRational._from_form(pair[0], pair[1], den)


def max_abs(den: int, pairs: Iterable[Pair]) -> float:
    """The largest |pair / den|, from to_complex: each quotient is rounded
    correctly, so every denominator of the same values gives the same float."""
    return max(map(abs, to_complex(den, pairs)))


def to_complex(den: int, pairs: Iterable[Pair]) -> list[complex]:
    """Each pair / den as a complex.

    re / den is the correctly rounded quotient, as float(Fraction) is, so
    each value is the float its exact value converts to, and a value beyond
    the float range raises OverflowError.
    """
    return [complex(re / den, im / den) for re, im in pairs]
