"""Matrix polynomials in (lam, mu) and their exact determinants.

A polynomial matrix is the sum of lam^a * mu^b * M_ab over monomials
(a, b), stored as a map from (a, b) to its nonzero coefficient ``Matrix``:
the paper's own form lam*A1 + mu*A2 + A3.  Products, sums and exact
comparisons run one coefficient matrix at a time; the one product the
library forms is W * Z^-1, for the unimodular-pair factor F, and only
when a certificate's F is first read.

Determinants are evaluated by one Bareiss run at the Kronecker point
lam = 2^k, mu = 2^(k (d_lam + 1)), with k large enough that no coefficient
reaches 2^(k - 1) (a Hadamard-type bound), and read off the signed
base-2^k digits of the value (exact_det_poly): no node grid and no
interpolation.
Each row is cleared of denominators by its own factor, so one entry with
a huge denominator enlarges its row only, and Bareiss takes the rows in
ascending order of that factor, the largest last.
Whether two determinants are proportional (det_ratio) is first screened
in F_p, on the images of the values at the two integer points (1, 2) and
(2, 1), which reject almost every pair that is not, and otherwise decided
on both expansions, each read off the same one Kronecker point.  The
screen is exact: with p = gaussint.SQUARE_FREE_PRIME prime to every
denominator D of both matrices, i -> s (s^2 = -1 mod p) and 1/D -> D^-1
mod p is a ring map from Z[i][1/D] onto F_p, and det is a polynomial in
the entries, so the image of det m(x, y) is the F_p determinant of the
image of m(x, y).  det p = gamma det q forces
det p(1, 2) det q(2, 1) = det p(2, 1) det q(1, 2) in Z[i][1/D], and so
in F_p: a pair whose images differ there is not proportional.
The lam-degree bound is the smaller of the row and the column sums of the
largest entry lam-degrees, since every Leibniz term takes one entry from
each row and one from each column; it comes from the walk over the
entries that clears the denominators, and only for a pattern with a
perfect matching: without one, ``structural_rank``, the test
``Matrix.det`` makes too, gives the zero determinant.  The unimodular-pair
certificate does not come here for its factors E and F, whose constant
determinants it reads off how they are built (construct).
"""

from __future__ import annotations

from itertools import chain, zip_longest
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from . import gaussint
from .bipoly import BiPoly, Exponent
from .errors import ShapeError
from .matrices import Matrix, bareiss_det_int, det_mod_p, permutation_sign, structural_rank
from .scalars import GaussianRational, ScalarLike


class PolyMatrix:
    """An immutable rows x cols matrix polynomial sum lam^a mu^b M_ab."""

    __slots__ = ("rows", "cols", "_coeffs")

    def __init__(self, entries: Iterable[Iterable[BiPoly]]):
        """Build from a grid of BiPoly entries, one coefficient grid per
        monomial, all over the lcm of the entries' denominators."""
        grid = [[entry.integer_form() for entry in row] for row in entries]
        if not grid or not grid[0]:
            raise ShapeError("matrix must have at least one row and one column")
        rows, cols = len(grid), len(grid[0])
        if any(len(row) != cols for row in grid):
            raise ShapeError("ragged rows in matrix literal")
        den = lcm(*(d for row in grid for d, _ in row))
        values: dict = {}
        for i, row in enumerate(grid):
            for j, (d, terms) in enumerate(row):
                f = den // d
                for mono, (re, im) in terms.items():
                    if mono not in values:
                        values[mono] = [[(0, 0)] * cols for _ in range(rows)]
                    values[mono][i][j] = (re * f, im * f)
        _init(
            self, rows, cols, {mono: Matrix.from_integer_form(den, v) for mono, v in values.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_coefficients(rows: int, cols: int, coeffs: Mapping[Exponent, Matrix]) -> "PolyMatrix":
        """sum lam^a mu^b coeffs[(a, b)], each coefficient rows x cols."""
        for m in coeffs.values():
            if m.shape != (rows, cols):
                raise ShapeError(f"coefficient shape {m.shape}, expected {(rows, cols)}")
        p = PolyMatrix.__new__(PolyMatrix)
        _init(p, rows, cols, {mono: m for mono, m in coeffs.items() if not m.is_zero()})
        return p

    @staticmethod
    def from_scalar(m: Matrix) -> "PolyMatrix":
        return PolyMatrix.from_coefficients(m.rows, m.cols, {(0, 0): m})

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        return PolyMatrix.from_coefficients(rows, cols, {})

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix.from_scalar(Matrix.identity(n))

    @staticmethod
    def from_blocks(grid: Sequence[Sequence["PolyMatrix"]]) -> "PolyMatrix":
        """Assemble a 2-D grid of conformal blocks, one Matrix.from_blocks
        per monomial (a block without that monomial contributes zeros)."""
        monomials = {mono for block_row in grid for block in block_row for mono in block._coeffs}
        coeffs = {
            mono: Matrix.from_blocks(
                [[block.coefficient(mono) for block in block_row] for block_row in grid]
            )
            # (0, 0) for an all-zero grid, so its shapes are still checked.
            for mono in sorted(monomials) or [(0, 0)]
        }
        shape = next(iter(coeffs.values())).shape
        return PolyMatrix.from_coefficients(*shape, coeffs)

    # -- element access ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> BiPoly:
        return BiPoly({mono: m[key] for mono, m in self._coeffs.items()})

    def coefficient(self, mono: Exponent) -> Matrix:
        """The coefficient matrix of lam^a mu^b, zero if absent."""
        return self._coeffs.get(mono) or Matrix.zeros(self.rows, self.cols)

    def terms(self) -> Iterator[tuple[Exponent, Matrix]]:
        """The nonzero coefficients, in sorted monomial order."""
        for mono in sorted(self._coeffs):
            yield mono, self._coeffs[mono]

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_shape(other)
        coeffs = dict(self._coeffs)
        for mono, m in other._coeffs.items():
            coeffs[mono] = coeffs[mono] + m if mono in coeffs else m
        return PolyMatrix.from_coefficients(self.rows, self.cols, coeffs)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix.from_coefficients(
            self.rows, self.cols, {mono: -m for mono, m in self._coeffs.items()}
        )

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        coeffs: dict = {}
        for (a1, b1), x in self._coeffs.items():
            for (a2, b2), y in other._coeffs.items():
                mono = (a1 + a2, b1 + b2)
                product = x @ y
                coeffs[mono] = coeffs[mono] + product if mono in coeffs else product
        return PolyMatrix.from_coefficients(self.rows, other.cols, coeffs)

    # -- evaluation -------------------------------------------------------------------

    def eval(self, lam: ScalarLike, mu: ScalarLike) -> Matrix:
        """Exact evaluation at a Gaussian-rational point."""
        lam = GaussianRational.coerce(lam)
        mu = GaussianRational.coerce(mu)
        out = Matrix.zeros(self.rows, self.cols)
        for (a, b), m in self._coeffs.items():
            out = out + m.scale(lam**a * mu**b)
        return out

    # -- inspection ---------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.shape == other.shape and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.shape, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        return "\n".join(
            "[" + " | ".join(str(self[i, j]) for j in range(self.cols)) + "]"
            for i in range(self.rows)
        )

    def _require_same_shape(self, other: "PolyMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")


def _init(p: PolyMatrix, rows: int, cols: int, coeffs: dict) -> None:
    object.__setattr__(p, "rows", rows)
    object.__setattr__(p, "cols", cols)
    object.__setattr__(p, "_coeffs", coeffs)


def _integer_grid_det(m: PolyMatrix):
    """None when det m is structurally zero (ShapeError unless m is
    square); otherwise the bound d_lam on its lam-degree, and the scale,
    the coefficient bound and the evaluator of its determinant at integer
    points, all from one walk over the entries of m.

    Without a perfect matching in the nonzero pattern (``structural_rank``,
    the test ``Matrix.det`` makes too) every Leibniz term holds a zero
    entry.  Otherwise every term takes one entry from each row and one from
    each column, so its lam-degree is at most the sum over the rows of the
    largest lam-degree in each, and at most the same sum over the columns:
    d_lam is the smaller sum.

    Row i of every coefficient matrix is brought to its own denominator
    s_i, the lcm of the reduced denominators of its nonzero entries over
    all the coefficient matrices, so the value at a point,
    sum lam^a mu^b M_ab, summed over the nonzero entries only, is a
    Gaussian-integer matrix N(lam, mu) and its determinant a pure Z[i]
    Bareiss run, returned as the (re, im) pair of scale * det m(lam, mu),
    where the scale is s_1 * ... * s_size.  The s_i and the numerators
    depend on the values alone, so each coefficient is read in its stored
    form, not reduced.  An extreme denominator in one row thus inflates
    that row only, and Bareiss takes the rows in ascending order of their
    scale (a stable sort, its sign applied to each value), so that row is
    eliminated last and every leading minor before it stays small.

    The bound is P = prod_i sum_j w_ij^2, w_ij the sum of |re| + |im| over
    the terms of N_ij: on the torus |lam| = |mu| = 1 each |N_ij| <= w_ij, so
    |det N| <= sqrt(P) there (Hadamard), and so is every coefficient of
    det N (Cauchy's estimate; Goldstein & Graham, SIAM Rev. 16, 1974).
    """
    if m.rows != m.cols:
        raise ShapeError("determinant requires a square matrix")
    size = m.rows
    forms = [(mono, coeff._stored_form()) for mono, coeff in m._coeffs.items()]
    # ((a, b), i, j, re, im, den): M_ab[i, j] = (re + im i) / den, nonzero only
    entries = [
        (mono, i, j, re, im, den)
        for mono, (den, data) in forms
        for i, row in enumerate(data)
        for j, (re, im) in enumerate(row)
        if re or im
    ]
    row_scales = [1] * size
    # the largest lam-degree in each row and in each column
    row_tops = [0] * size
    col_tops = [0] * size
    for (a, _), i, j, re, im, den in entries:
        row_scales[i] = lcm(row_scales[i], den // gcd(den, re, im))
        row_tops[i] = max(row_tops[i], a)
        col_tops[j] = max(col_tops[j], a)
    order = sorted(range(size), key=row_scales.__getitem__)
    position = {i: k for k, i in enumerate(order)}
    sign = permutation_sign(order)
    # the numerators of s_i * M_ab[i, j], row i moved to its position; each
    # division is exact
    terms = [
        (a, b, position[i], j, re * row_scales[i] // den, im * row_scales[i] // den)
        for (a, b), i, j, re, im, den in entries
    ]
    weights = [[0] * size for _ in range(size)]
    for _, _, i, j, c_re, c_im in terms:
        weights[i][j] += abs(c_re) + abs(c_im)
    # the nonzero pattern, rows permuted
    if structural_rank([[j for j, w in enumerate(row) if w] for row in weights], size) < size:
        return None

    def value(lam: int, mu: int) -> tuple[int, int]:
        re = [[0] * size for _ in range(size)]
        im = [[0] * size for _ in range(size)]
        for a, b, i, j, c_re, c_im in terms:
            w = lam**a * mu**b
            re[i][j] += c_re * w
            im[i][j] += c_im * w
        d_re, d_im = bareiss_det_int([list(zip(r, s)) for r, s in zip(re, im)])
        return (sign * d_re, sign * d_im)

    d_lam = min(sum(row_tops), sum(col_tops))
    return d_lam, prod(row_scales), prod(sum(w * w for w in row) for row in weights), value


def _digit_width(bound: int) -> int:
    """k = bits(bound) // 2 rounded up, plus 1, so that sqrt(bound) <
    2^(k - 1): the base 2^k in which the Gaussian-integer coefficients of a
    polynomial bounded in modulus by sqrt(bound) are its value's signed
    digits, real and imaginary parts apart."""
    return (bound.bit_length() + 1) // 2 + 1


def _coefficients_at(value: tuple[int, int], k: int) -> list[tuple[int, int]]:
    """The ascending Gaussian-integer coefficients of a polynomial in one
    variable from its value at 2^k, given every coefficient's parts below
    2^(k - 1) in absolute value; the last one is nonzero."""
    re, im = (gaussint.signed_digits(v, k) for v in value)
    return list(zip_longest(re, im, fillvalue=0))


def _kronecker_read(grid) -> tuple[int, dict[Exponent, tuple[int, int]]]:
    """The scale and the nonzero (re, im) coefficients of scale * det m,
    from the _integer_grid_det of m.

    With d_lam the bound on the lam-degree and P the coefficient bound, one
    Bareiss run at lam = 2^k, mu = 2^(k (d_lam + 1)), k = _digit_width(P),
    gives scale * det m there, and the coefficient of lam^a mu^b is its
    signed base-2^k digit a + b (d_lam + 1), the real and imaginary parts
    apart.
    """
    d_lam, scale, bound, det_at = grid
    width = d_lam + 1
    k = _digit_width(bound)
    coeffs = _coefficients_at(det_at(1 << k, 1 << (k * width)), k)
    return scale, {(p % width, p // width): c for p, c in enumerate(coeffs) if c != (0, 0)}


def exact_det_poly(m: PolyMatrix) -> BiPoly:
    """Exact determinant of a polynomial matrix.

    One Bareiss run at a Kronecker point (_kronecker_read) gives every
    coefficient of scale * det m, each divided once by the scale (the
    product of the row scales of _integer_grid_det).  Identical to the
    symbolic expansion.  A structurally singular m (``structural_rank`` of
    its nonzero pattern below its size) gives the zero polynomial without
    any evaluation.
    """
    grid = _integer_grid_det(m)
    if grid is None:
        return BiPoly.zero()
    return BiPoly.from_integer_form(*_kronecker_read(grid))


def _screen_images(m: PolyMatrix) -> tuple[list[list[int]], list[list[int]]] | None:
    """The images in F_p of m(1, 2) and m(2, 1) under gaussint.image_mod_p,
    each coefficient's stored form mapped once (values alone count here), or
    None when p divides one of the stored denominators."""
    p = gaussint.SQUARE_FREE_PRIME
    size = m.rows
    # row-major, entry i * size + j
    at_12 = at_21 = [0] * (size * size)
    for (a, b), coeff in m._coeffs.items():
        den, data = coeff._stored_form()
        if not den % p:
            return None
        inv = pow(den, -1, p)
        # lam^a mu^b / den at (1, 2) and at (2, 1)
        w_12, w_21 = (inv << b) % p, (inv << a) % p
        image = gaussint.image_mod_p(chain.from_iterable(data))
        at_12 = [x + y * w_12 for x, y in zip(at_12, image)]
        at_21 = [x + y * w_21 for x, y in zip(at_21, image)]
    return tuple([flat[k : k + size] for k in range(0, size * size, size)] for flat in (at_12, at_21))


def det_ratio(p: PolyMatrix, q: PolyMatrix) -> GaussianRational | None:
    """Return gamma with det p = gamma * det q exactly, or None if not
    proportional.

    Raises ShapeError unless both are square, and ZeroDivisionError when
    det q vanishes identically.  When det p vanishes identically and det q
    does not, gamma is 0, so a caller that needs a nonzero ratio must treat
    0 as failure.  Two steps:

    * a screen in F_p (_screen_images, skipped when p divides a
      denominator): det p = gamma * det q forces
      det p(1, 2) det q(2, 1) = det p(2, 1) det q(1, 2) in Z[i][1/D], D the
      product of the denominators, and the map to F_p is a ring
      homomorphism there, so a pair whose images differ is not
      proportional; four F_p eliminations, and no Bareiss run, reject it;
    * otherwise both determinants are expanded (_kronecker_read, on the
      scaled integer values of _integer_grid_det, whose scales cancel), and
      det p = gamma * det q iff they have the same support and
      p_e * y = q_e * x at every monomial e, for the coefficients x of
      det p and y of det q at one monomial; then gamma = x / y.
    """
    if p.rows != p.cols or q.rows != q.cols:
        raise ShapeError("determinant requires a square matrix")
    modulus = gaussint.SQUARE_FREE_PRIME
    p_images = _screen_images(p)
    q_images = p_images and _screen_images(q)
    if q_images:
        (p_12, p_21), (q_12, q_21) = (
            [det_mod_p(a, modulus) for a in images] for images in (p_images, q_images)
        )
        if (p_12 * q_21 - p_21 * q_12) % modulus:
            return None
    p_grid = _integer_grid_det(p)
    q_grid = _integer_grid_det(q)
    if q_grid is None:
        raise ZeroDivisionError("proportionality against the zero determinant")
    q_scale, q_terms = _kronecker_read(q_grid)
    if not q_terms:
        raise ZeroDivisionError("proportionality against the zero determinant")
    p_scale, p_terms = (1, {}) if p_grid is None else _kronecker_read(p_grid)
    if not p_terms:
        return GaussianRational(0)
    if p_terms.keys() != q_terms.keys():
        return None
    first = min(q_terms)
    x, y = p_terms[first], q_terms[first]
    if any(gaussint.mul(p_terms[e], y) != gaussint.mul(c, x) for e, c in q_terms.items()):
        return None
    # gamma = (x / p_scale) / (y / q_scale)
    norm, s = gaussint.reciprocal(y, q_scale)
    return gaussint.to_scalar(norm * p_scale, gaussint.mul(x, s))
