"""Matrices with bivariate-polynomial entries and their exact determinants.

Certificates multiply polynomial matrices (F * L * E) and compare them
entry-for-entry, so products here are exact.  Determinants of polynomial
matrices are computed by evaluation and interpolation on integers.  Every
term of a determinant takes one entry per row and one per column, so its
lam-, mu- and total degree are bounded by the row sums, and by the column
sums, of the largest entry degrees.  The determinant's support then lies in
the lower set S = {(a, b) : b <= d_mu, a <= min(d_lam, d - b)}; the scaled
Gaussian-integer determinant is evaluated by Bareiss at the nodes of S,
interpolated in the Newton basis by integer forward differences, and each
monomial coefficient is divided out once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .bipoly import LAM, MU, BiPoly
from .errors import ShapeError
from .matrices import Matrix, bareiss_det_int
from .scalars import GaussianRational, ScalarLike, clear_denominators


class PolyMatrix:
    """An immutable rows x cols matrix of BiPoly entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Iterable[Iterable[BiPoly]]):
        data = tuple(tuple(_as_poly(v) for v in row) for row in entries)
        if not data or not data[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeError("ragged rows in matrix literal")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_scalar(m: Matrix) -> "PolyMatrix":
        return PolyMatrix(
            [[BiPoly.constant(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "PolyMatrix":
        zero = BiPoly.zero()
        return PolyMatrix([[zero] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix.from_scalar(Matrix.identity(n))

    @staticmethod
    def from_blocks(grid: Sequence[Sequence["PolyMatrix"]]) -> "PolyMatrix":
        rows: list[tuple[BiPoly, ...]] = []
        width = None
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("blocks in a row must have equal height")
            for i in range(height):
                row: tuple[BiPoly, ...] = ()
                for block in block_row:
                    row = row + block._data[i]
                rows.append(row)
            if width is None:
                width = len(rows[-1])
            elif len(rows[-1]) != width:
                raise ShapeError("block rows must have equal total width")
        return PolyMatrix(rows)

    # -- element access ----------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> BiPoly:
        i, j = key
        return self._data[i][j]

    def submatrix(self, row_range: range, col_range: range) -> "PolyMatrix":
        return PolyMatrix([[self._data[i][j] for j in col_range] for i in row_range])

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_shape(other)
        return PolyMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self._data, other._data)
            )
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._require_same_shape(other)
        return PolyMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self._data, other._data)
            )
        )

    def __neg__(self) -> "PolyMatrix":
        return self.scale(-1)

    def scale(self, scalar) -> "PolyMatrix":
        if isinstance(scalar, BiPoly):
            return PolyMatrix(tuple(tuple(v * scalar for v in row) for row in self._data))
        s = GaussianRational.coerce(scalar)
        return PolyMatrix(tuple(tuple(v * s for v in row) for row in self._data))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        cols = tuple(zip(*other._data))
        zero = BiPoly.zero()
        return PolyMatrix(
            tuple(
                tuple(sum((a * b for a, b in zip(row, col)), zero) for col in cols)
                for row in self._data
            )
        )

    def kron(self, other: "PolyMatrix") -> "PolyMatrix":
        rows = []
        for i in range(self.rows):
            for p in range(other.rows):
                rows.append(
                    tuple(
                        self._data[i][j] * other._data[p][q]
                        for j in range(self.cols)
                        for q in range(other.cols)
                    )
                )
        return PolyMatrix(rows)

    # -- evaluation -------------------------------------------------------------------

    def eval(self, lam: ScalarLike, mu: ScalarLike) -> Matrix:
        """Exact evaluation at a Gaussian-rational point."""
        return Matrix([[p.eval(lam, mu) for p in row] for row in self._data])

    # -- inspection ---------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self._data for p in row)

    def is_constant(self) -> bool:
        return all(p.is_constant() for row in self._data for p in row)

    def to_scalar(self) -> Matrix:
        """Round-trip a degree-0 PolyMatrix back to a scalar matrix."""
        return Matrix([[p.constant_value() for p in row] for row in self._data])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __str__(self) -> str:
        return "\n".join("[" + " | ".join(str(p) for p in row) + "]" for row in self._data)

    def _require_same_shape(self, other: "PolyMatrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")


def _as_poly(value) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    return BiPoly.constant(GaussianRational.coerce(value))


def _differences(line: list[int]) -> list[int]:
    """Forward differences at 0: entry k of the result is (Delta^k f)(0),
    given the values f(0), ..., f(len - 1)."""
    line = list(line)
    for level in range(1, len(line)):
        for i in range(len(line) - 1, level - 1, -1):
            line[i] -= line[i - 1]
    return line


def _newton_weights(d: int) -> list[list[int]]:
    """w[k][i] = s(k, i) * d!/k! for k <= d, s the signed Stirling numbers
    of the first kind, so that (d!/k!) * x(x-1)...(x-k+1) = sum_i w[k][i] x^i."""
    stirling = [[1]]
    for k in range(d):
        prev = stirling[-1] + [0]
        stirling.append([(prev[i - 1] if i else 0) - k * prev[i] for i in range(k + 2)])
    return [
        [s * (factorial(d) // factorial(k)) for s in row] for k, row in enumerate(stirling)
    ]


def _to_monomial(line: list[int], weights: list[list[int]]) -> list[int]:
    """Newton-to-monomial map on one line of forward differences."""
    return [
        sum(line[k] * weights[k][i] for k in range(i, len(line))) for i in range(len(line))
    ]


def _rows_then_columns(table: list[list[int]], row_op, col_op) -> list[list[int]]:
    """Apply row_op to every row of a staircase table, then col_op to every
    column (rows are non-increasing in length, so column a is the prefix of
    rows longer than a)."""
    table = [row_op(row) for row in table]
    for a in range(len(table[0])):
        height = sum(1 for row in table if len(row) > a)
        col = col_op([table[b][a] for b in range(height)])
        for b in range(height):
            table[b][a] = col[b]
    return table


def _lower_set_coeffs(values: list[list[int]]) -> list[list[int]]:
    """Integer interpolation on a staircase lower set of integer nodes.

    values[b][a] = p(a, b) for the nodes S = {(a, b) : a < len(values[b])},
    with row lengths non-increasing in b, for a polynomial p whose support
    lies in S.  Returns, in the same shape, the coefficient of lam^a mu^b
    in p times d_lam! * d_mu!, where d_lam = len(values[0]) - 1 and
    d_mu = len(values) - 1; for integer values these are integers.

    The Newton coefficient of N_k(lam) N_l(mu), with
    N_k(x) = x(x-1)...(x-k+1), is the tensor forward difference over
    [0..k] x [0..l] divided by k! l!; S is downward closed, so that box
    lies in S and differencing each row and then each column is exact.
    Expanding N_k by Stirling numbers then gives the monomial coefficients.
    """
    w_lam = _newton_weights(len(values[0]) - 1)
    w_mu = _newton_weights(len(values) - 1)
    newton = _rows_then_columns(values, _differences, _differences)
    return _rows_then_columns(
        newton, lambda row: _to_monomial(row, w_lam), lambda col: _to_monomial(col, w_mu)
    )


def newton_interpolate(values: Sequence[GaussianRational]) -> list[GaussianRational]:
    """Exact polynomial interpolation at the integer nodes 0..d.

    Given values p(0), ..., p(d) of a polynomial of degree <= d, return its
    ascending coefficient list.  This is the one-variable case of the
    lower-set kernel: the values are scaled to a common denominator D,
    interpolated on integers, and each coefficient is divided by d! * D.
    """
    scale, pairs = clear_denominators(values)
    re = _lower_set_coeffs([[v[0] for v in pairs]])[0]
    im = _lower_set_coeffs([[v[1] for v in pairs]])[0]
    denom = factorial(len(values) - 1) * scale
    return [GaussianRational(Fraction(r, denom), Fraction(i, denom)) for r, i in zip(re, im)]


def _degree_bounds(m: PolyMatrix) -> tuple[int, int, int]:
    """Bounds (d_lam, d_mu, d) on the lam-, mu- and total degree of det m.

    Every term of the determinant takes one entry from each row and one
    from each column, so each degree is at most the sum over rows of the
    row's largest entry degree, and at most the same sum over columns (a
    zero entry counts as 0); the smaller sum is the bound.
    """
    degrees = [
        [(p.degree_in(LAM), p.degree_in(MU), p.total_degree()) for p in row]
        for row in m._data
    ]
    bounds = []
    for axis in range(3):
        # max(0, ...): a zero entry has degree -1 and counts as 0.
        by_rows = sum(max(0, *(e[axis] for e in row)) for row in degrees)
        by_cols = sum(max(0, *(e[axis] for e in col)) for col in zip(*degrees))
        bounds.append(min(by_rows, by_cols))
    d_lam, d_mu, d = bounds
    return d_lam, d_mu, d


def _integer_grid_det(m: PolyMatrix):
    """Determinant evaluator at integer nodes, and its scale.

    All polynomial coefficients are pre-scaled by ``scale`` (their common
    denominator) to Gaussian-integer pairs, so each node's determinant is
    a pure Z[i] Bareiss run, returned as the (re, im) pair of
    scale^size * det m(lam, mu).
    """
    size = m.rows
    entry_terms = [list(p.terms()) for row in m._data for p in row]
    scale, pairs = clear_denominators(c for terms in entry_terms for _, c in terms)
    scaled = iter(pairs)
    entries = [[(i, j, *next(scaled)) for (i, j), _ in terms] for terms in entry_terms]
    max_lam = max((t[0] for terms in entries for t in terms), default=0)
    max_mu = max((t[1] for terms in entries for t in terms), default=0)

    def value(lam: int, mu: int) -> tuple[int, int]:
        lam_pows = [1]
        for _ in range(max_lam):
            lam_pows.append(lam_pows[-1] * lam)
        mu_pows = [1]
        for _ in range(max_mu):
            mu_pows.append(mu_pows[-1] * mu)
        grid = []
        idx = 0
        for _ in range(size):
            row_vals = []
            for _ in range(size):
                acc_re = acc_im = 0
                for i, j, c_re, c_im in entries[idx]:
                    w = lam_pows[i] * mu_pows[j]
                    acc_re += c_re * w
                    acc_im += c_im * w
                row_vals.append((acc_re, acc_im))
                idx += 1
            grid.append(row_vals)
        return bareiss_det_int(grid)

    return scale, value


def exact_det_poly(m: PolyMatrix) -> BiPoly:
    """Exact determinant of a polynomial matrix.

    With (d_lam, d_mu, d) the row/column degree bounds of _degree_bounds,
    the determinant's support lies in the lower set
    S = {(a, b) : b <= d_mu, a <= min(d_lam, d - b)}.  Evaluates the
    scaled integer determinant at the nodes of S by Bareiss, interpolates
    on integers, and divides each coefficient once by
    d_lam! * d_mu! * scale^size; identical to the symbolic expansion.
    """
    if m.rows != m.cols:
        raise ShapeError("determinant requires a square matrix")
    if m.is_constant():
        return BiPoly.constant(m.to_scalar().det())
    d_lam, d_mu, d = _degree_bounds(m)
    scale, det_at = _integer_grid_det(m)
    grid = [[det_at(a, b) for a in range(min(d_lam, d - b) + 1)] for b in range(d_mu + 1)]
    re = _lower_set_coeffs([[v[0] for v in row] for row in grid])
    im = _lower_set_coeffs([[v[1] for v in row] for row in grid])
    denom = factorial(d_lam) * factorial(d_mu) * scale**m.rows
    return BiPoly(
        {
            (a, b): GaussianRational(Fraction(re[b][a], denom), Fraction(im[b][a], denom))
            for b in range(d_mu + 1)
            for a in range(len(re[b]))
            if re[b][a] or im[b][a]
        }
    )


def poly_div_constant_ratio(p: BiPoly, q: BiPoly) -> GaussianRational | None:
    """Return gamma with p = gamma * q exactly, or None if not proportional.

    q must be nonzero.  A zero p yields gamma = 0; callers that need a
    nonzero ratio must treat that as failure.
    """
    if q.is_zero():
        raise ZeroDivisionError("proportionality against the zero polynomial")
    if p.is_zero():
        return GaussianRational(0)
    q_terms = dict(q.terms())
    p_terms = dict(p.terms())
    if set(q_terms) != set(p_terms):
        return None
    exponent = next(iter(sorted(q_terms)))
    gamma = p_terms[exponent] / q_terms[exponent]
    for exp, coeff in q_terms.items():
        if p_terms[exp] != gamma * coeff:
            return None
    return gamma
