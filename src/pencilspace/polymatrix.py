"""Matrices with bivariate-polynomial entries and their exact determinants.

Certificates multiply polynomial matrices (F * L * E) and compare them
entry-for-entry, so products here are exact.  Determinants of polynomial
matrices are computed by evaluating at an integer grid and interpolating
per variable: for a k x k matrix with maximum entry total degree t, the
determinant has degree at most d = k * t in each variable, so values at
the nodes 0..d determine it exactly.  Matrices whose entries involve only
one (or neither) variable take the correspondingly cheaper path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .bipoly import LAM, MU, BiPoly
from .errors import ShapeError
from .matrices import Matrix, bareiss_det_int
from .scalars import GaussianRational, ScalarLike


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


def newton_interpolate(values: Sequence[GaussianRational]) -> list[GaussianRational]:
    """Exact polynomial interpolation at the integer nodes 0..d.

    Given values p(0), ..., p(d) of a polynomial of degree <= d, return its
    ascending coefficient list via Newton divided differences (the node
    spacing is 1, so the differences divide by small integers exactly).
    """
    d = len(values) - 1
    table = list(values)
    for level in range(1, d + 1):
        for i in range(d, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / GaussianRational(level)
    # Expand the Newton form sum_k table[k] * prod_{i<k} (x - i).
    zero = GaussianRational(0)
    coeffs = [zero] * (d + 1)
    coeffs[0] = table[d]
    for node in range(d - 1, -1, -1):
        # multiply by (x - node), then add table[node]
        shifted = [zero] + coeffs[:-1]
        minus_node = GaussianRational(-node)
        coeffs = [s + c * minus_node for s, c in zip(shifted, coeffs)]
        coeffs[0] = coeffs[0] + table[node]
    return coeffs


def _integer_grid_det(m: PolyMatrix, scale: int):
    """Determinant evaluator over the integer node grid.

    All polynomial coefficients are pre-scaled by ``scale`` (their common
    denominator) to Gaussian-integer pairs, so each grid determinant is a
    pure Z[i] Bareiss run; the caller divides scale^size back out.
    """
    size = m.rows
    entries = []
    for row in m._data:
        for p in row:
            entries.append(
                [
                    (i, j, int(c.re * scale), int(c.im * scale))
                    for (i, j), c in p.terms()
                ]
            )

    max_lam = max((t[0] for terms in entries for t in terms), default=0)
    max_mu = max((t[1] for terms in entries for t in terms), default=0)

    def value(lam: int, mu: int) -> GaussianRational:
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
        d_re, d_im = bareiss_det_int(grid)
        factor = Fraction(1, scale**size)
        return GaussianRational(d_re * factor, d_im * factor)

    return value


def exact_det_poly(m: PolyMatrix) -> BiPoly:
    """Exact determinant of a polynomial matrix.

    Evaluates at the integer grid {0..d} per occurring variable (with
    d = size * max entry total degree) and interpolates; identical to the
    symbolic expansion.
    """
    if m.rows != m.cols:
        raise ShapeError("determinant requires a square matrix")
    uses_lam = any(p.degree_in(LAM) > 0 for row in m._data for p in row)
    uses_mu = any(p.degree_in(MU) > 0 for row in m._data for p in row)
    if not uses_lam and not uses_mu:
        return BiPoly.constant(m.to_scalar().det())
    d = m.rows * max(p.total_degree() for row in m._data for p in row)
    scale = 1
    for row in m._data:
        for p in row:
            for _, c in p.terms():
                scale = lcm(scale, c.re.denominator, c.im.denominator)
    det_at = _integer_grid_det(m, scale)
    if uses_lam and not uses_mu:
        coeffs = newton_interpolate([det_at(k, 0) for k in range(d + 1)])
        return BiPoly({(i, 0): c for i, c in enumerate(coeffs)})
    if uses_mu and not uses_lam:
        coeffs = newton_interpolate([det_at(0, k) for k in range(d + 1)])
        return BiPoly({(0, j): c for j, c in enumerate(coeffs)})
    # Full grid: interpolate in lam for each mu node, then in mu per
    # lam-coefficient.
    per_mu = []
    for j in range(d + 1):
        per_mu.append(newton_interpolate([det_at(k, j) for k in range(d + 1)]))
    terms = {}
    for i in range(d + 1):
        col = [per_mu[j][i] for j in range(d + 1)]
        mu_coeffs = newton_interpolate(col)
        for j, coeff in enumerate(mu_coeffs):
            if coeff:
                terms[(i, j)] = coeff
    return BiPoly(terms)


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
