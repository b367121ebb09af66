"""Dense matrices over the Gaussian rationals.

The block machinery (3x3 grids of n x n blocks, Kronecker products,
stacking) lives here together with the exact kernels every verdict relies
on: a fraction-free (Bareiss) determinant, an exact rank, and Gauss-Jordan
inversion.  Matrices are immutable tuples of tuples; all operations return
new values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ShapeError
from .scalars import GaussianRational, ScalarLike, clear_denominators


class Matrix:
    """An immutable rows x cols matrix of GaussianRational entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]]):
        data = tuple(
            tuple(GaussianRational.coerce(v) for v in row) for row in entries
        )
        if not data or not data[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ShapeError("ragged rows in matrix literal")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        zero = GaussianRational(0)
        return _wrap(tuple(tuple(zero for _ in range(cols)) for _ in range(rows)), rows, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        zero, one = GaussianRational(0), GaussianRational(1)
        return _wrap(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
            n,
            n,
        )

    @staticmethod
    def column(values: Iterable[ScalarLike]) -> "Matrix":
        return Matrix([[v] for v in values])

    @staticmethod
    def from_blocks(grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a 2-D grid of conformal blocks."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        rows: list[tuple[GaussianRational, ...]] = []
        width = None
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("blocks in a row must have equal height")
            for i in range(height):
                row: tuple[GaussianRational, ...] = ()
                for block in block_row:
                    row = row + block._data[i]
                rows.append(row)
            if width is None:
                width = len(rows[-1])
            elif len(rows[-1]) != width:
                raise ShapeError("block rows must have equal total width")
        return _wrap(tuple(rows), len(rows), width)

    @staticmethod
    def hstack(blocks: Sequence["Matrix"]) -> "Matrix":
        return Matrix.from_blocks([list(blocks)])

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        return Matrix.from_blocks([[b] for b in blocks])

    # -- element access -------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        return self._data[i][j]

    def row_entries(self, i: int) -> tuple[GaussianRational, ...]:
        return self._data[i]

    def submatrix(self, row_range: range, col_range: range) -> "Matrix":
        return Matrix([[self._data[i][j] for j in col_range] for i in row_range])

    def block(self, block_row: int, block_col: int, size: int) -> "Matrix":
        """Extract the (block_row, block_col) block of an n-blocked matrix."""
        return self.submatrix(
            range(block_row * size, (block_row + 1) * size),
            range(block_col * size, (block_col + 1) * size),
        )

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return _wrap(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self._data, other._data)
            ),
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other)
        return _wrap(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self._data, other._data)
            ),
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, scalar: ScalarLike) -> "Matrix":
        s = GaussianRational.coerce(scalar)
        return _wrap(
            tuple(tuple(v * s for v in row) for row in self._data),
            self.rows,
            self.cols,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        cols = tuple(zip(*other._data))
        zero = GaussianRational(0)
        return _wrap(
            tuple(
                tuple(sum((a * b for a, b in zip(row, col)), zero) for col in cols)
                for row in self._data
            ),
            self.rows,
            other.cols,
        )

    # -- exact linear algebra -------------------------------------------------------

    def det(self) -> GaussianRational:
        """Exact determinant by fraction-free (Bareiss) elimination.

        Denominators are cleared up front so the elimination runs on raw
        Gaussian-integer pairs; every Bareiss quotient is an exact division
        in Z[i].  The common scale is divided back out at the end.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant requires a square matrix")
        n = self.rows
        scale, flat = clear_denominators(v for row in self._data for v in row)
        d_re, d_im = bareiss_det_int([flat[k * n : (k + 1) * n] for k in range(n)])
        factor = Fraction(1, scale**n)
        return GaussianRational(d_re * factor, d_im * factor)

    def rank(self) -> int:
        """Exact rank by fraction-free (Bareiss) forward elimination.

        Row scaling leaves the rank unchanged, so each row's denominators
        are cleared first and the elimination runs on Gaussian-integer
        pairs with exact divisions only.
        """
        a = [clear_denominators(row)[1] for row in self._data]
        return sum(1 for _ in _bareiss_pivots(a, self.cols))

    def inverse(self) -> "Matrix":
        """Exact inverse by Gauss-Jordan elimination."""
        if self.rows != self.cols:
            raise ShapeError("inverse requires a square matrix")
        n = self.rows
        a = [list(row) + list(Matrix.identity(n)._data[i]) for i, row in enumerate(self._data)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if a[r][col]), None)
            if pivot_row is None:
                raise ShapeError("matrix is singular")
            a[col], a[pivot_row] = a[pivot_row], a[col]
            pivot = a[col][col]
            a[col] = [v / pivot for v in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    factor = a[r][col]
                    a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
        return Matrix([row[n:] for row in a])

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) equals self[i, j] * other."""
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
        return _wrap(tuple(rows), self.rows * other.rows, self.cols * other.cols)

    # -- predicates and conversions -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(not v for row in self._data for v in row)

    def max_abs(self) -> float:
        return max(abs(v.to_complex()) for row in self._data for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(str(v) for v in row) + "]" for row in self._data)

    def __repr__(self) -> str:
        return f"Matrix({[[str(v) for v in row] for row in self._data]})"

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")


def _wrap(data: tuple, rows: int, cols: int) -> Matrix:
    m = Matrix.__new__(Matrix)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "_data", data)
    return m


def _bareiss_pivots(a: list[list[tuple[int, int]]], cols: int):
    """Fraction-free (Bareiss) forward elimination of Gaussian-integer rows.

    Works on ``a`` in place, column by column, skipping columns without a
    pivot.  At each pivot it first moves the pivot row up to the current
    rank and yields ``(col, swapped)``, then eliminates below it when
    resumed, so a caller that stops iterating skips the remaining work.
    Every intermediate entry is a minor of the input (a Gaussian integer),
    so each quotient by the previous pivot is exact in Z[i].
    """
    rows = len(a)
    rank = 0
    prev_re, prev_im, prev_norm = 1, 0, 1
    for col in range(cols):
        for pivot_row in range(rank, rows):
            if a[pivot_row][col] != (0, 0):
                break
        else:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        yield col, pivot_row != rank
        p_re, p_im = a[rank][col]
        row_p = a[rank]
        for i in range(rank + 1, rows):
            row_i = a[i]
            l_re, l_im = row_i[col]
            for j in range(col + 1, cols):
                x_re, x_im = row_i[j]
                y_re, y_im = row_p[j]
                # (x * pivot - lead * y) / prev, exactly in Z[i]
                t_re = x_re * p_re - x_im * p_im - (l_re * y_re - l_im * y_im)
                t_im = x_re * p_im + x_im * p_re - (l_re * y_im + l_im * y_re)
                row_i[j] = (
                    (t_re * prev_re + t_im * prev_im) // prev_norm,
                    (t_im * prev_re - t_re * prev_im) // prev_norm,
                )
            row_i[col] = (0, 0)
        prev_re, prev_im = p_re, p_im
        prev_norm = prev_re * prev_re + prev_im * prev_im
        rank += 1
        if rank == rows:
            return


def bareiss_det_int(a: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Determinant of a Gaussian-integer matrix given as (re, im) int pairs.

    The input list is consumed.  The elimination stops at the first column
    without a pivot, where the determinant is zero.
    """
    sign = 1
    for k, (col, swapped) in enumerate(_bareiss_pivots(a, len(a))):
        if col != k:
            return (0, 0)
        if swapped:
            sign = -sign
    # The last Bareiss pivot is the determinant up to sign; it is zero when
    # the elimination ended without a pivot in the last column.
    d_re, d_im = a[-1][-1]
    return (sign * d_re, sign * d_im)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Module-level alias for the Kronecker product."""
    return a.kron(b)
