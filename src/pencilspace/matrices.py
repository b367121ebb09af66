"""Dense matrices over the Gaussian rationals, stored on integers.

A matrix holds any integer form of ``gaussint``: one positive denominator
over the (re, im) numerators of its entries, as built.  Readers of values
alone read it as stored (``_stored_form``); ``integer_form``, ``==``, ``hash``,
eliminations and products read the canonical form, computed once and
kept, and products, sums, scalings and inverses are reduced.  All
arithmetic runs on ints;
``GaussianRational`` appears only where entries come in or go out.
Determinant, rank and inverse share one fraction-free (Bareiss) elimination
over Z[i].  Before any elimination, det checks the nonzero pattern: without a
perfect matching of rows to columns every Leibniz term has a zero factor,
so the determinant is exactly 0 (structural rank, after Duff's maximum
transversal).  ``det_mod_p`` is the Gaussian elimination over F_p that
gives the images of determinants for the det-ratio screen of ``polymatrix``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from . import gaussint
from .errors import ShapeError
from .gaussint import Pair
from .scalars import GaussianRational, ScalarLike


class Matrix:
    """An immutable rows x cols matrix over Q(i), stored as Gaussian-integer
    numerators over one positive common denominator."""

    __slots__ = ("rows", "cols", "_den", "_data", "_canonical")

    def __init__(self, entries: Iterable[Iterable[ScalarLike]]):
        values = [[GaussianRational.coerce(v) for v in row] for row in entries]
        if not values or not values[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(values[0])
        if any(len(row) != width for row in values):
            raise ShapeError("ragged rows in matrix literal")
        # from_scalars gives the canonical form.
        den, pairs = gaussint.from_scalars(chain.from_iterable(values))
        _init(self, tuple(tuple(pairs[k : k + width]) for k in range(0, len(pairs), width)), den)
        _set_canonical(self, True)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return _new((((0, 0),) * cols,) * rows, 1)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _new(
            tuple(tuple((1, 0) if i == j else (0, 0) for j in range(n)) for i in range(n)), 1
        )

    @staticmethod
    def from_integer_form(den: int, data: Iterable[Iterable[Pair]]) -> "Matrix":
        """The matrix data / den from rows of (re, im) numerator pairs over a
        positive denominator, kept as given; the inverse of ``integer_form``."""
        return _stored(tuple(map(tuple, data)), den)

    @staticmethod
    def column(values: Iterable[ScalarLike]) -> "Matrix":
        return Matrix([[v] for v in values])

    @staticmethod
    def from_blocks(grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a matrix from a 2-D grid of conformal blocks."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        den, scaled = gaussint.aligned([(b._den, b._data) for block_row in grid for b in block_row])
        blocks = iter(scaled)
        rows: list[tuple[Pair, ...]] = []
        width = None
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ShapeError("blocks in a row must have equal height")
            parts = [next(blocks) for _ in block_row]
            for i in range(height):
                rows.append(tuple(chain.from_iterable(part[i] for part in parts)))
            if width is None:
                width = len(rows[-1])
            elif len(rows[-1]) != width:
                raise ShapeError("block rows must have equal total width")
        # Canonical blocks stay canonical over the lcm of their denominators:
        # each prime of the lcm divides some block's denominator as often, so
        # it leaves one of that block's numerators unscaled and not divisible.
        canonical = all(b._canonical for block_row in grid for b in block_row)
        return (_new if canonical else _stored)(tuple(rows), den)

    @staticmethod
    def hstack(blocks: Sequence["Matrix"]) -> "Matrix":
        return Matrix.from_blocks([list(blocks)])

    @staticmethod
    def vstack(blocks: Sequence["Matrix"]) -> "Matrix":
        return Matrix.from_blocks([[b] for b in blocks])

    # -- element access -------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        return gaussint.to_scalar(self._den, self._data[i][j])

    def row_entries(self, i: int) -> tuple[GaussianRational, ...]:
        return tuple(self[i, j] for j in range(self.cols))

    def integer_form(self) -> tuple[int, tuple[tuple[Pair, ...], ...]]:
        """The canonical common denominator and the rows of (re, im)
        numerator pairs: the stored form, reduced in place when first read."""
        if not self._canonical:
            den, data = _canonical_form(self._data, self._den)
            _set_den(self, den)
            _set_data(self, data)
            _set_canonical(self, True)
        return self._den, self._data

    def _stored_form(self) -> tuple[int, tuple[tuple[Pair, ...], ...]]:
        """The form as built, or the canonical form once it has been read."""
        return self._den, self._data

    def submatrix(self, row_range: Sequence[int], col_range: Sequence[int]) -> "Matrix":
        if not row_range or not col_range:
            raise ShapeError("matrix must have at least one row and one column")
        data = tuple(tuple(self._data[i][j] for j in col_range) for i in row_range)
        return _stored(data, self._den)

    def block(self, block_row: int, block_col: int, size: int) -> "Matrix":
        """Extract the (block_row, block_col) block of an n-blocked matrix."""
        return self.submatrix(
            range(block_row * size, (block_row + 1) * size),
            range(block_col * size, (block_col + 1) * size),
        )

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        a, b, den = self._aligned(other)
        return _reduced(
            tuple(
                tuple((x + u, y + v) for (x, y), (u, v) in zip(ra, rb))
                for ra, rb in zip(a, b)
            ),
            den,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        a, b, den = self._aligned(other)
        return _reduced(
            tuple(
                tuple((x - u, y - v) for (x, y), (u, v) in zip(ra, rb))
                for ra, rb in zip(a, b)
            ),
            den,
        )

    def __neg__(self) -> "Matrix":
        # The negation of a canonical form is canonical.
        data = tuple(gaussint.times(self._data, (-1, 0)))
        return (_new if self._canonical else _stored)(data, self._den)

    def scale(self, scalar: ScalarLike) -> "Matrix":
        s_den, (s,) = gaussint.from_scalars([GaussianRational.coerce(scalar)])
        return _reduced(tuple(gaussint.times(self._data, s)), self._den * s_den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        a_den, a_rows = self.integer_form()
        b_den, b_rows = other.integer_form()
        cols = tuple(zip(*b_rows))
        out = []
        for row in a_rows:
            nonzero = [(k, a, b) for k, (a, b) in enumerate(row) if a or b]
            out_row = []
            for col in cols:
                re = im = 0
                for k, a, b in nonzero:
                    c, d = col[k]
                    re += a * c - b * d
                    im += a * d + b * c
                out_row.append((re, im))
            out.append(tuple(out_row))
        return _reduced(tuple(out), a_den * b_den)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) equals self[i, j] * other."""
        a_den, a_rows = self.integer_form()
        b_den, b_rows = other.integer_form()
        return _reduced(tuple(gaussint.kron(a_rows, b_rows)), a_den * b_den)

    # -- exact linear algebra -------------------------------------------------------

    def det(self) -> GaussianRational:
        """Exact determinant by fraction-free (Bareiss) elimination of the
        numerators; every quotient is an exact division in Z[i], and the
        common denominator (to the power n) is divided out at the end.

        A structurally singular matrix (no perfect matching of rows to
        columns on its nonzero entries, so every Leibniz term holds a zero)
        gets an exact 0 without any elimination.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant requires a square matrix")
        if structural_rank(self.pattern(), self.cols) < self.rows:
            return GaussianRational(0)
        den, rows = self.integer_form()
        det = bareiss_det_int([list(row) for row in rows])
        return gaussint.to_scalar(den**self.rows, det)

    def rank(self) -> int:
        """Exact rank of the numerators (the common denominator does not
        change the rank): the pivot count of fraction-free (Bareiss) forward
        elimination."""
        rows = [list(row) for row in self.integer_form()[1]]
        return sum(1 for _ in _bareiss_pivots(rows, self.cols))

    def inverse(self) -> "Matrix":
        """Exact inverse, fraction-free.

        Bareiss elimination of [N | I], N the numerators, leaves [U | R] with
        U upper triangular, its diagonal the leading principal minors d_i of
        the row-permuted N, the last one D.  Back-substitution computes
        D * N^-1 (an adjugate, so integer): each division by d_i is exact in
        Z[i].  Then M^-1 = den * (D * N^-1) / D, one division.
        """
        if self.rows != self.cols:
            raise ShapeError("inverse requires a square matrix")
        n = self.rows
        den, rows = self.integer_form()
        a = [
            list(row) + [(1, 0) if j == i else (0, 0) for j in range(n)]
            for i, row in enumerate(rows)
        ]
        for k, (col, _) in enumerate(_bareiss_pivots(a, 2 * n)):
            if col != k:
                raise ShapeError("matrix is singular")
        det = a[n - 1][n - 1]
        x: list = [None] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            # d_i * (D x_i) = D * R_i - sum_{k > i} U_ik * (D x_k), row by row
            terms = [((-re, -im), x[k]) for k, (re, im) in enumerate(row[i + 1 : n], i + 1)]
            x[i] = tuple(gaussint.exact_div(gaussint.combine([(det, row[n:]), *terms]), row[i]))
        norm, s = gaussint.reciprocal(det, den)
        return _reduced(tuple(gaussint.times(x, s)), norm)

    # -- predicates and conversions -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def pattern(self) -> list[list[int]]:
        """The nonzero pattern: the columns of the nonzero entries, row by row."""
        return [[j for j, x in enumerate(row) if x != (0, 0)] for row in self._data]

    def is_zero(self) -> bool:
        return not any(re or im for row in self._data for re, im in row)

    def max_abs(self) -> float:
        return gaussint.max_abs(self._den, chain.from_iterable(self._data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.integer_form() == other.integer_form()

    def __hash__(self) -> int:
        return hash(self.integer_form())

    def __str__(self) -> str:
        return "\n".join(
            "[" + "  ".join(str(v) for v in self.row_entries(i)) + "]" for i in range(self.rows)
        )

    def __repr__(self) -> str:
        return f"Matrix({[[str(v) for v in self.row_entries(i)] for i in range(self.rows)]})"

    def _require_same_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def _aligned(self, other: "Matrix") -> tuple[tuple, tuple, int]:
        """Both numerator grids over their common denominator, and that
        denominator."""
        self._require_same_shape(other)
        if self._den == other._den:
            return self._data, other._data, self._den
        den, (a, b) = gaussint.aligned(((self._den, self._data), (other._den, other._data)))
        return a, b, den


# The slot descriptors' own setters, past Matrix.__setattr__, which refuses.
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_den = Matrix._den.__set__
_set_data = Matrix._data.__set__
_set_canonical = Matrix._canonical.__set__


def _init(m: Matrix, data: tuple, den: int) -> None:
    """Store data / den in m, not known to be canonical."""
    _set_rows(m, len(data))
    _set_cols(m, len(data[0]))
    _set_den(m, den)
    _set_data(m, data)
    _set_canonical(m, False)


def _new(data: tuple, den: int) -> Matrix:
    """Wrap numerator rows already in canonical form over den."""
    m = _stored(data, den)
    _set_canonical(m, True)
    return m


def _stored(data: tuple, den: int) -> Matrix:
    """Wrap numerator rows over den > 0 as they are, canonical or not."""
    m = Matrix.__new__(Matrix)
    _init(m, data, den)
    return m


def _canonical_form(data: tuple, den: int) -> tuple[int, tuple]:
    """The canonical form of data / den (den > 0)."""
    g = gaussint.content(den, chain.from_iterable(data))
    if g != 1:
        data = tuple(tuple((re // g, im // g) for re, im in row) for row in data)
        den //= g
    return den, data


def _reduced(data: tuple, den: int) -> Matrix:
    """The canonical matrix data / den (den > 0)."""
    den, data = _canonical_form(data, den)
    return _new(data, den)


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


def structural_rank(pattern: Sequence[Sequence[int]], cols: int) -> int:
    """Size of a maximum matching of rows to columns, row i adjacent to the
    columns in pattern[i]: an upper bound on the rank of every matrix with
    that nonzero pattern, and equal to it for generic values.

    Augmenting paths from each row in turn (Kuhn; Duff's MC21 with its
    cheap look-ahead for a free column), searched depth-first on an
    explicit stack, since paths can be as long as the matrix.  Columns
    visited by a failed search stay marked until the next augmentation:
    the matching has not changed, so they cannot lead to a free column.
    """
    owner = [-1] * cols  # the row matched to each column
    seen = [-1] * cols  # the search epoch that last visited each column
    epoch = 0
    size = 0
    for root in range(len(pattern)):
        stack = [(root, 0)]  # (row, next position in its pattern)
        path: list[int] = []  # the matched column taken below each stacked row
        while stack:
            row, k = stack[-1]
            # No column frees up during a search, so one look-ahead per row.
            free = None if k else next((c for c in pattern[row] if owner[c] < 0), None)
            if free is not None:
                # Augment: each row on the stack takes the column below it.
                path.append(free)
                for (r, _), c in zip(stack, path):
                    owner[c] = r
                size += 1
                epoch += 1
                break
            adj = pattern[row]
            while k < len(adj) and seen[adj[k]] == epoch:
                k += 1
            if k == len(adj):
                stack.pop()
                if path:
                    path.pop()
                continue
            c = adj[k]
            seen[c] = epoch
            stack[-1] = (row, k + 1)
            stack.append((owner[c], 0))
            path.append(c)
    return size


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


def det_mod_p(a: list[list[int]], p: int) -> int:
    """Determinant in range(p) of a square matrix of ints over F_p, p prime,
    by Gaussian elimination.  Each step takes the first row with a nonzero
    leading entry as pivot (moving it up past r rows, sign (-1)^r) and
    drops its column, so the rows shrink by one entry a step."""
    det = 1
    while a:
        for r, row in enumerate(a):
            if row[0] % p:
                break
        else:
            return 0
        pivot = a.pop(r)
        if r % 2:
            det = -det
        det = det * pivot[0] % p
        inv = pow(pivot[0], -1, p)
        head = pivot[1:]
        a = [
            [(x - f * y) % p for x, y in zip(row[1:], head)] if (f := row[0] * inv % p) else row[1:]
            for row in a
        ]
    return det % p


def permutation_sign(p: Sequence[int]) -> int:
    """The sign (+1 or -1) of a permutation p of range(len(p)), by the
    parity of its inversions."""
    return -1 if sum(a > b for k, a in enumerate(p) for b in p[k + 1 :]) % 2 else 1


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Module-level alias for the Kronecker product."""
    return a.kron(b)
