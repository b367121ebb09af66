"""Quadratic two-parameter matrix polynomials and linear pencils.

A quadratic object is six n x n coefficient matrices; its value at
(lam, mu) is lam^2*A20 + mu^2*A02 + lam*mu*A11 + lam*A10 + mu*A01 + A00.
A pencil is three m x m matrices: the lam coefficient, the mu coefficient
and the constant term.  Pencils attached to a quadratic have m = 3n and
are handled as 3 x 3 grids of n x n blocks.

Box-addition is the shifted-overlap sum that turns the three pencil
coefficients into a 3n x 6n matrix: the six coefficients of
L(lam,mu) * (Lambda kron I_n), Lambda = (lam, mu, 1)^T, side by side.
So L satisfies the ansatz identity, that product = v kron Q(lam,mu),
exactly when its box-addition equals v kron [A20 A11 A02 A10 A01 A00].
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import gaussint
from .bipoly import BiPoly
from .errors import ShapeError
from .gaussint import Pair, Rows
from .matrices import Matrix, kron
from .polymatrix import PolyMatrix, exact_det_poly
from .scalars import GaussianRational, ScalarLike

# The monomial lam^a mu^b, as (a, b), that each coefficient of a quadratic
# multiplies, in field order, which is also their order in the target row.
COEFF_MONOMIALS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))


class Checked:
    """Base of a record that checks its own fields.  ``__new__`` calls
    ``_check`` on each new instance; NamedTuple's ``_make``, which
    ``_replace`` calls, would skip ``__new__``, so it calls the constructor."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _QuadFields(NamedTuple):
    n: int
    a20: Matrix
    a11: Matrix
    a02: Matrix
    a10: Matrix
    a01: Matrix
    a00: Matrix


class QuadPoly2P(Checked, _QuadFields):
    """A quadratic two-parameter matrix polynomial with exact coefficients.

    Its determinant, ``det_poly``, is computed when first read and kept, so
    the quadratic spectrum and the certificate-read pencil spectrum of one
    quadratic share it; so are its six coefficients over one denominator
    (``_coefficient_forms``), read by membership, certificates and members.
    """

    def _check(self):
        for name, m in zip(self._fields[1:], self[1:]):
            if m.shape != (self.n, self.n):
                raise ShapeError(
                    f"coefficient {name} has shape {m.shape}, expected {(self.n, self.n)}"
                )

    @staticmethod
    def scalar(a20=0, a11=0, a02=0, a10=0, a01=0, a00=0) -> "QuadPoly2P":
        """Convenience constructor for the n = 1 case."""
        return QuadPoly2P(
            1, *(Matrix([[v]]) for v in (a20, a11, a02, a10, a01, a00))
        )

    def coefficients(self) -> tuple[Matrix, ...]:
        return self[1:]

    def coefficient_row(self) -> Matrix:
        """The n x 6n row [A20 A11 A02 A10 A01 A00]."""
        return Matrix.hstack(self.coefficients())

    def eval(self, lam: ScalarLike, mu: ScalarLike) -> Matrix:
        return self.as_polymatrix().eval(lam, mu)

    def as_polymatrix(self) -> PolyMatrix:
        return PolyMatrix.from_coefficients(
            self.n, self.n, dict(zip(COEFF_MONOMIALS, self.coefficients()))
        )

    @cached_property
    def det_poly(self) -> BiPoly:
        """det Q(lam, mu), exactly: exact_det_poly(self.as_polymatrix())."""
        return exact_det_poly(self.as_polymatrix())

    @cached_property
    def _coefficient_forms(self) -> tuple[int, list[Rows]]:
        """The rows of A20, A11, A02, A10, A01 and A00 over the lcm of their
        stored denominators, not reduced; aligned when first read and kept.
        A parsed quadratic stores all six over one denominator already."""
        return gaussint.aligned([c._stored_form() for c in self.coefficients()])

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.coefficients())


class QuadSystem2P(NamedTuple):
    """A pair of quadratic two-parameter matrix polynomials."""

    q1: QuadPoly2P
    q2: QuadPoly2P

    @property
    def bezout_bound(self) -> int:
        return 4 * self.q1.n * self.q2.n


class _PencilFields(NamedTuple):
    m: int
    lam_coeff: Matrix
    mu_coeff: Matrix
    const: Matrix


class Pencil2P(Checked, _PencilFields):
    """A linear two-parameter pencil lam*A1 + mu*A2 + A3 of size m x m."""

    def _check(self):
        for name, mat in zip(self._fields[1:], self[1:]):
            if mat.shape != (self.m, self.m):
                raise ShapeError(
                    f"pencil coefficient {name} has shape {mat.shape}, "
                    f"expected {(self.m, self.m)}"
                )

    @property
    def block_size(self) -> int:
        if self.m % 3:
            raise ShapeError(f"pencil size {self.m} is not divisible by 3")
        return self.m // 3

    def eval(self, lam: ScalarLike, mu: ScalarLike) -> Matrix:
        return self.as_polymatrix().eval(lam, mu)

    def as_polymatrix(self) -> PolyMatrix:
        return PolyMatrix.from_coefficients(
            self.m, self.m, {(1, 0): self.lam_coeff, (0, 1): self.mu_coeff, (0, 0): self.const}
        )

    def transform(self, m3: Matrix) -> "Pencil2P":
        """Left-multiply all three coefficients by m3 kron I_n, block row by
        block row (block_transform)."""
        return Pencil2P(self.m, *(block_transform(m3, c) for c in self[1:]))

    def __add__(self, other: "Pencil2P") -> "Pencil2P":
        return Pencil2P(
            self.m,
            self.lam_coeff + other.lam_coeff,
            self.mu_coeff + other.mu_coeff,
            self.const + other.const,
        )

    def __sub__(self, other: "Pencil2P") -> "Pencil2P":
        return Pencil2P(
            self.m,
            self.lam_coeff - other.lam_coeff,
            self.mu_coeff - other.mu_coeff,
            self.const - other.const,
        )

    def scale(self, scalar: ScalarLike) -> "Pencil2P":
        return Pencil2P(
            self.m,
            self.lam_coeff.scale(scalar),
            self.mu_coeff.scale(scalar),
            self.const.scale(scalar),
        )


def block_transform(m3: Matrix, x: Matrix) -> Matrix:
    """(m3 kron I_n) x for a 3 x 3 m3 and a 3n-row x, with no Kronecker
    product, identity or dense product formed: the rows of block_rows, as
    they are."""
    return Matrix.from_integer_form(*block_rows(m3, x._stored_form()))


def block_rows(m3: Matrix, x: tuple[int, Rows]) -> tuple[int, list[tuple[Pair, ...]]]:
    """(m3 kron I_n) x for a 3 x 3 m3 and the integer form (den, rows) of a
    3n-row x, as an integer form, not reduced: block row i is
    sum_j m3[i, j] * (block row j of x), one gaussint.combine over the
    block rows read as flat rows, over the product of the two
    denominators."""
    if m3.shape != (3, 3):
        raise ShapeError("block transformation must be 3 x 3")
    den, rows = x
    n, rest = divmod(len(rows), 3)
    if rest:
        raise ShapeError(f"size {len(rows)} is not divisible by 3")
    m_den, m_rows = m3._stored_form()
    width = len(rows[0])
    blocks = [sum(rows[j * n : (j + 1) * n], ()) for j in range(3)]
    out = []
    for m_row in m_rows:
        total = gaussint.combine(zip(m_row, blocks))
        out += [total[k : k + width] for k in range(0, n * width, width)]
    return m_den * den, out


def lambda_kron_identity(n: int) -> PolyMatrix:
    """The 3n x n polynomial matrix (lam, mu, 1)^T kron I_n."""
    units = {(1, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 0): (0, 0, 1)}
    eye = Matrix.identity(n)
    return PolyMatrix.from_coefficients(
        3 * n, n, {mono: kron(Matrix.column(e), eye) for mono, e in units.items()}
    )


def _box_blocks(x: Matrix, y: Matrix, z: Matrix) -> tuple[int, list[tuple[Pair, ...]]]:
    """The six 3n x n block columns of box-addition: X1, X2+Y1, Y2, X3+Z1,
    Y3+Z2 and Z3 for block columns X = [X1 X2 X3] etc.  For the pencil
    lam*X + mu*Y + Z they are the coefficients of lam^2, lam*mu, mu^2, lam,
    mu and 1 in L(lam,mu) * (Lambda kron I_n), in COEFF_MONOMIALS order.
    They come side by side as one integer form, not reduced: the common
    denominator of x, y and z, and the 3n rows, each written once.
    """
    if not (x.shape == y.shape == z.shape) or x.rows != x.cols:
        raise ShapeError("box addition requires three square matrices of equal size")
    if x.rows % 3:
        raise ShapeError(f"size {x.rows} is not divisible by 3")
    n = x.rows // 3
    den, (xs, ys, zs) = gaussint.aligned((x._stored_form(), y._stored_form(), z._stored_form()))
    rows = []
    for xr, yr, zr in zip(xs, ys, zs):
        # X2+Y1, X3+Z1 and Y3+Z2 in one pass: [X2 X3 Y3] + [Y1 Z1 Z2].
        sums = tuple([(p + r, q + s) for (p, q), (r, s) in zip(xr[n:] + yr[2 * n :], yr[:n] + zr[: 2 * n])])
        rows.append(xr[:n] + sums[:n] + yr[n : 2 * n] + sums[n : 2 * n] + sums[2 * n :] + zr[2 * n :])
    return den, rows


def box_add(x: Matrix, y: Matrix, z: Matrix) -> Matrix:
    """Shifted-overlap block sum of three 3n x 3n matrices into 3n x 6n."""
    return Matrix.from_integer_form(*_box_blocks(x, y, z))


def box_add_pencil(pencil: Pencil2P) -> Matrix:
    return box_add(pencil.lam_coeff, pencil.mu_coeff, pencil.const)


def apply_to_lambda(pencil: Pencil2P) -> PolyMatrix:
    """The exact 3n x n product L(lam,mu) * (Lambda kron I_n), read off the
    box-addition blocks."""
    n = pencil.block_size
    den, rows = _box_blocks(pencil.lam_coeff, pencil.mu_coeff, pencil.const)
    blocks = (
        Matrix.from_integer_form(den, [row[k * n : (k + 1) * n] for row in rows]) for k in range(6)
    )
    return PolyMatrix.from_coefficients(3 * n, n, dict(zip(COEFF_MONOMIALS, blocks)))


class CorrespondenceReport(NamedTuple):
    """Both sides of the eigenvector correspondence identity at a point."""

    left: Matrix
    right: Matrix
    exact: bool
    max_residual: float


def eigenvector_correspondence(
    q: QuadPoly2P,
    pencil: Pencil2P,
    v,
    lam: ScalarLike,
    mu: ScalarLike,
    x: Matrix,
) -> CorrespondenceReport:
    """Check L(lam,mu) * (Lambda kron x) = v kron (Q(lam,mu) x) exactly.

    v is the pencil's known ansatz vector; x must be a nonzero n x 1
    column.  In particular Q(lam,mu) x = 0 forces the pencil to annihilate
    Lambda kron x.
    """
    if x.cols != 1 or x.rows != q.n:
        raise ShapeError(f"eigenvector must be {q.n} x 1")
    if x.is_zero():
        raise ValueError("eigenvector must be nonzero")
    lam = GaussianRational.coerce(lam)
    mu = GaussianRational.coerce(mu)
    w = Matrix.vstack([x.scale(lam), x.scale(mu), x])
    left = pencil.eval(lam, mu) @ w
    right = kron(Matrix.column(v), q.eval(lam, mu) @ x)
    diff = left - right
    return CorrespondenceReport(
        left=left,
        right=right,
        exact=diff.is_zero(),
        max_residual=0.0 if diff.is_zero() else diff.max_abs(),
    )
