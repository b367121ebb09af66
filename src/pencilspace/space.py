"""The vector space of candidate linearizations attached to a quadratic.

Membership of a pencil is decided through box-addition: the pencil belongs
to the space iff its box-add equals v kron [A20 A11 A02 A10 A01 A00] for
some ansatz vector v in C^3.  Every member is an ansatz part (v kron the
top block row of the e1 member) plus a kernel member (v = 0) laid out from
three free 3n x n blocks (Y1, Z1, Z2); one routine, _lay_out, writes both
parts of each coefficient in one pass over the integer forms of Q, v and
the blocks.  The standard linearization is the e1 member with fixed
blocks.  The space has dimension 9n^2 + 3 whenever the coefficient row is
nonzero, certified here by an exact rank witness rather than asserted.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations
from math import gcd
from typing import NamedTuple, Optional, Sequence

from . import gaussint
from .errors import HypothesisViolatedError, ShapeError
from .gaussint import Pair, Rows
from .matrices import Matrix
from .pencil import Checked, Pencil2P, QuadPoly2P, _box_blocks
from .scalars import GaussianRational

Vector3 = tuple[GaussianRational, GaussianRational, GaussianRational]


class _BlockFields(NamedTuple):
    n: int
    y1: Matrix
    z1: Matrix
    z2: Matrix


class FreeBlocks(Checked, _BlockFields):
    """The free parameters (Y1, Z1, Z2) of a member, each 3n x n."""

    def _check(self):
        expected = (3 * self.n, self.n)
        for name, block in zip(self._fields[1:], self[1:]):
            if block.shape != expected:
                raise ShapeError(f"block {name} has shape {block.shape}, expected {expected}")

    @staticmethod
    def zero(n: int) -> "FreeBlocks":
        z = Matrix.zeros(3 * n, n)
        return FreeBlocks(n, z, z, z)

    def sub(self, name: str, block_row: int) -> Matrix:
        """The n x n sub-block of one free block (block_row in 0..2)."""
        return getattr(self, name).block(block_row, 0, self.n)

    @cached_property
    def _lower_z_det(self) -> GaussianRational:
        """det lower_z_block(Z1, Z2), taken when first read and kept.  A3 =
        [Z1 | Z2 | P00] in every member laid out from these blocks, so this
        is the det of the member's constant lower-left 2n x 2n block."""
        return lower_z_block(self.z1, self.z2).det()


def coerce_vector3(v: Sequence) -> Vector3:
    values = tuple(GaussianRational.coerce(c) for c in v)
    if len(values) != 3:
        raise ShapeError("ansatz vector must have exactly 3 entries")
    return values


class MembershipResult(NamedTuple):
    """Outcome of the membership test.

    ``ambiguous`` flags the degenerate Q = 0 case, where the identity holds
    for every v (kernel pencils) and no canonical ansatz exists; the zero
    vector is reported then.
    """

    is_member: bool
    v: Optional[Vector3]
    ambiguous: bool = False

    def __bool__(self) -> bool:
        return self.is_member


NOT_MEMBER = MembershipResult(False, None)


def membership(pencil: Pencil2P, q: QuadPoly2P) -> MembershipResult:
    """Recover the ansatz vector of a pencil, or report non-membership.

    Each block row i of the box-add must equal v_i times the coefficient
    row; v is read off the first nonzero coefficient and the whole identity
    box-add = v kron [A20 A11 A02 A10 A01 A00] is then checked exactly, by
    _ansatz_holds on the integer forms of both sides.
    """
    n = q.n
    if pencil.m != 3 * n:
        raise ShapeError(f"pencil size {pencil.m} does not match 3n = {3 * n}")
    box = _box_blocks(pencil.lam_coeff, pencil.mu_coeff, pencil.const)
    row = _coefficient_row(q)
    a_den, a_rows = row
    pivot = next(((r, c) for r in range(n) for c in range(6 * n) if a_rows[r][c] != (0, 0)), None)
    if pivot is None:
        # Zero coefficient row: the identity degenerates; any v works when
        # the box-add vanishes, which is the identity with v = 0, and no v
        # works otherwise.
        if _ansatz_holds(box, (1, [(0, 0)] * 3), row):
            zero = GaussianRational(0)
            return MembershipResult(True, (zero, zero, zero), ambiguous=True)
        return MembershipResult(False, None, ambiguous=True)
    r0, c0 = pivot
    den, rows = box
    # v_i = (b_i / den) (a_den / a) for b_i the entry of block row i and a
    # the pivot.
    norm, a_inv = gaussint.reciprocal(a_rows[r0][c0], a_den)
    v = tuple(gaussint.to_scalar(den * norm, gaussint.mul(rows[i * n + r0][c0], a_inv)) for i in range(3))
    if not _ansatz_holds(box, gaussint.from_scalars(v), row):
        return NOT_MEMBER
    return MembershipResult(True, v)


def _coefficient_row(q: QuadPoly2P) -> tuple[int, list[tuple[Pair, ...]]]:
    """The n x 6n row [A20 A11 A02 A10 A01 A00] as one integer form, not
    reduced: the six coefficients' rows side by side over the lcm of their
    denominators, as the quadratic keeps them."""
    den, parts = q._coefficient_forms
    return den, [tuple(chain.from_iterable(row)) for row in zip(*parts)]


def _ansatz_holds(box: tuple[int, Rows], v: tuple[int, list[Pair]], row: tuple[int, Rows]) -> bool:
    """Whether box-add = v kron [A20 A11 A02 A10 A01 A00], decided on
    integer forms with no Matrix, for box the rows of pencil._box_blocks
    over den, v the numerators w_i of v over v_den and row the coefficient
    row over a_den.  Each entry b of block row i must equal v_i times its
    entry a of the row, b / den = w_i a / (v_den a_den), compared
    cross-multiplied as b (v_den a_den / g) = (w_i den / g) a with
    g = gcd(v_den a_den, den), row by row up to the first that differs.
    """
    den, rows = box
    v_den, v_num = v
    a_den, a_rows = row
    g = gcd(v_den * a_den, den)
    left, right = v_den * a_den // g, den // g
    w = gaussint.times([(w,) for w in v_num], (right, 0))
    return gaussint.times(rows, (left, 0)) == gaussint.kron(w, a_rows)


def generate_member(q: QuadPoly2P, v: Sequence, blocks: FreeBlocks) -> Pencil2P:
    """The member with ansatz v and free blocks (Y1, Z1, Z2).

    It is the ansatz part, one Kronecker product per coefficient,
      A1 = v kron [A20 A11 A10], A2 = v kron [0 A02 A01], A3 = v kron [0 0 A00],
    plus kernel_member(n, blocks); membership of the result returns v (for
    nonzero Q).  _lay_out writes both parts from the integer forms of Q, v
    and the blocks.
    """
    n = q.n
    if blocks.n != n:
        raise ShapeError(f"blocks sized for n = {blocks.n}, quadratic has n = {n}")
    v = gaussint.from_scalars(coerce_vector3(v))
    return _lay_out(q._coefficient_forms, v, [m._stored_form() for m in blocks[1:]])


def free_blocks(pencil: Pencil2P) -> FreeBlocks:
    """The free blocks (Y1, Z1, Z2) of a member, the inverse of generate_member.

    Whatever the ansatz, Y1 is block column 0 of A2 and Z1, Z2 are block
    columns 0 and 1 of A3.
    """
    n = pencil.block_size
    col = lambda m, j: m.submatrix(range(3 * n), range(j * n, (j + 1) * n))
    return FreeBlocks(n, col(pencil.mu_coeff, 0), col(pencil.const, 0), col(pencil.const, 1))


def lower_z_block(z1: Matrix, z2: Matrix) -> Matrix:
    """The 2n x 2n block [[Z21, Z22], [Z31, Z32]] of two 3n x n blocks: the
    lower Z block of [Z1 | Z2] over the common denominator of z1 and z2."""
    den, (rows1, rows2) = gaussint.aligned((z1._stored_form(), z2._stored_form()))
    return _lower_z((den, [r1 + r2 for r1, r2 in zip(rows1, rows2)]))


def _lower_z(form: tuple[int, Rows]) -> Matrix:
    """The lower-left 2n x 2n block of 3n rows over one denominator, the one
    place the lower Z block is read: [[Z21, Z22], [Z31, Z32]] for rows that
    begin [Z1 | Z2], as a member's constant [Z1 | Z2 | P00] does."""
    den, rows = form
    n = len(rows) // 3
    return Matrix.from_integer_form(den, [row[: 2 * n] for row in rows[n:]])


def zero_lower_left(pencil: Pencil2P) -> bool:
    """Whether the lam and mu coefficients of a pencil of size 3n vanish on
    their lower-left 2n x 2n blocks: Y21 = Y31 = 0 in an alpha*e1 member."""
    n, rest = divmod(pencil.m, 3)
    return not rest and not any(
        re or im
        for coeff in (pencil.lam_coeff, pencil.mu_coeff)
        for row in coeff._stored_form()[1][n:]
        for re, im in row[: 2 * n]
    )


def standard_blocks(q: QuadPoly2P) -> FreeBlocks:
    """The free blocks of the standard linearization at ansatz e1:
    Y1 = 0, Z1 = [A10; 0; -I], Z2 = [A01; -I; 0], each Z block written as
    one integer form over the denominator of its coefficient."""
    n = q.n
    zero = (((0, 0),) * n,) * n

    def stacked(coeff: Matrix, eye_in_middle: bool) -> Matrix:
        den, rows = coeff._stored_form()
        minus_eye = tuple(tuple((-den, 0) if i == j else (0, 0) for j in range(n)) for i in range(n))
        lower = minus_eye + zero if eye_in_middle else zero + minus_eye
        return Matrix.from_integer_form(den, rows + lower)

    return FreeBlocks(n, Matrix.zeros(3 * n, n), stacked(q.a10, False), stacked(q.a01, True))


def standard_linearization(q: QuadPoly2P) -> Pencil2P:
    """The 3n x 3n companion-style linearization with ansatz e1."""
    return generate_member(q, (1, 0, 0), standard_blocks(q))


def kernel_member(n: int, blocks: FreeBlocks) -> Pencil2P:
    """A member of the kernel of the ansatz map, the member with v = 0:
      A1 = [0 | -Y1 | -Z1], A2 = [Y1 | 0 | -Z2], A3 = [Z1 | Z2 | 0],
    laid out by _lay_out with v = 0; both the box-add and the
    Lambda-product of the result vanish identically.
    """
    if blocks.n != n:
        raise ShapeError(f"blocks sized for n = {blocks.n}, requested n = {n}")
    zero = (((0, 0),) * n,) * n
    return _lay_out((1, [zero] * 6), (1, [(0, 0)] * 3), [m._stored_form() for m in blocks[1:]])


def _lay_out(
    coeffs: tuple[int, Sequence[Rows]], v: tuple[int, list[Pair]], free: Sequence[tuple[int, Rows]]
) -> Pencil2P:
    """The member with ansatz v and free blocks (Y1, Z1, Z2), the one place
    a member is laid out (free_blocks reads the blocks back):
      A1 = [P20 | P11 - Y1 | P10 - Z1], A2 = [Y1 | P02 | P01 - Z2], A3 = [Z1 | Z2 | P00],
    with P_ab = v kron A_ab, from the integer forms of the six A_ab over one
    denominator (as QuadPoly2P keeps them), of v and of the blocks.  The
    factor to the common denominator is folded into v's numerators, and the
    six P_ab come from one kron of v by the coefficient row, so each P_ab
    and each row of the result is written once, and kept over that
    denominator, not reduced.
    """
    a_den, a_parts = coeffs
    v_den, v_num = v
    n = len(a_parts[0])
    # v's column over v_den * a_den, so that each v kron A_ab is over the lcm.
    den, (w, *free_rows) = gaussint.aligned([(v_den * a_den, [(w,) for w in v_num]), *free])
    # v kron [A20 A11 A02 A10 A01 A00]: the six P_ab side by side, row by row
    ansatz = gaussint.kron(w, [sum(row, ()) for row in zip(*a_parts)])
    sub = lambda a, b: tuple([(p - r, q - s) for (p, q), (r, s) in zip(a, b)])
    a1, a2, a3 = [], [], []
    for p, y1, z1, z2 in zip(ansatz, *free_rows):
        a1.append(p[:n] + sub(p[n : 2 * n], y1) + sub(p[3 * n : 4 * n], z1))
        a2.append(y1 + p[2 * n : 3 * n] + sub(p[4 * n : 5 * n], z2))
        a3.append(z1 + z2 + p[5 * n :])
    return Pencil2P(3 * n, *(Matrix.from_integer_form(den, c) for c in (a1, a2, a3)))


class DimensionSummary(NamedTuple):
    """Dimension of the space plus the exact rank witness that certifies it."""

    n: int
    dimension: int
    witness_rank: int
    degenerate: bool

    @property
    def verified(self) -> bool:
        return self.witness_rank == self.dimension


def space_dimension(q: QuadPoly2P) -> DimensionSummary:
    """Certified dimension 9n^2 + 3 of the space attached to q.

    The space is spanned by the ansatz parts P_1, P_2, P_3 of e1, e2, e3
    and by the kernel members of the 9n^2 unit directions of (Y1, Z1, Z2).
    kernel_member and free_blocks are linear, and
    free_blocks(kernel_member(n, B)) = B for every B; each P_i is checked
    here, on its integer forms, to vanish on its free blocks (block column 0
    of A2, block columns 0-1 of A3).  If sum c_i P_i + kernel_member(n, B)
    = 0, applying free_blocks gives B = 0, so the kernel members are a
    direct summand of rank 9n^2 and the witness rank is 9n^2 plus the rank
    of the three vectorized ansatz parts.  That rank needs no elimination:
    P_i = e_i kron (...) is nonzero only in block row i, so the three rows
    have pairwise disjoint supports, checked here, and restricting
    sum c_i P_i = 0 to the support of P_i gives c_i P_i = 0; the rank is the
    number of nonzero P_i.  For the all-zero quadratic the ansatz parts
    vanish and the dimension degenerates to 9n^2.
    """
    n = q.n
    degenerate = q.is_zero()
    witness_rank = 9 * n * n
    if not degenerate:
        zero = FreeBlocks.zero(n)
        members = [generate_member(q, e, zero) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        # Each ansatz part's support: (coefficient, row, column) of its nonzero entries.
        supports = [
            {(k, r, c) for k, coeff in enumerate(p[1:]) for r, row in enumerate(coeff._stored_form()[1])
             for c, (re, im) in enumerate(row) if re or im}
            for p in members
        ]
        if any(k == 1 and c < n or k == 2 and c < 2 * n for s in supports for k, _, c in s):
            raise AssertionError("an ansatz part has nonzero free blocks")
        if any(a & b for a, b in combinations(supports, 2)):
            raise AssertionError("two ansatz parts share a nonzero entry")
        witness_rank += sum(1 for s in supports if s)
    dimension = 9 * n * n if degenerate else 9 * n * n + 3
    return DimensionSummary(n, dimension, witness_rank, degenerate)


class SingleParamPencil(NamedTuple):
    """A 2n x 2n one-parameter pencil lam*X1 + X3 (the mu = 0 reduction)."""

    n: int
    lam_coeff: Matrix
    const: Matrix
    v: tuple[GaussianRational, GaussianRational]

    def eval(self, lam) -> Matrix:
        return self.lam_coeff.scale(lam) + self.const


def reduce_mu_zero(pencil: Pencil2P, q: QuadPoly2P) -> SingleParamPencil:
    """Carve the one-parameter pencil obtained by setting mu = 0.

    Requires a member built with Y1 = 0.  Block rows 1-2 and columns
    {1, 3} of (A1, A3) give X1 = [v' kron A20 | -Z1' + v' kron A10] and
    X3 = [Z1' | v' kron A00] with v' the first two ansatz entries and Z1'
    the top 2n x n part of Z1.  At mu = 0 the middle block of Lambda kron I_n
    is zero, so block rows 1-2 of the member's ansatz identity read
    (lam*X1 + X3) ((lam,1)^T kron I_n) = v' kron (lam^2 A20 + lam A10 + A00),
    whatever Y1 is: membership alone proves the result's identity.
    """
    result = membership(pencil, q)
    if not result:
        raise HypothesisViolatedError("pencil is not a member of the space")
    n = q.n
    if not free_blocks(pencil).y1.is_zero():
        raise HypothesisViolatedError("reduction requires Y1 = 0")
    rows = range(2 * n)
    cols = list(range(n)) + list(range(2 * n, 3 * n))
    x1 = pencil.lam_coeff.submatrix(rows, cols)
    x3 = pencil.const.submatrix(rows, cols)
    return SingleParamPencil(n, x1, x3, (result.v[0], result.v[1]))
