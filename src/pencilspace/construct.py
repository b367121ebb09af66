"""Constructing linearizations and certifying them exactly.

Two certificate kinds are kept deliberately distinct:

* ``unimodular-pair``: explicit polynomial matrices E and F with constant
  nonzero determinants satisfying F * L * E = diag(Q, I_2n) exactly -- a
  linearization in the strict equivalence sense.  Available for members
  with ansatz alpha*e1 whose Y1 block is [Y11; 0; 0] and whose lower
  2n x 2n Z block is nonsingular.  The identity is checked as the two
  conditions it is equivalent to, never as a product: the ansatz identity
  box-add(L) = (alpha e1) kron [A20 A11 A02 A10 A01 A00], once per entry
  point, and Z^-1 Z = I_2n, one constant product.  det E and det F are
  read off how the factors are built: det E = alpha^-n, and det F =
  1 / det Z, where det Z, the certificate's one elimination, also decides
  that Z is nonsingular.  The certificate builds E and F when each is
  first read: F forms Z^-1, checks Z^-1 Z = I_2n, then forms W * Z^-1.
* ``det-ratio``: det L = gamma * det Q with gamma a nonzero constant --
  the weaker eigenvalue-preservation criterion, decided exactly: a screen
  in F_p at two integer points rejects almost every pair that is not
  proportional, and the rest compare both determinants' expansions.

General ansatz vectors are handled by the alignment procedure: pick a
nonsingular 3 x 3 matrix M with M v = alpha*e1 from a fixed case table
keyed by the zero pattern of v, transform the member L with ansatz v by
M kron I_n, and choose Z blocks until the transformed lower Z block is
nonsingular.  M kron I_n is never formed: it is applied block row by
block row (pencil.block_rows), to the free blocks alone.  By the mixed
product, (M kron I_n)(v kron A_ab) = (M v) kron A_ab = (alpha e1) kron A_ab,
and M kron I_n maps each block column of the kernel layout
[0 | -Y1 | -Z1], [Y1 | 0 | -Z2], [Z1 | Z2 | 0] on its own, so
(M kron I_n) L is the member with ansatz alpha*e1 and free blocks
((M kron I_n) Y1, (M kron I_n) Z1, (M kron I_n) Z2), laid out once.
"""

from __future__ import annotations

import random
from functools import cached_property
from math import prod
from typing import NamedTuple, Optional, Sequence

from . import gaussint
from .errors import (
    ConditionUnsatisfiableError,
    HypothesisViolatedError,
    ShapeError,
    ZeroAnsatzError,
)
from .gaussint import Pair, Rows
from .matrices import Matrix, kron
from .pencil import Pencil2P, QuadPoly2P, _box_blocks, block_rows
from .polymatrix import PolyMatrix, det_ratio
from .scalars import ONE, ZERO, GaussianRational
from .space import (
    FreeBlocks,
    _ansatz_holds,
    _coefficient_row,
    _lay_out,
    _lower_z,
    coerce_vector3,
    membership,
    standard_linearization,
    zero_lower_left,
)

_MAX_DRAWS = 32  # redraws of the Z blocks before procedure_linearize gives up


class _TransformFields(NamedTuple):
    matrix: Matrix
    case: str
    alpha: GaussianRational
    v: tuple[GaussianRational, GaussianRational, GaussianRational]


class AnsatzTransform(_TransformFields):
    """A nonsingular 3 x 3 matrix M with M v = alpha * e1, plus its case tag."""

    @cached_property
    def det(self) -> GaussianRational:
        """det M, read off its case (ansatz_transform): alpha over the product
        of the nonzero entries of v, negated in cases "ab" and "b"."""
        det = self.alpha / prod(x for x in self.v if x)
        return -det if self.case in ("ab", "b") else det

    @property
    def needs_zero_y11(self) -> bool:
        """True when rows 2-3 of M touch the first block column (m21 or m31
        nonzero), which forces Y11 = 0 in the alignment procedure."""
        return bool(self.matrix[1, 0]) or bool(self.matrix[2, 0])


# The alignment matrices by case tag: the tag names the nonzero entries of
# v = (a, b, c), and "ac-alt" is a second matrix for the pattern "ac".  An
# entry is 0, 1, or "alpha/x", "1/x" or "-1/x" for a nonzero entry x of v.
_CASES = {
    "abc": (("alpha/a", 0, 0), ("1/a", "-1/b", 0), ("1/a", 0, "-1/c")),
    "bc": ((0, "alpha/b", 0), (0, "-1/b", "1/c"), (1, 0, 0)),
    "c": ((1, 1, "alpha/c"), (1, 1, 0), (0, 1, 0)),
    "ac": (("alpha/a", 0, 0), (0, 1, 0), ("-1/a", 0, "1/c")),
    "ac-alt": (("alpha/a", 0, 0), ("1/a", 0, "-1/c"), (0, 1, 0)),
    "a": (("alpha/a", 0, 0), (0, 1, 0), (0, 1, 1)),
    "ab": (("alpha/a", 0, 1), ("1/a", "-1/b", 1), ("-1/a", "1/b", 0)),
    "b": ((1, "alpha/b", 0), (1, 0, 0), (1, 0, 1)),
}
ALL_CASES = tuple(_CASES)


def _case_matrix(case: str, v: tuple[int, list[Pair]], alpha: tuple[int, Pair]) -> Matrix:
    """The alignment matrix of a case from the integer forms of v = (a, b, c)
    and alpha, written over one denominator: for x = X / v_den nonzero,
    1/x = v_den conj(X) / |X|^2, so with P the product of the |X|^2 every
    entry is a Gaussian integer over alpha_den * P."""
    v_den, v_num = v
    a_den, a_num = alpha
    norms = {x: re * re + im * im for x, (re, im) in zip("abc", v_num) if re or im}
    den = a_den * (p := prod(norms.values()))
    entries = {0: (0, 0), 1: (den, 0)}
    for x, (re, im) in zip("abc", v_num):
        if x in norms:
            f = v_den * (p // norms[x])
            inv = (re * f, -im * f)  # 1/x = inv / p
            entries[f"1/{x}"] = (inv[0] * a_den, inv[1] * a_den)
            entries[f"-1/{x}"] = (-inv[0] * a_den, -inv[1] * a_den)
            entries[f"alpha/{x}"] = gaussint.mul(a_num, inv)
    return Matrix.from_integer_form(den, [[entries[e] for e in row] for row in _CASES[case]])


def ansatz_transform(
    v: Sequence, alpha=1, case: Optional[str] = None
) -> AnsatzTransform:
    """Pick a nonsingular M with M v = alpha * e1 from the case table.

    The case is selected by the exact zero pattern of v = (a, b, c); pass
    ``case`` to force a specific (matching) table entry, e.g. the "ac-alt"
    alternative.  M is written on integer forms (_case_matrix).  det M is
    read off the case, expanding along a row or column with one nonzero
    entry: (alpha/a)(-1/b)(-1/c) for abc (lower triangular);
    det [[alpha/b, 0], [-1/b, 1/c]] for bc; (alpha/c) det [[1, 1], [0, 1]]
    for c; (alpha/a) det [[1, 0], [0, 1/c]], (alpha/a) det [[0, -1/c], [1, 0]]
    and (alpha/a) det [[1, 0], [1, 1]] for ac, ac-alt and a;
    (alpha/a) det [[-1/b, 1], [1/b, 0]] + det [[1/a, -1/b], [-1/a, 1/b]] for
    ab, whose second minor is 0; det [[1, alpha/b], [1, 0]] for b.  So det M
    is alpha over the product of the nonzero entries of v, negated for ab
    and b, and never 0.  Both postconditions -- det M nonzero and
    M v = alpha*e1 -- are checked exactly before returning.
    """
    v = coerce_vector3(v)
    alpha = GaussianRational.coerce(alpha)
    if all(not entry for entry in v):
        raise ZeroAnsatzError("ansatz vector must be nonzero")
    if not alpha:
        raise ValueError("alpha must be nonzero")
    pattern = "".join(x for x, entry in zip("abc", v) if entry)
    if case is None:
        case = pattern
    elif case not in _CASES or case.removesuffix("-alt") != pattern:
        raise ValueError(f"case {case!r} does not match the zero pattern of {v}")
    v_form = gaussint.from_scalars(v)
    a_den, (a_num,) = gaussint.from_scalars((alpha,))
    transform = AnsatzTransform(_case_matrix(case, v_form, (a_den, a_num)), case, alpha, v)
    if not transform.det:
        raise AssertionError(f"case {case} produced a singular M")
    # M v = alpha e1 on integer forms, M v / den = a_num / a_den e1
    # cross-multiplied.
    den, image = block_rows(transform.matrix, (v_form[0], [(w,) for w in v_form[1]]))
    if gaussint.times(image, (a_den, 0)) != gaussint.times([(a_num,), ((0, 0),), ((0, 0),)], (den, 0)):
        raise AssertionError(f"case {case} does not map v to alpha*e1")
    return transform


def condition_det_check(m3: Matrix, z1: Matrix, z2: Matrix) -> bool:
    """Exact nonsingularity of the transformed lower Z block.

    Tests det != 0 for the lower Z block of the transformed blocks
    (M kron I_n) Z1 and (M kron I_n) Z2.
    """
    return bool(_transformed_z(m3, z1, z2)[0])


def _transformed_z(
    m3: Matrix, z1: Matrix, z2: Matrix
) -> tuple[GaussianRational, tuple[int, Rows], tuple[int, Rows]]:
    """det of the lower Z block of (M kron I_n) Z1 and (M kron I_n) Z2, and
    those two blocks as integer forms over one denominator, not reduced.
    Z1 and Z2 are aligned once and transformed block row by block row
    (block_rows); the det is taken on their rows side by side."""
    if z1.shape != z2.shape or z1.rows != 3 * z1.cols:
        raise ShapeError("Z blocks must be conformal 3n x n matrices")
    den, (rows1, rows2) = gaussint.aligned((z1._stored_form(), z2._stored_form()))
    t1, t2 = block_rows(m3, (den, rows1)), block_rows(m3, (den, rows2))
    return _lower_z((t1[0], [r1 + r2 for r1, r2 in zip(t1[1], t2[1])])).det(), t1, t2


class _CertificateFields(NamedTuple):
    kind: str
    verified: bool
    det_e: Optional[GaussianRational] = None
    det_f: Optional[GaussianRational] = None
    gamma: Optional[GaussianRational] = None
    detail: str = ""
    alpha: Optional[GaussianRational] = None
    pencil: Optional[Pencil2P] = None
    quadratic: Optional[QuadPoly2P] = None


class LinearizationCertificate(_CertificateFields):
    """Evidence that a pencil linearizes a quadratic.

    kind "unimodular-pair" carries the constant nonzero det E and det F of
    factors with F*L*E = diag(Q, I_2n), the quadratic Q whose ansatz
    identity was checked, alpha and the certified pencil.  E and F are
    built from these when first read, once per certificate; reading F forms
    Z^-1, checks Z^-1 Z = I_2n and forms W * Z^-1.  The identity also gives
    det L = det Q / (det E * det F), read by ``qep.spectrum_pencil`` instead
    of expanding det L.  kind "det-ratio" carries the constant gamma with
    det L = gamma * det Q, and its e, f and quadratic are None.
    """

    @cached_property
    def e(self) -> Optional[PolyMatrix]:
        """E = [[(lam/alpha) I, I, 0], [(mu/alpha) I, 0, I], [(1/alpha) I, 0, 0]]."""
        if self.pencil is None:
            return None
        n = self.pencil.m // 3
        inv_alpha = ONE / self.alpha
        eye = Matrix.identity(n)
        return PolyMatrix.from_coefficients(
            3 * n,
            3 * n,
            {
                (1, 0): kron(Matrix([[inv_alpha, 0, 0], [0, 0, 0], [0, 0, 0]]), eye),
                (0, 1): kron(Matrix([[0, 0, 0], [inv_alpha, 0, 0], [0, 0, 0]]), eye),
                (0, 0): kron(Matrix([[0, 1, 0], [0, 0, 1], [inv_alpha, 0, 0]]), eye),
            },
        )

    @cached_property
    def f(self) -> Optional[PolyMatrix]:
        """F = [[I, -W Z^-1], [0, Z^-1]] for L = [[W, *], [Z, *]], Z^-1 Z = I checked."""
        if self.pencil is None:
            return None
        n = self.pencil.m // 3
        top, left = range(n), range(2 * n)
        z = _lower_z(self.pencil.const._stored_form())
        z_inv = z.inverse()
        if z_inv @ z != Matrix.identity(2 * n):
            raise AssertionError("certificate product failed; construction is wrong")
        w = PolyMatrix.from_coefficients(
            n, 2 * n, {mono: c.submatrix(top, left) for mono, c in self.pencil.as_polymatrix().terms()}
        )
        z_inv = PolyMatrix.from_scalar(z_inv)
        return PolyMatrix.from_blocks(
            [[PolyMatrix.identity(n), -(w @ z_inv)], [PolyMatrix.zeros(2 * n, n), z_inv]]
        )


def _has_ansatz(pencil: Pencil2P, q: QuadPoly2P, alpha: GaussianRational) -> bool:
    """The ansatz identity box-add(L) = (alpha e1) kron [A20 A11 A02 A10 A01 A00],
    decided on the integer forms of both sides."""
    box = _box_blocks(pencil.lam_coeff, pencil.mu_coeff, pencil.const)
    return _ansatz_holds(box, gaussint.from_scalars((alpha, ZERO, ZERO)), _coefficient_row(q))


def certify_scaled_e1(
    pencil: Pencil2P, q: QuadPoly2P, alpha=1
) -> LinearizationCertificate:
    """Unimodular-pair certificate for a member with ansatz alpha * e1.

    Hypotheses (HypothesisViolatedError otherwise): Q is nonzero and the
    pencil has ansatz exactly (alpha, 0, 0), which is checked as the
    box-add identity once; the Y1 block has Y21 = Y31 = 0; the constant
    2n x 2n block Z = [[Z21, Z22], [Z31, Z32]] is nonsingular.  For Q = 0
    every kernel pencil satisfies the identity and no ansatz is canonical,
    so the zero quadratic is refused as membership refuses it.  Builds,
    when cert.e and cert.f are first read,
        E = [[(lam/alpha) I, I, 0], [(mu/alpha) I, 0, I], [(1/alpha) I, 0, 0]]
        F = [[I, -W(lam,mu) Z^-1], [0, Z^-1]]
    with W = [alpha*lam*A20 + mu*Y11 + Z11 | alpha*mu*A02 + alpha*lam*A11
    - lam*Y11 + Z12], for which F * L * E = diag(Q, I_2n) holds exactly;
    Z^-1 and the product W Z^-1 are formed only when F is read.
    """
    return _scaled_e1_pair(pencil, q, alpha)


def _scaled_e1_pair(pencil: Pencil2P, q: QuadPoly2P, alpha, det_z=None) -> LinearizationCertificate:
    alpha = GaussianRational.coerce(alpha)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    if pencil.m != 3 * q.n:
        raise ShapeError(f"pencil size {pencil.m} does not match 3n = {3 * q.n}")
    if q.is_zero() or not _has_ansatz(pencil, q, alpha):
        raise HypothesisViolatedError(
            f"pencil does not have ansatz ({alpha}, 0, 0)"
        )
    return _unimodular_pair(pencil, q, alpha, det_z)


def certify_standard(q: QuadPoly2P) -> LinearizationCertificate:
    """Unimodular-pair certificate for the standard linearization.

    The alpha = 1 pair of certify_scaled_e1, here
        E = [[lam I, I, 0], [mu I, 0, I], [I, 0, 0]]
        F = [[I, mu*A02 + lam*A11 + A01, lam*A20 + A10], [0, 0, -I], [0, -I, 0]].
    Its hypotheses are those of certify_scaled_e1, so Q = 0, which has no
    canonical ansatz, is refused there.
    """
    return certify_scaled_e1(standard_linearization(q), q)


def _unimodular_pair(
    pencil: Pencil2P, q: QuadPoly2P, alpha: GaussianRational, det_z=None
) -> LinearizationCertificate:
    """certify_scaled_e1 for a pencil whose ansatz identity with alpha*e1
    the caller has checked, read off its block form L = [[W(lam, mu), *],
    [Z, *]]: W is the top-left n x 2n block of L, and Y21 = Y31 = 0 iff the
    lower-left 2n x 2n blocks of A1 and A2 vanish, which leaves the
    constant Z, the lower-left block of A3, as that block of L.

    F * L * E = diag(Q, I_2n) is checked as the two conditions it is
    equivalent to, never as a product.  With L1, L2, L3 the block columns
    of L, L * E = [(lam L1 + mu L2 + L3)/alpha | L1 | L2], and with
    G = W Z^-1 the block column X = [X_top; X_bot] of L * E maps to
    F * X = [X_top - G X_bot; Z^-1 X_bot].
    * Block columns 2-3: [L1 | L2] = [W; Z] maps to [W (I - Z^-1 Z); Z^-1 Z],
      which is [0; I_2n] iff Z^-1 Z = I_2n.  That holds for the Z^-1 that
      F is built from, and F checks it, one constant product, when built.
    * Block column 1: Z^-1 is then a two-sided inverse, so F * X = [Q; 0]
      iff X_bot = 0 and X_top = Q, i.e. lam L1 + mu L2 + L3 = L (Lambda
      kron I_n) = (alpha e1) kron Q.  Matching the coefficients of lam^2,
      lam mu, mu^2, lam, mu and 1 gives exactly the box-add identity
      box-add(L) = (alpha e1) kron [A20 A11 A02 A10 A01 A00], so this
      column holds by the caller's check.

    det E and det F are read off how the factors are built, each a
    nonzero constant:
    * With its block columns taken in the order (2, 3, 1), E becomes
      [[I, 0, (lam/alpha) I], [0, I, (mu/alpha) I], [0, 0, (1/alpha) I]],
      block upper triangular with constant diagonal blocks.  That order
      moves n columns past 2n, so its sign is (-1)^(2 n^2) = +1, and
      det E = alpha^-n.
    * F = [[I_n, -G], [0, Z^-1]] is block upper triangular as built, so
      det F = det Z^-1 = 1 / det Z.  det Z is the certificate's (or the
      procedure's) one elimination: 0 refuses, otherwise Z^-1 exists.

    No check here reads E or F, so the certificate keeps alpha and the
    pencil, and builds E and F from them when they are first read.  It
    also keeps q, whose determinant gives det L = det q / (det E * det F).
    """
    n = q.n
    if not zero_lower_left(pencil):
        raise HypothesisViolatedError("certificate requires Y21 = Y31 = 0")
    if det_z is None:
        det_z = _lower_z(pencil.const._stored_form()).det()
    if not det_z:
        raise HypothesisViolatedError("lower Z block is singular")
    return LinearizationCertificate(
        kind="unimodular-pair",
        verified=True,
        det_e=(ONE / alpha) ** n,
        det_f=ONE / det_z,
        alpha=alpha,
        pencil=pencil,
        quadratic=q,
    )


def certify_det_ratio(pencil: Pencil2P, q: QuadPoly2P) -> LinearizationCertificate:
    """Determinant-proportionality certificate: det L = gamma * det Q, gamma != 0.

    Weaker than a unimodular pair; it certifies eigenvalue preservation
    only.  Returns verified=False (never raises) when det Q vanishes
    identically, the determinants are not proportional, or gamma = 0.
    Decided by ``det_ratio``: a non-proportional pair is almost always
    rejected by the F_p images of its values at the two screen points,
    (1, 2) and (2, 1), with no Bareiss run, while a verified one also
    expands det L and det Q, one Bareiss run each at a Kronecker point.
    """
    if pencil.m != 3 * q.n:
        raise ShapeError(f"pencil size {pencil.m} does not match 3n = {3 * q.n}")
    try:
        gamma = det_ratio(pencil.as_polymatrix(), q.as_polymatrix())
    except ZeroDivisionError:
        return LinearizationCertificate(
            kind="det-ratio", verified=False, detail="det Q is identically zero"
        )
    if gamma is None:
        return LinearizationCertificate(
            kind="det-ratio", verified=False, detail="determinants not proportional"
        )
    if not gamma:
        return LinearizationCertificate(
            kind="det-ratio",
            verified=False,
            gamma=gamma,
            detail="det L is identically zero (degenerate ratio)",
        )
    return LinearizationCertificate(kind="det-ratio", verified=True, gamma=gamma)


def best_certificate(pencil: Pencil2P, q: QuadPoly2P) -> LinearizationCertificate:
    """The strongest certificate available for a pencil.

    Tries the unimodular pair when the pencil's ansatz is alpha*e1 and the
    block hypotheses hold, then falls back to the determinant ratio.
    """
    result = membership(pencil, q)
    if result and result.v is not None:
        a, b, c = result.v
        if a and not b and not c:
            try:
                return _unimodular_pair(pencil, q, a)
            except HypothesisViolatedError:
                pass
    return certify_det_ratio(pencil, q)


class ProcedureResult(NamedTuple):
    """Outcome of the ansatz-alignment procedure.

    The member it aligns, with ansatz v and the blocks used, is not built;
    it is generate_member(q, result.transform.v, result.blocks).
    """

    pencil: Pencil2P
    transform: AnsatzTransform
    blocks: FreeBlocks
    certificate: LinearizationCertificate
    draws_used: int


def _random_rows(rng: random.Random, rows: int, cols: int) -> list[list[Pair]]:
    """The integer numerators of a rows x cols block, each drawn from -3..3, row by row."""
    return [[(rng.randint(-3, 3), 0) for _ in range(cols)] for _ in range(rows)]


def procedure_linearize(
    q: QuadPoly2P,
    v: Sequence,
    alpha=1,
    blocks: Optional[FreeBlocks] = None,
    rng: Optional[random.Random] = None,
    case: Optional[str] = None,
) -> ProcedureResult:
    """Build a certified linearization from an arbitrary nonzero ansatz.

    The caller's blocks, if any, must be sized for q's n.
    Steps: select the alignment transform M for v; force Y21 = Y31 = 0 and,
    unless M has m21 = m31 = 0, also Y11 = 0; keep the caller's Z blocks if
    they pass the transformed-Z nonsingularity condition, otherwise redraw
    them with small random integers (budget ``_MAX_DRAWS``; the condition is
    generically satisfiable, so exhausting the budget is reported with
    diagnostics).  The transformed pencil (M kron I_n) L of the member L
    with ansatz v and those blocks has ansatz alpha*e1 and is returned with
    its unimodular-pair certificate.  By the mixed product
    (M kron I_n)(v kron A_ab) = (alpha e1) kron A_ab, and block column by
    block column on the kernel layout, it is laid out once as the member
    with ansatz alpha*e1 and the transformed blocks: Z1 and Z2 as the
    accepted draw's condition transformed them, Y1 only when Y11 != 0.
    """
    n = q.n
    if blocks is not None and blocks.n != n:
        raise ShapeError(f"blocks sized for n = {blocks.n}, quadratic has n = {n}")
    transform = ansatz_transform(v, alpha, case=case)
    m3 = transform.matrix
    if blocks is None:
        blocks = FreeBlocks.zero(n)
    y1 = Matrix.zeros(3 * n, n)
    y1_form = y1.integer_form()
    if not transform.needs_zero_y11 and not (y11 := blocks.sub("y1", 0)).is_zero():
        y1 = Matrix.vstack([y11, Matrix.zeros(2 * n, n)])
        y1_form = block_rows(m3, y1._stored_form())

    z1, z2 = blocks.z1, blocks.z2
    draws = 0
    while True:
        # An all-zero Z pair (the start without caller blocks) is exactly
        # singular: a failed draw, never aligned.
        if not (z1.is_zero() and z2.is_zero()):
            det_z, *z_forms = _transformed_z(m3, z1, z2)
            if det_z:
                break
        if draws >= _MAX_DRAWS:
            raise ConditionUnsatisfiableError(
                f"no admissible Z blocks after {_MAX_DRAWS} draws for case "
                f"{transform.case} (v = {transform.v}); last det was zero"
            )
        if rng is None:
            rng = random.Random(0)
        z1 = Matrix.from_integer_form(1, _random_rows(rng, 3 * n, n))
        z2 = Matrix.from_integer_form(1, _random_rows(rng, 3 * n, n))
        draws += 1

    e1 = gaussint.from_scalars((transform.alpha, ZERO, ZERO))
    aligned = _lay_out(q._coefficient_forms, e1, [y1_form, *z_forms])
    certificate = _scaled_e1_pair(aligned, q, transform.alpha, det_z)
    return ProcedureResult(
        pencil=aligned,
        transform=transform,
        blocks=FreeBlocks(n, y1, z1, z2),
        certificate=certificate,
        draws_used=draws,
    )
