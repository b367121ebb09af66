import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspace import (
    FreeBlocks,
    Matrix,
    Pencil2P,
    QuadPoly2P,
    ansatz_transform,
    best_certificate,
    certify_det_ratio,
    certify_scaled_e1,
    certify_standard,
    condition_det_check,
    generate_member,
    kernel_member,
    membership,
    procedure_linearize,
    standard_blocks,
    standard_linearization,
)
import pencilspace
from pencilspace import construct, gaussint, matrices, polymatrix, space
from pencilspace import pencil as pencil_module
from pencilspace.bipoly import BiPoly
from pencilspace.cli import main
from pencilspace.construct import ALL_CASES
from pencilspace.errors import HypothesisViolatedError, ShapeError, ZeroAnsatzError
from pencilspace.matrices import kron
from pencilspace.polymatrix import PolyMatrix, exact_det_poly
from pencilspace.scalars import GaussianRational
from pencilspace.serialization import serialize_blocks, serialize_problem
from pencilspace.space import lower_z_block

from conftest import (
    example_quad,
    poly_div_constant_ratio,
    rand_blocks,
    rand_gr,
    rand_matrix,
    rand_nonzero_gr,
    rand_quad,
)

CASE_PATTERNS = {
    "abc": (True, True, True),
    "bc": (False, True, True),
    "c": (False, False, True),
    "ac": (True, False, True),
    "ac-alt": (True, False, True),
    "a": (True, False, False),
    "ab": (True, True, False),
    "b": (False, True, False),
}


def random_vector_for(pattern, rng):
    def entry(nonzero):
        if not nonzero:
            return Fraction(0)
        while True:
            value = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
            if value:
                return value

    return tuple(entry(p) for p in pattern)


def test_case_only_c():
    t = ansatz_transform((0, 0, 3), alpha=2)
    assert t.case == "c"
    assert t.matrix == Matrix([[1, 1, Fraction(2, 3)], [1, 1, 0], [0, 1, 0]])
    assert t.matrix @ Matrix.column([0, 0, 3]) == Matrix.column([2, 0, 0])


def test_case_only_a():
    a = Fraction(7, 2)
    t = ansatz_transform((a, 0, 0), alpha=a)
    assert t.case == "a"
    assert t.matrix == Matrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]])


def test_case_all_nonzero_spec_instance():
    t = ansatz_transform((1, 1, 2), alpha=1)
    assert t.case == "abc"
    assert t.matrix == Matrix([[1, 0, 0], [1, -1, 0], [1, 0, Fraction(-1, 2)]])
    assert t.matrix.det() == GaussianRational(Fraction(1, 2))


def test_all_eight_cases(rng):
    for case in ALL_CASES:
        for _ in range(5):
            v = random_vector_for(CASE_PATTERNS[case], rng)
            alpha = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
            t = ansatz_transform(v, alpha, case=case)
            assert t.matrix.det(), case
            assert t.matrix @ Matrix.column(v) == Matrix.column([alpha, 0, 0])


def reference_case_matrix(case, v, alpha):
    """The alignment matrix of a case written on GaussianRational entries:
    the oracle for the integer-form table of construct._case_matrix."""
    a, b, c = (GaussianRational.coerce(x) for x in v)
    one = GaussianRational(1)
    inv = {name: one / x if x else None for name, x in zip("abc", (a, b, c))}
    ia, ib, ic = inv["a"], inv["b"], inv["c"]
    table = {
        "abc": lambda: [[alpha * ia, 0, 0], [ia, -ib, 0], [ia, 0, -ic]],
        "bc": lambda: [[0, alpha * ib, 0], [0, -ib, ic], [1, 0, 0]],
        "c": lambda: [[1, 1, alpha * ic], [1, 1, 0], [0, 1, 0]],
        "ac": lambda: [[alpha * ia, 0, 0], [0, 1, 0], [-ia, 0, ic]],
        "ac-alt": lambda: [[alpha * ia, 0, 0], [ia, 0, -ic], [0, 1, 0]],
        "a": lambda: [[alpha * ia, 0, 0], [0, 1, 0], [0, 1, 1]],
        "ab": lambda: [[alpha * ia, 0, 1], [ia, -ib, 1], [-ia, ib, 0]],
        "b": lambda: [[1, alpha * ib, 0], [1, 0, 0], [1, 0, 1]],
    }
    return Matrix(table[case]())


@pytest.mark.parametrize("case", ALL_CASES)
@pytest.mark.parametrize("complex_prob", [0.0, 1.0])
def test_case_matrix_and_det_match_the_scalar_table_and_bareiss(case, complex_prob):
    # M is written on integer forms and det M read off the case formula; the
    # GaussianRational table, the 3x3 Bareiss det and M v = alpha e1 as a
    # Matrix product are the oracles, over real and complex v and alpha.
    rng = random.Random(f"case/{case}/{complex_prob}")

    def nonzero():
        value = GaussianRational(0)
        while not value:
            value = rand_gr(rng, complex_prob)
        return value

    for _ in range(12):
        v = [nonzero() if entry else GaussianRational(0) for entry in CASE_PATTERNS[case]]
        alpha = nonzero()
        t = ansatz_transform(v, alpha, case=case)
        assert t.matrix == reference_case_matrix(case, v, alpha)
        assert t.det == t.matrix.det() != 0
        assert t.matrix @ Matrix.column(v) == Matrix.column([alpha, 0, 0])


def test_case_mismatch_rejected():
    with pytest.raises(ValueError):
        ansatz_transform((1, 1, 1), case="ac")


def test_zero_ansatz_rejected():
    with pytest.raises(ZeroAnsatzError):
        ansatz_transform((0, 0, 0))


def test_condition_check_standard_blocks():
    q = example_quad(2)
    blocks = standard_blocks(q)
    assert condition_det_check(Matrix.identity(3), blocks.z1, blocks.z2)


def test_condition_check_zero_blocks():
    z = Matrix.zeros(6, 2)
    assert not condition_det_check(Matrix.identity(3), z, z)


def test_condition_check_equal_columns():
    z = Matrix([[1, 0], [0, 1], [2, 3], [1, 1], [0, 2], [1, 0]])
    assert not condition_det_check(Matrix.identity(3), z, z)


def test_certify_standard_random(rng):
    for n in (1, 2, 3):
        q = rand_quad(rng, n)
        cert = certify_standard(q)
        assert cert.verified and cert.kind == "unimodular-pair"
        assert cert.det_e and cert.det_f
        assert cert.det_e == GaussianRational(1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certify_standard_zero_quadratic(n):
    # Membership is ambiguous for Q = 0, so the standard route refuses it
    # as certify_scaled_e1 does.
    zero = Matrix.zeros(n, n)
    with pytest.raises(HypothesisViolatedError, match=r"^pencil does not have ansatz \(1, 0, 0\)$"):
        certify_standard(QuadPoly2P(n, *([zero] * 6)))


def test_certify_standard_scalar_product_by_hand():
    # n = 1 unit circle: F*L*E spelled out symbolically must equal
    # diag(q, 1, 1).
    q = QuadPoly2P.scalar(a20=1, a02=1, a00=-1)
    cert = certify_standard(q)
    lam, mu = BiPoly.lam(), BiPoly.mu()
    one = BiPoly.constant(1)
    target = PolyMatrix(
        [
            [lam * lam + mu * mu - one, BiPoly.zero(), BiPoly.zero()],
            [BiPoly.zero(), one, BiPoly.zero()],
            [BiPoly.zero(), BiPoly.zero(), one],
        ]
    )
    pencil = standard_linearization(q)
    assert cert.f @ pencil.as_polymatrix() @ cert.e == target


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certify_standard_factors_match_docstring_closed_forms(n):
    # E = [[lam I, I, 0], [mu I, 0, I], [I, 0, 0]] and
    # F = [[I, mu A02 + lam A11 + A01, lam A20 + A10], [0, 0, -I], [0, -I, 0]].
    q = rand_quad(random.Random(f"standard-closed-form/{n}"), n, complex_prob=0.5)
    cert = certify_standard(q)
    poly = lambda coeffs: PolyMatrix.from_coefficients(n, n, coeffs)
    eye, zero = PolyMatrix.identity(n), PolyMatrix.zeros(n, n)
    e = PolyMatrix.from_blocks(
        [
            [poly({(1, 0): Matrix.identity(n)}), eye, zero],
            [poly({(0, 1): Matrix.identity(n)}), zero, eye],
            [eye, zero, zero],
        ]
    )
    f = PolyMatrix.from_blocks(
        [
            [eye, poly({(0, 1): q.a02, (1, 0): q.a11, (0, 0): q.a01}), poly({(1, 0): q.a20, (0, 0): q.a10})],
            [zero, zero, -eye],
            [zero, -eye, zero],
        ]
    )
    assert cert.e == e
    assert cert.f == f


def test_certificate_equality_tells_factors_apart():
    # The factors are built from fields the certificate compares and
    # hashes, and reading them changes neither.
    q = rand_quad(random.Random("equality"), 2)
    first, again = certify_standard(q), certify_standard(q)
    assert first == again and hash(first) == hash(again)
    assert first.e is not None and first.f is not None
    assert first == again and hash(first) == hash(again)
    pencil, q, other = certified_pair("scaled-e1", 2, random.Random("equality/other"))
    assert other.f != certify_standard(q).f
    assert other != certify_standard(q)
    ratio = certify_det_ratio(pencil, q)
    assert ratio.verified and ratio.e is None and ratio.f is None


def test_certify_scaled_e1_random_blocks(rng):
    for _ in range(6):
        n = rng.choice((1, 2))
        q = rand_quad(rng, n)
        alpha = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        blocks = admissible_blocks(rng, n)
        pencil = generate_member(q, (alpha, 0, 0), blocks)
        cert = certify_scaled_e1(pencil, q, alpha)
        assert cert.verified
        assert cert.det_e and cert.det_f
        assert cert.e is not None and exact_det_poly(cert.e).is_constant()


def admissible_blocks(rng, n):
    zero = Matrix.zeros(2 * n, n)
    while True:
        y11 = rand_matrix(rng, n, n)
        z1 = rand_matrix(rng, 3 * n, n)
        z2 = rand_matrix(rng, 3 * n, n)
        if lower_z_block(z1, z2).det():
            return FreeBlocks(n, Matrix.vstack([y11, zero]), z1, z2)


def test_certify_scaled_e1_rejects_singular_z(rng):
    n = 2
    q = rand_quad(rng, n)
    blocks = FreeBlocks(
        n,
        Matrix.zeros(3 * n, n),
        Matrix.vstack([q.a10, Matrix.zeros(n, n), Matrix.zeros(n, n)]),
        Matrix.vstack([q.a01, Matrix.zeros(n, n), Matrix.zeros(n, n)]),
    )
    pencil = generate_member(q, (1, 0, 0), blocks)
    with pytest.raises(HypothesisViolatedError, match="^lower Z block is singular$"):
        certify_scaled_e1(pencil, q, 1)


@pytest.mark.parametrize("entry", ["certify_scaled_e1", "certify_standard", "best_certificate"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_eliminates_only_the_z_block_once(n, entry, bareiss_calls):
    # Matrix.det eliminates the 2n-row lower Z block once; det E = alpha^-n
    # and det F = 1 / det Z are read off the build.  The first read of F
    # eliminates Z once more, for Z^-1, and a second read none.
    kind = "standard" if entry == "certify_standard" else "scaled-e1"
    pencil, q, _ = certified_pair(kind, n, random.Random(f"z/{entry}/{n}"))
    alpha = membership(pencil, q).v[0]
    bareiss_calls.clear()
    cert = ENTRY_POINTS[entry](pencil, q, alpha)
    assert [rows for rows, _ in bareiss_calls] == [2 * n]
    assert cert.verified and cert.kind == "unimodular-pair"
    assert cert.det_e == GaussianRational(1) / alpha**n
    assert cert.det_f * pencil.const.submatrix(range(n, 3 * n), range(2 * n)).det() == 1
    bareiss_calls.clear()
    f = cert.f
    assert [rows for rows, _ in bareiss_calls] == [2 * n]
    bareiss_calls.clear()
    assert cert.f is f and not bareiss_calls


def test_singular_z_block_with_a_perfect_matching_is_rejected(rng):
    # Unlike the zero blocks above, this lower Z block [Z1 | Z2] (rows n to
    # 3n) has no zero entry: only the elimination in Matrix.det finds its
    # second column block, twice the first, dependent.
    n = 2
    q = rand_quad(rng, n)
    lower = Matrix([[rng.randint(1, 9) for _ in range(n)] for _ in range(2 * n)])
    z1 = Matrix.vstack([q.a10, lower])
    z2 = Matrix.vstack([q.a01, lower.scale(2)])
    pencil = generate_member(q, (1, 0, 0), FreeBlocks(n, Matrix.zeros(3 * n, n), z1, z2))
    with pytest.raises(HypothesisViolatedError, match="^lower Z block is singular$"):
        certify_scaled_e1(pencil, q, 1)


def test_certify_scaled_e1_rejects_wrong_ansatz(rng):
    q = rand_quad(rng, 1)
    pencil = generate_member(q, (1, 1, 0), rand_blocks(rng, 1))
    with pytest.raises(HypothesisViolatedError, match=r"^pencil does not have ansatz \(1, 0, 0\)$"):
        certify_scaled_e1(pencil, q, 1)


def nonzero_y21_member(q, v):
    """The member of q with ansatz v, the standard Z blocks and Y1 = [0; I; 0]."""
    n = q.n
    blocks = standard_blocks(q)
    y1 = Matrix.vstack([Matrix.zeros(n, n), Matrix.identity(n), Matrix.zeros(n, n)])
    return generate_member(q, v, FreeBlocks(n, y1, blocks.z1, blocks.z2))


def test_certify_scaled_e1_rejects_nonzero_y21(rng):
    q = rand_quad(rng, 1)
    with pytest.raises(HypothesisViolatedError, match="^certificate requires Y21 = Y31 = 0$"):
        certify_scaled_e1(nonzero_y21_member(q, (1, 0, 0)), q, 1)


def test_certify_scaled_e1_reports_the_ansatz_before_y21(rng):
    # Both hypotheses fail; the ansatz is checked first.
    q = rand_quad(rng, 2)
    with pytest.raises(HypothesisViolatedError, match=r"^pencil does not have ansatz \(2, 0, 0\)$"):
        certify_scaled_e1(nonzero_y21_member(q, (1, 1, 0)), q, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_certify_scaled_e1_refuses_the_zero_quadratic(n):
    # For Q = 0 the ansatz identity holds for every kernel pencil, the
    # standard linearization among them, so no ansatz is canonical.
    q = QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6)))
    with pytest.raises(HypothesisViolatedError, match=r"^pencil does not have ansatz \(1, 0, 0\)$"):
        certify_scaled_e1(standard_linearization(q), q, 1)


def test_det_ratio_of_standard(rng):
    q = rand_quad(rng, 2)
    cert = certify_det_ratio(standard_linearization(q), q)
    if not exact_det_poly(q.as_polymatrix()).is_zero():
        assert cert.verified and cert.gamma


def test_det_ratio_cross_check_with_unimodular_pair(rng):
    # F*L*E = diag(Q, I) forces det F * det L * det E = det Q, so
    # gamma = det L / det Q = 1 / (det E * det F).
    q = rand_quad(rng, 2)
    pair = certify_standard(q)
    ratio = certify_det_ratio(standard_linearization(q), q)
    assert ratio.verified
    assert ratio.gamma * pair.det_e * pair.det_f == GaussianRational(1)


def test_det_ratio_rejects_wrong_size():
    from pencilspace.errors import ShapeError

    q2 = example_quad(2)
    with pytest.raises(ShapeError):
        certify_det_ratio(standard_linearization(example_quad(1)), q2)


def test_det_ratio_fails_for_kernel_member():
    rng = random.Random(5)
    q = example_quad(1)
    cert = certify_det_ratio(kernel_member(1, rand_blocks(rng, 1)), q)
    assert not cert.verified


def test_best_certificate_prefers_unimodular(rng):
    q = rand_quad(rng, 2)
    assert best_certificate(standard_linearization(q), q).kind == "unimodular-pair"


def test_best_certificate_falls_back_to_ratio(rng):
    # A (1,1,2)-ansatz member is not covered by the scaled-e1 certificate,
    # but the determinant ratio still certifies it when it is a
    # linearization in the determinant sense -- or reports failure.
    q = rand_quad(rng, 1)
    pencil = generate_member(q, (1, 1, 2), rand_blocks(rng, 1))
    cert = best_certificate(pencil, q)
    assert cert.kind == "det-ratio"


def test_procedure_identity_ansatz(rng):
    # v already a multiple of e1: no realignment content, certificate holds.
    q = rand_quad(rng, 2)
    result = procedure_linearize(q, (2, 0, 0), alpha=3, rng=random.Random(1))
    assert result.certificate.verified
    res = membership(result.pencil, q)
    assert res.v == (GaussianRational(3), GaussianRational(0), GaussianRational(0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_procedure_takes_det_z_once_per_accepted_draw(monkeypatch, n):
    # The zero Z blocks are structurally singular (no elimination), the one
    # draw passes the condition, and the certificate reuses its det Z: det M
    # is read off its case, so the one elimination is Z's, none repeated.
    sizes = []
    real = matrices.bareiss_det_int
    monkeypatch.setattr(matrices, "bareiss_det_int", lambda a: sizes.append(len(a)) or real(a))
    q = rand_quad(random.Random(n), n)
    result = procedure_linearize(q, (1, 2, 3), alpha=2, rng=random.Random(n))
    assert result.draws_used == 1
    assert sizes == [2 * n]
    monkeypatch.undo()
    assert result.transform.det == result.transform.matrix.det()
    z = result.pencil.const.submatrix(range(n, 3 * n), range(2 * n))
    assert result.certificate.det_f == GaussianRational(1) / z.det()
    assert result.certificate == certify_scaled_e1(result.pencil, q, 2)


def test_procedure_worked_ansatz(rng):
    q = rand_quad(rng, 2)
    result = procedure_linearize(q, (1, 1, 2), alpha=1, rng=random.Random(2))
    assert result.transform.case == "abc"
    assert result.draws_used <= 32
    res = membership(result.pencil, q)
    assert res.v == (GaussianRational(1), GaussianRational(0), GaussianRational(0))


def test_procedure_forces_y11_zero_when_needed(rng):
    q = rand_quad(rng, 2)
    blocks = admissible_blocks(rng, 2)
    assert not blocks.sub("y1", 0).is_zero()
    # v with b != 0: rows 2-3 of M touch the first column, so Y11 must drop.
    result = procedure_linearize(q, (1, 1, 2), blocks=blocks, rng=random.Random(3))
    assert result.blocks.y1.is_zero()


def test_procedure_keeps_y11_when_allowed(rng):
    q = rand_quad(rng, 2)
    blocks = admissible_blocks(rng, 2)
    # v = (a, 0, 0) selects the case with m21 = m31 = 0.
    result = procedure_linearize(q, (2, 0, 0), blocks=blocks, rng=random.Random(4))
    assert not result.transform.needs_zero_y11
    assert result.blocks.sub("y1", 0) == blocks.sub("y1", 0)


def test_procedure_zero_ansatz_rejected(rng):
    with pytest.raises(ZeroAnsatzError):
        procedure_linearize(rand_quad(rng, 1), (0, 0, 0))


def test_procedure_rejects_blocks_sized_for_another_n(rng):
    for q_n, blocks_n in ((2, 1), (1, 2)):
        with pytest.raises(
            ShapeError, match=f"blocks sized for n = {blocks_n}, quadratic has n = {q_n}"
        ):
            procedure_linearize(rand_quad(rng, q_n), (1, 1, 2), blocks=FreeBlocks.zero(blocks_n))


def test_procedure_deterministic_given_seed(rng):
    q = rand_quad(rng, 2)
    a = procedure_linearize(q, (0, 2, 1), rng=random.Random(9))
    b = procedure_linearize(q, (0, 2, 1), rng=random.Random(9))
    assert a.pencil == b.pencil
    assert a.draws_used == b.draws_used


def docstring_pair(pencil, q, alpha):
    """E and F as the certify_scaled_e1 docstring writes them, with W built
    from q, Y11 and the free blocks, and Z from the lower Z blocks."""
    from pencilspace.space import free_blocks

    n = q.n
    blocks = free_blocks(pencil)
    y11 = blocks.sub("y1", 0)
    z_inv = PolyMatrix.from_scalar(lower_z_block(blocks.z1, blocks.z2).inverse())
    w = PolyMatrix.from_coefficients(
        n,
        2 * n,
        {
            (1, 0): Matrix.hstack([q.a20.scale(alpha), q.a11.scale(alpha) - y11]),
            (0, 1): Matrix.hstack([y11, q.a02.scale(alpha)]),
            (0, 0): Matrix.hstack([blocks.sub("z1", 0), blocks.sub("z2", 0)]),
        },
    )
    f = PolyMatrix.from_blocks(
        [[PolyMatrix.identity(n), -(w @ z_inv)], [PolyMatrix.zeros(2 * n, n), z_inv]]
    )
    inv_alpha = GaussianRational(1) / GaussianRational.coerce(alpha)
    scaled = lambda mono: PolyMatrix.from_coefficients(
        n, n, {mono: Matrix.identity(n).scale(inv_alpha)}
    )
    eye, zero = PolyMatrix.identity(n), PolyMatrix.zeros(n, n)
    e = PolyMatrix.from_blocks(
        [[scaled((1, 0)), eye, zero], [scaled((0, 1)), zero, eye], [scaled((0, 0)), zero, zero]]
    )
    return e, f


def test_certify_scaled_e1_factors_match_docstring_construction(rng):
    for n in (1, 2, 3):
        for _ in range(2):
            q = rand_quad(rng, n, complex_prob=0.5)
            alpha = rand_nonzero_gr(rng)
            zero = Matrix.zeros(2 * n, n)
            while True:
                y11 = rand_matrix(rng, n, n, complex_prob=0.5)
                z1 = rand_matrix(rng, 3 * n, n, complex_prob=0.5)
                z2 = rand_matrix(rng, 3 * n, n, complex_prob=0.5)
                if lower_z_block(z1, z2).det():
                    break
            pencil = generate_member(q, (alpha, 0, 0), FreeBlocks(n, Matrix.vstack([y11, zero]), z1, z2))
            cert = certify_scaled_e1(pencil, q, alpha)
            e, f = docstring_pair(pencil, q, alpha)
            assert cert.e == e
            assert cert.f == f


def diag_q_identity(q):
    """diag(Q, I_2n), the right-hand side of F * L * E = diag(Q, I_2n)."""
    n = q.n
    return PolyMatrix.from_blocks(
        [
            [q.as_polymatrix(), PolyMatrix.zeros(n, 2 * n)],
            [PolyMatrix.zeros(2 * n, n), PolyMatrix.identity(2 * n)],
        ]
    )


def complex_alpha(rng):
    return GaussianRational(Fraction(rng.randint(1, 4), rng.choice((1, 2, 3))), rng.randint(-3, 3))


def certified_pair(kind, n, rng):
    """(pencil, q, certificate) of one unimodular-pair route."""
    q = rand_quad(rng, n, complex_prob=0.5)
    if kind == "standard":
        return standard_linearization(q), q, certify_standard(q)
    alpha = complex_alpha(rng)
    if kind == "procedure":
        v = [0, 0, 0]
        while not any(v):
            v = [rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(3)]
        result = procedure_linearize(q, v, alpha, rng=rng)
        return result.pencil, q, result.certificate
    zero = Matrix.zeros(2 * n, n)
    while True:
        y11 = rand_matrix(rng, n, n, complex_prob=0.5)
        z1 = rand_matrix(rng, 3 * n, n, complex_prob=0.5)
        z2 = rand_matrix(rng, 3 * n, n, complex_prob=0.5)
        if lower_z_block(z1, z2).det():
            break
    pencil = generate_member(q, (alpha, 0, 0), FreeBlocks(n, Matrix.vstack([y11, zero]), z1, z2))
    return pencil, q, certify_scaled_e1(pencil, q, alpha)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(("scaled-e1", "procedure", "standard")),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_block_check_agrees_with_the_generic_product(kind, n, seed):
    pencil, q, cert = certified_pair(kind, n, random.Random(seed))
    assert cert.verified and cert.kind == "unimodular-pair"
    assert cert.f @ pencil.as_polymatrix() @ cert.e == diag_q_identity(q)


@pytest.mark.parametrize("kind", ["scaled-e1", "procedure", "standard"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_wrong_z_inverse_fails_the_block_check(monkeypatch, kind, n):
    # Twice the true inverse: nonsingular, but F * L * E != diag(Q, I_2n).
    # Certification never forms Z^-1; the first read of F does, and checks it.
    real = Matrix.inverse
    inverses = []
    monkeypatch.setattr(Matrix, "inverse", lambda m: inverses.append(m) or real(m).scale(2))
    pencil, q, cert = certified_pair(kind, n, random.Random(f"{kind}/{n}"))
    assert cert.verified and cert.kind == "unimodular-pair" and not inverses
    with pytest.raises(AssertionError, match="^certificate product failed; construction is wrong$"):
        cert.f
    assert len(inverses) == 1


def spy(monkeypatch, name, *owners):
    """The argument tuples of every call to owners[0].name, patched on each
    owner (a class, or each module that imports the function by name)."""
    real = getattr(owners[0], name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls


ENTRY_POINTS = {
    "certify_scaled_e1": lambda pencil, q, alpha: certify_scaled_e1(pencil, q, alpha),
    "certify_standard": lambda pencil, q, alpha: certify_standard(q),
    "best_certificate": lambda pencil, q, alpha: best_certificate(pencil, q),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_entry_point_checks_the_ansatz_identity_once(monkeypatch, entry, n):
    # The ansatz identity is decided once, by space._ansatz_holds on the
    # box-add rows, inside membership for best_certificate (which reads v
    # off them) and directly elsewhere; no box-add Matrix is formed, and
    # the pair forms no polynomial product.  Reading F forms one, W Z^-1,
    # and each factor is built once.
    kind = "standard" if entry == "certify_standard" else "scaled-e1"
    pencil, q, cert = certified_pair(kind, n, random.Random(f"{entry}/{n}"))
    alpha = membership(pencil, q).v[0]
    checks = spy(monkeypatch, "_ansatz_holds", space, construct)
    box_adds = spy(monkeypatch, "box_add_pencil", pencil_module, pencilspace)
    memberships = spy(monkeypatch, "membership", space, construct)
    pairs = spy(monkeypatch, "_unimodular_pair", construct)
    products = spy(monkeypatch, "__matmul__", PolyMatrix)
    result = ENTRY_POINTS[entry](pencil, q, alpha)
    assert result == cert
    assert len(checks) == 1 and not box_adds
    assert not hasattr(space, "ansatz_row")
    assert len(memberships) == (entry == "best_certificate")
    assert len(pairs) == 1 and not products
    f = result.f
    ((w_block, z_inv),) = products
    assert (w_block.shape, z_inv.shape) == ((n, 2 * n), (2 * n, 2 * n))
    e = result.e
    assert result.e is e and result.f is f
    assert len(products) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ansatz_checks_form_no_box_add_matrix(monkeypatch, capsys, tmp_path, n):
    # membership, certify_scaled_e1, procedure_linearize and the kernel
    # command read the box-add off its integer rows: no 3n x 6n Matrix is
    # built and box_add_pencil is not called.
    rng = random.Random(f"no-box-add/{n}")
    pencil, q, _ = certified_pair("scaled-e1", n, rng)
    alpha = membership(pencil, q).v[0]
    member = generate_member(q, (1, 0, -2), rand_blocks(rng, n))
    blocks = tmp_path / "blocks.json"
    blocks.write_text(serialize_blocks(rand_blocks(rng, n)), encoding="utf-8")
    shapes = []
    real_init = matrices._init
    monkeypatch.setattr(
        matrices, "_init", lambda m, data, den: shapes.append((len(data), len(data[0]))) or real_init(m, data, den)
    )
    box_adds = spy(monkeypatch, "box_add_pencil", pencil_module, pencilspace)
    assert membership(member, q).v == (1, 0, -2)
    assert certify_scaled_e1(pencil, q, alpha).verified
    assert procedure_linearize(q, (1, 2, -1), alpha, rng=rng).certificate.verified
    assert main(["kernel", "--blocks", str(blocks)]) == 0
    assert "box-add vanishes = True" in capsys.readouterr().out
    assert shapes and (3 * n, 6 * n) not in shapes
    assert not box_adds


def full_det_ratio(pencil, q):
    """Oracle: (verified, detail, gamma) from both determinants in full,
    through exact_det_poly and the BiPoly ratio, with no screen."""
    det_l = exact_det_poly(pencil.as_polymatrix())
    det_q = exact_det_poly(q.as_polymatrix())
    if det_q.is_zero():
        return False, "det Q is identically zero", None
    gamma = poly_div_constant_ratio(det_l, det_q)
    if gamma is None:
        return False, "determinants not proportional", None
    if not gamma:
        return False, "det L is identically zero (degenerate ratio)", gamma
    return True, "", gamma


def _zero_row(m, row):
    return Matrix([[0 if i == row else m[i, j] for j in range(m.cols)] for i in range(m.rows)])


def det_ratio_input(kind, n, rng):
    """A (pencil, q) pair of one kind: a member with ansatz alpha*e1 and
    Y1 = [Y11; 0; 0] (verified unless its Z block is singular), the same
    with one perturbed entry, a member with a general ansatz and random
    blocks, the procedure's source pencil ((M kron I)^-1 times a certified
    member, so a verified ratio with gamma != 1), a kernel member (det L = 0
    or not proportional), or a Q with a zero row (det Q = 0)."""
    q = rand_quad(rng, n)
    blocks = rand_blocks(rng, n)
    v = random_vector_for(CASE_PATTERNS[rng.choice(ALL_CASES)], rng)
    y1 = Matrix.vstack([blocks.sub("y1", 0), Matrix.zeros(2 * n, n)])
    e1_member = generate_member(q, (rand_nonzero_gr(rng), 0, 0), FreeBlocks(n, y1, blocks.z1, blocks.z2))
    if kind == "e1":
        return e1_member, q
    if kind == "general":
        return generate_member(q, v, blocks), q
    if kind == "perturbed":
        pencil = e1_member
        i, j = rng.randrange(3 * n), rng.randrange(3 * n)
        bump = Matrix(
            [[rand_nonzero_gr(rng) if (r, c) == (i, j) else 0 for c in range(3 * n)]
             for r in range(3 * n)]
        )
        return Pencil2P(3 * n, pencil.lam_coeff, pencil.mu_coeff, pencil.const + bump), q
    if kind == "source":
        result = procedure_linearize(q, v, blocks=blocks, rng=rng)
        return generate_member(q, result.transform.v, result.blocks), q
    if kind == "kernel":
        return kernel_member(n, blocks), q
    row = rng.randrange(n)
    singular = QuadPoly2P(
        n, *(_zero_row(m, row) for m in (q.a20, q.a11, q.a02, q.a10, q.a01, q.a00))
    )
    return generate_member(singular, v, blocks), singular


DET_RATIO_KINDS = ("e1", "general", "perturbed", "source", "kernel", "zero-row")


def assert_det_ratio_matches_full_route(pencil, q):
    cert = certify_det_ratio(pencil, q)
    verified, detail, gamma = full_det_ratio(pencil, q)
    assert (cert.verified, cert.detail) == (verified, detail)
    assert cert.gamma == gamma


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(DET_RATIO_KINDS), st.sampled_from((1, 2)), st.integers(0, 2**32))
def test_det_ratio_matches_full_determinants(kind, n, seed):
    assert_det_ratio_matches_full_route(*det_ratio_input(kind, n, random.Random(seed)))


@pytest.mark.parametrize("kind", DET_RATIO_KINDS)
def test_det_ratio_matches_full_determinants_at_n3(kind):
    assert_det_ratio_matches_full_route(*det_ratio_input(kind, 3, random.Random(30)))


def test_det_ratio_source_pencil_has_gamma_det_m_power():
    # det (M kron I_n) = det M^n, and the aligned pencil's ratio is
    # 1 / (det E det F) by its unimodular pair.
    rng = random.Random(8)
    q = rand_quad(rng, 2)
    result = procedure_linearize(q, (1, 1, 2), rng=rng)
    cert = certify_det_ratio(generate_member(q, result.transform.v, result.blocks), q)
    pair = result.certificate
    assert cert.verified
    assert cert.gamma == GaussianRational(1) / (
        result.transform.matrix.det() ** 2 * pair.det_e * pair.det_f
    )
    assert cert.gamma != GaussianRational(1)


def test_det_ratio_screens_two_points_before_any_expansion(monkeypatch, bareiss_calls):
    # A member that is not a linearization is rejected by the F_p screen at
    # the two points: no Bareiss elimination and no _integer_grid_det walk.
    # A verified ratio runs exactly its two expansions, one 9 x 9 and one
    # 3 x 3 Bareiss run.
    rng = random.Random(13)
    q = rand_quad(rng, 3)
    pencil = generate_member(q, (1, 1, 2), rand_blocks(rng, 3))
    walks = spy(monkeypatch, "_integer_grid_det", polymatrix)
    bareiss_calls.clear()
    cert = certify_det_ratio(pencil, q)
    assert cert.detail == "determinants not proportional"
    assert bareiss_calls == [] and walks == []
    assert certify_det_ratio(standard_linearization(q), q).verified
    assert sorted(rows for rows, _ in bareiss_calls) == [3, 9]
    assert len(walks) == 2


def random_pencil(rng, m, complex_prob):
    return Pencil2P(m, *(rand_matrix(rng, m, m, complex_prob) for _ in range(3)))


@pytest.mark.parametrize("case", ALL_CASES)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_block_rows_match_the_kron_product(case, n, complex_prob):
    # Pencil2P.transform and _transformed_z apply M kron I_n block row
    # by block row; the oracle forms kron(M, I_n) and multiplies densely.
    rng = random.Random(f"block-rows/{case}/{n}/{complex_prob}")
    v = random_vector_for(CASE_PATTERNS[case], rng)
    alpha = complex_alpha(rng) if complex_prob else Fraction(rng.randint(1, 5), rng.randint(1, 3))
    m3 = ansatz_transform(v, alpha, case=case).matrix
    op = kron(m3, Matrix.identity(n))
    for _ in range(3):
        pencil = random_pencil(rng, 3 * n, complex_prob)
        expected = [op @ coeff for coeff in (pencil.lam_coeff, pencil.mu_coeff, pencil.const)]
        assert list(pencil.transform(m3)[1:]) == expected
        z1, z2 = (rand_matrix(rng, 3 * n, n, complex_prob) for _ in range(2))
        det = lower_z_block(op @ z1, op @ z2).det()
        assert construct._transformed_z(m3, z1, z2)[0] == det
        assert condition_det_check(m3, z1, z2) == bool(det)
    # a singular transformed Z block: Z2 = Z1 makes its columns repeat
    assert construct._transformed_z(m3, z1, z1)[0] == 0 == lower_z_block(op @ z1, op @ z1).det()


def test_block_rows_reject_wrong_shapes():
    m3 = Matrix.identity(3)
    with pytest.raises(ShapeError):
        random_pencil(random.Random(0), 3, 0).transform(Matrix.identity(2))
    with pytest.raises(ShapeError):
        Pencil2P(2, *(Matrix.identity(2) for _ in range(3))).transform(m3)
    with pytest.raises(ShapeError):
        construct._transformed_z(Matrix.identity(2), Matrix.zeros(3, 1), Matrix.zeros(3, 1))
    with pytest.raises(ShapeError):
        condition_det_check(m3, Matrix.zeros(3, 1), Matrix.zeros(6, 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_procedure_and_condition_form_no_kron_or_dense_product(monkeypatch, n):
    # (M kron I_n) is applied by block rows: procedure_linearize (alignment,
    # Z draws and the aligned pencil) and condition_det_check call neither
    # kron nor Matrix.__matmul__.
    rng = random.Random(f"no-kron/{n}")
    q = rand_quad(rng, n, complex_prob=0.5)
    m3 = ansatz_transform((1, 2, -1), 3).matrix
    blocks = rand_blocks(rng, n)
    krons = spy(monkeypatch, "kron", matrices, construct, pencil_module, pencilspace)
    matrix_krons = spy(monkeypatch, "kron", Matrix)
    products = spy(monkeypatch, "__matmul__", Matrix)
    for case in ALL_CASES:
        v = random_vector_for(CASE_PATTERNS[case], rng)
        result = procedure_linearize(q, v, complex_alpha(rng), rng=rng, case=case)
        assert result.certificate.verified
    assert condition_det_check(m3, blocks.z1, blocks.z2) in (True, False)
    assert not krons and not matrix_krons and not products


FACTOR_KINDS = ("scaled-e1", "standard") + tuple(f"procedure/{case}" for case in ALL_CASES)


def factor_certificate(kind, n, rng):
    """A unimodular-pair certificate of one route: an alpha*e1 member with
    complex alpha, the standard linearization of a random Q, or the
    procedure forced to one case tag."""
    if kind.startswith("procedure/"):
        case = kind.split("/")[1]
        q = rand_quad(rng, n, complex_prob=0.5)
        v = random_vector_for(CASE_PATTERNS[case], rng)
        return procedure_linearize(q, v, complex_alpha(rng), rng=rng, case=case).certificate
    return certified_pair(kind, n, rng)[2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FACTOR_KINDS), st.integers(1, 3), st.integers(0, 2**32))
def test_factor_determinants_match_exact_det_poly(kind, n, seed):
    cert = factor_certificate(kind, n, random.Random(seed))
    assert cert.det_e == exact_det_poly(cert.e).constant_value()
    assert cert.det_f == exact_det_poly(cert.f).constant_value()


@pytest.mark.parametrize("case", ALL_CASES)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("complex_prob", [0.0, 0.5])
def test_procedure_pencil_is_the_transformed_source_member(case, n, complex_prob):
    # The aligned pencil, laid out once from the transformed blocks, is the
    # source member transformed by block rows and by the formed
    # kron(M, I_n), and det F = 1 / det of the kron route's lower Z block.
    # No caller blocks and zero caller Z blocks both force redraws; random
    # caller blocks keep Y11 in case "a".
    rng = random.Random(f"procedure-oracle/{case}/{n}/{complex_prob}")
    q = rand_quad(rng, n, complex_prob)
    caller = rand_blocks(rng, n, complex_prob)
    while caller.sub("y1", 0).is_zero():
        caller = rand_blocks(rng, n, complex_prob)
    zero_z = FreeBlocks(n, caller.y1, Matrix.zeros(3 * n, n), Matrix.zeros(3 * n, n))
    for blocks in (None, caller, zero_z):
        v = random_vector_for(CASE_PATTERNS[case], rng)
        alpha = complex_alpha(rng) if complex_prob else Fraction(rng.randint(1, 5), rng.randint(1, 3))
        result = procedure_linearize(q, v, alpha, blocks=blocks, rng=rng, case=case)
        m3 = result.transform.matrix
        op = kron(m3, Matrix.identity(n))
        source = generate_member(q, result.transform.v, result.blocks)
        assert result.pencil == source.transform(m3) == Pencil2P(3 * n, *(op @ c for c in source[1:]))
        z = lower_z_block(op @ result.blocks.z1, op @ result.blocks.z2)
        assert result.certificate.det_f == GaussianRational(1) / z.det()
        assert (result.draws_used >= 1) == (blocks is not caller)
        if blocks is not None:
            kept = not result.transform.needs_zero_y11
            assert result.blocks.y1.is_zero() != kept
            assert kept == (case == "a")


@pytest.mark.parametrize("case", ["abc", "a"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_procedure_lays_out_once_and_transforms_each_z_once_per_draw(monkeypatch, case, n):
    # One layout, no source member and no transform of a whole pencil: the
    # Z blocks of each draw are transformed once each by block_rows, Y1 =
    # [Y11; 0; 0] once more when Y11 is kept (case "a"), and the first call
    # is ansatz_transform's check of M v = alpha e1.
    rng = random.Random(f"procedure-spy/{case}/{n}")
    q = rand_quad(rng, n, complex_prob=0.5)
    y1 = rand_blocks(rng, n).y1
    blocks = FreeBlocks(n, y1, Matrix.zeros(3 * n, n), Matrix.zeros(3 * n, n))
    v = random_vector_for(CASE_PATTERNS[case], rng)
    layouts = spy(monkeypatch, "_lay_out", space, construct)
    members = spy(monkeypatch, "generate_member", space, pencilspace)
    transforms = spy(monkeypatch, "transform", Pencil2P)
    rows = spy(monkeypatch, "block_rows", pencil_module, construct)
    result = procedure_linearize(q, v, complex_alpha(rng), blocks=blocks, rng=rng, case=case)
    assert result.certificate.verified and result.draws_used >= 1
    assert len(layouts) == 1 and not members and not transforms
    keeps_y11 = case == "a"
    # The all-zero caller pair fails with no transform.
    assert len(rows) == 1 + keeps_y11 + 2 * result.draws_used
    assert rows[0][1][1] == [(w,) for w in gaussint.from_scalars(result.transform.v)[1]]
    if keeps_y11:
        # Over the stored denominator of Y1, not reduced: compared by value.
        y1_rows = Matrix.from_integer_form(*rows[1][1])
        assert y1_rows == Matrix.vstack([y1.block(0, 0, n), Matrix.zeros(2 * n, n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_procedure_transforms_no_all_zero_z_pair(monkeypatch, n):
    # An all-zero Z pair, with no caller blocks or zero caller Z blocks, is
    # exactly singular and counts as a failed draw with no _transformed_z
    # call: the calls are the accepted draw and the rejected random draws.
    calls = spy(monkeypatch, "_transformed_z", construct)
    rejected = 0
    for seed in range(40):
        rng = random.Random(f"zero-z/{n}/{seed}")
        q = rand_quad(rng, n)
        zero_z = FreeBlocks(n, rand_blocks(rng, n).y1, Matrix.zeros(3 * n, n), Matrix.zeros(3 * n, n))
        for blocks in (None, zero_z):
            case = rng.choice(ALL_CASES)
            calls.clear()
            v = random_vector_for(CASE_PATTERNS[case], rng)
            result = procedure_linearize(q, v, blocks=blocks, rng=rng, case=case)
            assert result.draws_used >= 1
            assert len(calls) == 1 + (result.draws_used - 1)
            rejected += result.draws_used - 1
    # Some random draws are rejected, so the redraw path is covered.
    assert rejected or n > 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_procedure_command_takes_det_m_once(capsys, tmp_path, bareiss_calls, n):
    # det M is read once off its case, by ansatz_transform, with no
    # elimination, and the command prints the cached value; the zero Z blocks
    # run no elimination, so the one draw's det Z is the only Bareiss run.
    q = tmp_path / "q.json"
    q.write_text(serialize_problem(rand_quad(random.Random(f"det-m/{n}"), n)), encoding="utf-8")
    bareiss_calls.clear()
    assert main(["procedure", "-q", str(q), "-v", "1,2,3", "--alpha", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "det M = " in out and "draws used = 1" in out
    assert [rows for rows, _ in bareiss_calls] == [2 * n]
