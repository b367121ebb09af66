import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pencilspace import (
    FreeBlocks,
    Matrix,
    QuadPoly2P,
    QuadSystem2P,
    delta_operators,
    kron,
    linearize_system,
    singularity_check,
    spectrum_pencil,
    spectrum_quadratic,
    standard_blocks,
    standard_linearization,
    verify_eigenpair,
    verify_spectral_equality,
)
from pencilspace.errors import HypothesisViolatedError, NonGenericSystemError
from pencilspace.matrices import structural_rank
from pencilspace.polymatrix import PolyMatrix, exact_det_poly
from pencilspace.space import lower_z_block
from pencilspace.bipoly import BiPoly, UniPoly
from pencilspace import qep
from pencilspace.pencil import Pencil2P
from pencilspace.qep import (
    LinearSystem2P,
    ResidualCheck,
    _ExactStage,
    _exact_stage,
    _float_stage,
    _mu_from_subresultant,
    _scaled_stage,
    delta0_singularity,
)
from pencilspace.resultants import first_subresultant
from pencilspace.scalars import GaussianRational
from pencilspace.serialization import parse_system

from conftest import plant_eigenvector, rand_gr, rand_matrix, rand_quad, rand_sparse_matrix

CIRCLE = QuadPoly2P.scalar(a20=1, a02=1, a00=-1)
LINE = QuadPoly2P.scalar(a10=1, a01=-1)
CIRCLE_LINE = QuadSystem2P(CIRCLE, LINE)
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# det Q2 = lam - det Q1, so s1 = 0, and over lam = 0 lie two common zeros,
# mu = -1 and mu = 1; x = lam + mu separates them.
VANISHING_S1 = QuadSystem2P(
    QuadPoly2P.scalar(a02=1, a00=-1), QuadPoly2P.scalar(a10=1, a02=-1, a00=1)
)

# Bilinear system with the exact rational eigenpair (lam, mu) = (1, 3):
# q1 = (lam - 1)(mu - 2), q2 = (lam + 1)(mu - 3).
RATIONAL_EIG = QuadSystem2P(
    QuadPoly2P.scalar(a11=1, a10=-2, a01=-1, a00=2),
    QuadPoly2P.scalar(a11=1, a10=-3, a01=1, a00=-3),
)


def admissible_scalar_system(rng):
    """Random scalar system that admits the resultant route."""
    while True:
        q1 = rand_quad(rng, 1, complex_prob=0.0)
        q2 = rand_quad(rng, 1, complex_prob=0.0)
        f = q1.as_polymatrix()[0, 0]
        g = q2.as_polymatrix()[0, 0]
        if f.degree_in("mu") < 1 or g.degree_in("mu") < 1:
            continue
        try:
            report = spectrum_quadratic(QuadSystem2P(q1, q2), tol=1e-9)
        except NonGenericSystemError:
            continue
        return QuadSystem2P(q1, q2), report


def test_linearize_system_defaults_to_standard(rng):
    lin = linearize_system(CIRCLE_LINE)
    assert lin.l1 == standard_linearization(CIRCLE)
    assert lin.l2 == standard_linearization(LINE)
    assert lin.cert1.verified and lin.cert2.verified


def test_linearize_system_certifies_both(rng):
    system = QuadSystem2P(rand_quad(rng, 1), rand_quad(rng, 2))
    lin = linearize_system(system, alpha1=2, alpha2=Fraction(1, 3))
    assert lin.cert1.kind == lin.cert2.kind == "unimodular-pair"
    assert lin.alpha1 == GaussianRational(2)


def test_linearize_system_eliminates_each_z_block_once(rng, bareiss_calls, monkeypatch):
    monkeypatch.setattr(Matrix, "inverse", None)
    system = QuadSystem2P(rand_quad(rng, 1), rand_quad(rng, 2))
    bareiss_calls.clear()
    lin = linearize_system(system, alpha1=2, alpha2=Fraction(1, 3))
    assert lin.cert1.verified and lin.cert2.verified
    assert [rows for rows, _ in bareiss_calls] == [2, 4]


def test_linearize_system_rejects_singular_z(rng):
    q2 = rand_quad(rng, 2)
    bad = FreeBlocks(
        2,
        Matrix.zeros(6, 2),
        Matrix.vstack([q2.a10, Matrix.zeros(2, 2), Matrix.zeros(2, 2)]),
        Matrix.vstack([q2.a01, Matrix.zeros(2, 2), Matrix.zeros(2, 2)]),
    )
    with pytest.raises(HypothesisViolatedError, match="component 2"):
        linearize_system(QuadSystem2P(rand_quad(rng, 1), q2), blocks2=bad)


def test_linearize_system_rejects_bad_y1(rng):
    q1 = rand_quad(rng, 1)
    blocks = standard_blocks(q1)
    bad = FreeBlocks(
        1,
        Matrix.column([0, 1, 0]),
        blocks.z1,
        blocks.z2,
    )
    with pytest.raises(HypothesisViolatedError, match="component 1"):
        linearize_system(QuadSystem2P(q1, rand_quad(rng, 1)), blocks1=bad)


def test_delta_sizes(rng):
    system = QuadSystem2P(rand_quad(rng, 1), rand_quad(rng, 2))
    delta = delta_operators(linearize_system(system))
    size = 3 * 1 * 3 * 2
    for op in (delta.delta0, delta.delta1, delta.delta2):
        assert op.shape == (size, size)


def test_delta_bilinearity_identity():
    # With C1 = B1 the first operator collapses to B1 kron (C2 - B2).
    lin = linearize_system(CIRCLE_LINE)
    forced = LinearSystem2P(
        type(lin.l1)(lin.l1.m, lin.l1.lam_coeff, lin.l1.lam_coeff, lin.l1.const),
        lin.l2,
        lin.alpha1,
        lin.alpha2,
        lin.cert1,
        lin.cert2,
    )
    delta = delta_operators(forced)
    expected = kron(lin.l1.lam_coeff, lin.l2.mu_coeff - lin.l2.lam_coeff)
    assert delta.delta0 == expected


def test_delta_linearity_random(rng):
    lin = linearize_system(QuadSystem2P(rand_quad(rng, 1), rand_quad(rng, 1)))
    scaled = LinearSystem2P(
        lin.l1.scale(3), lin.l2, lin.alpha1, lin.alpha2, lin.cert1, lin.cert2
    )
    d1 = delta_operators(lin)
    d2 = delta_operators(scaled)
    assert d2.delta0 == d1.delta0.scale(3)
    assert d2.delta1 == d1.delta1.scale(3)


def test_delta0_singular_for_constructed_class(rng):
    for _ in range(6):
        n1, n2 = rng.choice(((1, 1), (1, 2), (2, 2)))
        system = QuadSystem2P(rand_quad(rng, n1), rand_quad(rng, n2))
        report = singularity_check(delta_operators(linearize_system(system)).delta0)
        assert report.singular
        assert report.det0 == GaussianRational(0)


def test_delta0_at_n3_is_structurally_singular(rng, bareiss_calls):
    # Random admissible blocks (Y1 = [Y11; 0; 0]) fill Delta0 far beyond the
    # standard blocks, yet its 36 rows that are lower in both factors live
    # in 9 columns: structural rank 54 of 81, decided with no elimination.
    def blocks(n):
        y1 = Matrix.vstack([rand_matrix(rng, n, n), Matrix.zeros(2 * n, n)])
        return FreeBlocks(n, y1, rand_matrix(rng, 3 * n, n), rand_matrix(rng, 3 * n, n))

    system = QuadSystem2P(rand_quad(rng, 3), rand_quad(rng, 3))
    delta0 = delta_operators(linearize_system(system, 2, -1, blocks(3), blocks(3))).delta0
    pattern = [[j for j, x in enumerate(row) if x != (0, 0)] for row in delta0.integer_form()[1]]
    assert delta0.shape == (81, 81) and sum(map(len, pattern)) > 1500
    assert structural_rank(pattern, 81) == 54
    bareiss_calls.clear()
    report = singularity_check(delta0)
    assert report.det0 == GaussianRational(0) and report.singular
    assert bareiss_calls == []


def test_identity_delta0_nonsingular():
    eye = Matrix.identity(9)
    report = singularity_check(eye)
    assert not report.singular
    assert report.det0 == GaussianRational(1)


def test_spectrum_circle_line():
    report = spectrum_quadratic(CIRCLE_LINE, tol=1e-9)
    assert report.bezout_bound == 4
    assert len(report.points) == 2
    r = 1 / math.sqrt(2)
    (p_minus, p_plus) = report.points
    assert abs(p_minus.lam - (-r)) < 1e-8 and abs(p_minus.mu - (-r)) < 1e-8
    assert abs(p_plus.lam - r) < 1e-8 and abs(p_plus.mu - r) < 1e-8


def test_spectrum_identical_components_is_non_generic():
    with pytest.raises(NonGenericSystemError):
        spectrum_quadratic(QuadSystem2P(CIRCLE, CIRCLE))


def test_spectrum_zero_determinant_is_non_generic():
    zero_q = QuadPoly2P(1, *(Matrix.zeros(1, 1) for _ in range(6)))
    with pytest.raises(NonGenericSystemError):
        spectrum_quadratic(QuadSystem2P(zero_q, LINE))


@pytest.mark.parametrize(
    "q2",
    [QuadPoly2P.scalar(a20=1, a11=1), QuadPoly2P.scalar(a11=1, a10=1)],
    ids=["lam(lam+mu)", "lam(mu+1)"],
)
def test_spectrum_factor_in_lam_alone_is_non_generic(q2):
    # lam (mu - 1) shares lam with q2: every (0, mu) is a common zero,
    # although the resultant in mu does not vanish.
    q1 = QuadPoly2P.scalar(a11=1, a10=-1)
    with pytest.raises(NonGenericSystemError, match="share the factor lam, free of mu"):
        spectrum_quadratic(QuadSystem2P(q1, q2))


def test_spectrum_of_determinants_free_of_mu():
    # lam^2 - 1 against lam - 3: coprime, so no common zero at all; against
    # lam - 1: the whole line lam = 1.
    q1 = QuadPoly2P.scalar(a20=1, a00=-1)
    report = spectrum_quadratic(QuadSystem2P(q1, QuadPoly2P.scalar(a10=1, a00=-3)))
    assert report.points == () and report.bezout_bound == 4
    with pytest.raises(NonGenericSystemError, match=r"share the factor -1 \+ lam, free of mu"):
        spectrum_quadratic(QuadSystem2P(q1, QuadPoly2P.scalar(a10=1, a00=-1)))


def test_spectrum_with_shared_lambda_values():
    # Circle against mu^2 = lam: the intersections come in (+mu, -mu) pairs
    # sharing lam, so the resultant has double roots; the square-free
    # reduction keeps the root iteration on simple roots.
    parabola = QuadPoly2P.scalar(a02=1, a10=-1)
    system = QuadSystem2P(CIRCLE, parabola)
    report = spectrum_quadratic(system, tol=1e-9)
    assert len(report.points) == 4
    golden = (math.sqrt(5) - 1) / 2
    lam_values = sorted({round(p.lam.real, 6) for p in report.points})
    assert lam_values == [round(-golden - 1, 6), round(golden, 6)]
    for p in report.points:
        if p.lam.real > 0:
            assert abs(abs(p.mu.real) - math.sqrt(golden)) < 1e-8
        else:
            assert abs(abs(p.mu.imag) - math.sqrt(golden + 1)) < 1e-8


def durand_kerner_calls(monkeypatch):
    """Spy on every Durand-Kerner run: the degree of each, in call order."""
    from pencilspace import roots

    degrees = []
    original = roots.durand_kerner

    def spy(coeffs, **kwargs):
        degrees.append(len(coeffs) - 1)
        return original(coeffs, **kwargs)

    monkeypatch.setattr(roots, "durand_kerner", spy)
    return degrees


def test_generic_2x2_spectrum_pairs_mu_from_the_first_subresultant(monkeypatch):
    rng = random.Random(5)
    system = QuadSystem2P(rand_quad(rng, 2), rand_quad(rng, 2))
    dets = (system.q1.det_poly, system.q2.det_poly)
    assert _exact_stage(*dets).t == 0
    calls = durand_kerner_calls(monkeypatch)
    paired = spectrum_quadratic(system)
    # One root iteration, on the degree-16 square-free resultant.
    assert calls == [16]
    # With the coprimality proof failing at t = 0 alone, lam is sheared to
    # x = lam + mu: again one root iteration, and the same points.
    original = UniPoly.is_coprime
    proofs = []

    def fails_first(self, other):
        proofs.append(other)
        return len(proofs) > 1 and original(self, other)

    monkeypatch.setattr(UniPoly, "is_coprime", fails_first)
    calls.clear()
    sheared = spectrum_quadratic(system)
    assert calls == [16] and len(proofs) == 2
    proofs.clear()
    assert _exact_stage(*dets).t == 1
    assert len(paired.points) == len(sheared.points) == 16
    for p, q in zip(paired.points, sheared.points):
        assert abs(p.lam - q.lam) <= 1e-9 * max(1.0, abs(p.lam))
        assert abs(p.mu - q.mu) <= 1e-9 * max(1.0, abs(p.mu))


def test_vanishing_s1_shears_lam(monkeypatch):
    f, g = (q.as_polymatrix()[0, 0] for q in (VANISHING_S1.q1, VANISHING_S1.q2))
    assert first_subresultant(f, g, "mu")[1].is_zero()
    assert _exact_stage(f, g).t == 1
    calls = durand_kerner_calls(monkeypatch)
    report = spectrum_quadratic(VANISHING_S1)
    assert calls == [2]
    assert len(report.points) == 2
    for point, mu in zip(sorted(report.points, key=lambda p: p.mu.real), (-1, 1)):
        assert abs(point.lam) < 1e-12 and abs(point.mu - mu) < 1e-12


def stage_system(name):
    """A corpus system by file stem, or the vanishing-s1 system."""
    if name == "vanishing_s1":
        return VANISHING_S1
    return parse_system((CORPUS / f"{name}.json").read_text(encoding="utf-8"))


def call_counts(monkeypatch, targets):
    """Count the calls of each (owner, name) of targets, which still run."""
    counts = {}
    for owner, name in targets:
        original = getattr(owner, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        counts[name] = 0
        monkeypatch.setattr(owner, name, spy)
    return counts


FLOAT_CODE = ("unipoly_roots", "newton_steps", "_complex_terms")
EXACT_CODE = ("first_subresultant", "square_free_part", "is_coprime")


@pytest.mark.parametrize(
    "name", ["sys_circle_line", "sys_complex", "sys_rational_eig", "vanishing_s1"]
)
def test_exact_stage_runs_no_float_code_and_float_stage_no_exact_code(monkeypatch, name):
    system = stage_system(name)
    f, g = system.q1.det_poly, system.q2.det_poly
    counts = call_counts(
        monkeypatch,
        [
            (qep, "unipoly_roots"),
            (qep, "newton_steps"),
            (BiPoly, "_complex_terms"),
            (qep, "first_subresultant"),
            (UniPoly, "square_free_part"),
            (UniPoly, "is_coprime"),
        ],
    )
    stage = _exact_stage(f, g)
    assert [counts[k] for k in FLOAT_CODE] == [0, 0, 0]
    assert all(counts[k] for k in EXACT_CODE)
    counts.update(dict.fromkeys(counts, 0))
    points = _float_stage(stage, f, g, qep.DEFAULT_SPECTRUM_TOL)
    assert [counts[k] for k in EXACT_CODE] == [0, 0, 0]
    assert counts["unipoly_roots"] == 1 and counts["_complex_terms"]
    assert points and points == spectrum_quadratic(system).points


@pytest.mark.parametrize(
    "name, t, square_free",
    [
        ("sys_circle_line", 0, (1, ((-1, 0), (0, 0), (2, 0)))),
        (
            "sys_complex",
            0,
            (200, ((1128, -360), (-791, 210), (-92, 705), (230, -60), (-250, -50))),
        ),
        # (lam - 1)(mu - 2) against (lam + 1)(mu - 3): s1 = lam + 1 vanishes
        # at the root lam = -1 of R, so t = 0 fails.
        ("sys_rational_eig", 1, (1, ((-8, 0), (10, 0), (-2, 0)))),
    ],
)
def test_exact_stage_of_the_corpus_systems(name, t, square_free):
    system = stage_system(name)
    stage = _exact_stage(system.q1.det_poly, system.q2.det_poly)
    assert (stage.t, stage.square_free.integer_form()) == (t, square_free)


@pytest.mark.parametrize(
    "q1, q2",
    [
        (QuadPoly2P.scalar(a20=1, a00=-1), QuadPoly2P.scalar(a10=1, a00=-3)),
        (QuadPoly2P.scalar(a01=1), QuadPoly2P.scalar(a01=1, a00=-1)),
    ],
    ids=["free-of-mu", "constant-resultant"],
)
def test_exact_stage_without_finite_common_zeros(q1, q2):
    # lam^2 - 1 against lam - 3 are both free of mu; mu against mu - 1 have
    # the resultant -1.
    assert _exact_stage(q1.det_poly, q2.det_poly) == _ExactStage(0, None, None, None)
    assert spectrum_quadratic(QuadSystem2P(q1, q2)).points == ()


def assert_points(report, expected, tol=1e-12):
    """report holds exactly the points of expected, a list of (lam, mu)."""
    assert len(report.points) == len(expected)
    for lam, mu in expected:
        assert any(abs(p.lam - lam) < tol and abs(p.mu - mu) < tol for p in report.points)


def test_determinants_linear_in_mu():
    # (lam - 1)(mu - 2) against (lam + 1)(mu - 3): S1 is det Q2 itself,
    # whose s1 = lam + 1 vanishes at the root lam = -1, so lam is sheared.
    assert_points(spectrum_quadratic(RATIONAL_EIG), [(1, 3), (-1, 2)])
    # mu - lam^2 against mu: s1 = 1, and the one zero (0, 0) is a tangency.
    q1 = QuadPoly2P.scalar(a01=1, a20=-1)
    report = spectrum_quadratic(QuadSystem2P(q1, QuadPoly2P.scalar(a01=1)))
    assert_points(report, [(0, 0)])


def test_determinant_free_of_mu_against_a_circle():
    # 4 lam^2 - 1 has no S1 with the circle at t = 0; at t = 1 it has.
    q1 = QuadPoly2P.scalar(a20=4, a00=-1)
    report = spectrum_quadratic(QuadSystem2P(q1, CIRCLE))
    r = math.sqrt(3) / 2
    assert_points(report, [(0.5, r), (0.5, -r), (-0.5, r), (-0.5, -r)])


def test_zero_singular_on_both_curves_is_non_generic():
    # mu^2 - lam^2 and mu^2 - 4 lam^2 are line pairs through (0, 0), which
    # every line x = lam + t mu meets with multiplicity 2 on both curves.
    q1 = QuadPoly2P.scalar(a02=1, a20=-1)
    q2 = QuadPoly2P.scalar(a02=1, a20=-4)
    with pytest.raises(NonGenericSystemError, match="singular on both determinant curves"):
        spectrum_quadratic(QuadSystem2P(q1, q2))


def test_proved_s1_reading_zero_in_floats_raises_overflow(monkeypatch):
    monkeypatch.setattr(qep, "_mu_from_subresultant", lambda s1, s0: lambda x: None)
    with pytest.raises(OverflowError, match="reads 0 in floats"):
        spectrum_quadratic(CIRCLE_LINE)


@pytest.mark.parametrize("complex_prob", [0.0, 0.25], ids=["real", "complex"])
@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 2)])
def test_one_root_iteration_per_spectrum(monkeypatch, n1, n2, complex_prob):
    rng = random.Random(f"one-iteration/{n1}/{n2}/{complex_prob}")
    system = QuadSystem2P(rand_quad(rng, n1, complex_prob), rand_quad(rng, n2, complex_prob))
    calls = durand_kerner_calls(monkeypatch)
    spectrum_quadratic(system)
    assert len(calls) == 1
    spectrum_pencil(linearize_system(system))
    assert len(calls) == 2


def test_mu_from_subresultant_scales_and_reports_a_zero_s1():
    mu_at = _mu_from_subresultant(UniPoly([2, 1], var="lam"), UniPoly([3], var="lam"))
    assert mu_at(1.0) == -1.0
    # Beside s0 = 2^2000, s1 = 1 scales to 2^-2000, which reads 0.
    huge = _mu_from_subresultant(UniPoly([1], var="lam"), UniPoly([2**2000], var="lam"))
    assert huge(0.5) is None


def test_spectrum_respects_bezout_bound(rng):
    done = 0
    while done < 8:
        system, report = admissible_scalar_system(rng)
        assert len(report.points) <= 4
        done += 1


def test_spectrum_pencil_zero_determinant_is_non_generic():
    lin = linearize_system(CIRCLE_LINE)
    zero = Matrix.zeros(3, 3)
    degenerate = LinearSystem2P(
        lin.l1,
        type(lin.l2)(3, zero, zero, zero),
        lin.alpha1,
        lin.alpha2,
        lin.cert1,
        lin.cert2,
    )
    with pytest.raises(NonGenericSystemError):
        spectrum_pencil(degenerate)


def test_spectrum_pencil_matches_quadratic(rng):
    lin = linearize_system(CIRCLE_LINE)
    report = spectrum_pencil(lin, tol=1e-9)
    quad = spectrum_quadratic(CIRCLE_LINE, tol=1e-9)
    assert report.bezout_bound == 9
    assert len(report.points) == len(quad.points)
    for a, b in zip(report.points, quad.points):
        assert abs(a.lam - b.lam) < 1e-8 and abs(a.mu - b.mu) < 1e-8


def certifiable_blocks(rng, n, complex_prob):
    """Random blocks with Y21 = Y31 = 0 and a nonsingular lower Z block."""
    while True:
        y1 = Matrix.vstack([rand_matrix(rng, n, n, complex_prob), Matrix.zeros(2 * n, n)])
        z1, z2 = (rand_matrix(rng, 3 * n, n, complex_prob) for _ in range(2))
        if lower_z_block(z1, z2).det():
            return FreeBlocks(n, y1, z1, z2)


@pytest.mark.parametrize("blocks", ["standard", "random"])
@pytest.mark.parametrize(
    "alpha", [1, Fraction(-3, 2), GaussianRational(2, -1)], ids=["1", "-3/2", "2-i"]
)
@pytest.mark.parametrize("complex_prob", [0.0, 0.25], ids=["real", "complex"])
@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_pencil_determinant_read_off_the_certificate(n1, n2, complex_prob, alpha, blocks):
    # F L E = diag(Q, I_2n) gives det L = det Q / (det E det F): the scaled
    # det Q is the expanded det L, so the spectrum read off the certificates
    # is the one of the expanded determinants, float for float.
    rng = random.Random(f"det-route/{n1}/{n2}/{complex_prob}/{alpha}/{blocks}")
    system = QuadSystem2P(rand_quad(rng, n1, complex_prob), rand_quad(rng, n2, complex_prob))
    chosen = {}
    if blocks == "random":
        chosen = {
            "blocks1": certifiable_blocks(rng, n1, complex_prob),
            "blocks2": certifiable_blocks(rng, n2, complex_prob),
        }
    lin = linearize_system(system, alpha, alpha, **chosen)
    expanded = []
    for pencil, cert in ((lin.l1, lin.cert1), (lin.l2, lin.cert2)):
        det_l = exact_det_poly(pencil.as_polymatrix())
        assert cert.quadratic.det_poly * (1 / (cert.det_e * cert.det_f)) == det_l
        expanded.append(det_l)
    bound = lin.l1.m * lin.l2.m
    assert spectrum_pencil(lin) == qep._common_zeros(*expanded, bound, qep.DEFAULT_SPECTRUM_TOL)


# Sizes (n1, n2), each real and complex, with standard and seeded blocks;
# the ansatz scalar alpha cycles through the five values.
_SHARED_STAGE_ALPHAS = (1, 2, -1, Fraction(1, 2), Fraction(-3, 2))
_SHARED_STAGE_CASES = [
    (n1, n2, complex_prob, blocks)
    for n1, n2 in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3))
    for complex_prob in (0.0, 0.25)
    for blocks in ("standard", "seeded")
]


@pytest.mark.parametrize(
    "k, n1, n2, complex_prob, blocks",
    [(k, *case) for k, case in enumerate(_SHARED_STAGE_CASES)],
    ids=[f"{n1}x{n2}-{c}-{b}" for n1, n2, c, b in _SHARED_STAGE_CASES],
)
def test_certified_sigma_l_is_the_pencil_spectrum_point_for_point(
    monkeypatch, k, n1, n2, complex_prob, blocks
):
    # sigma_L reuses sigma_Q's exact stage, scaled by the certificates'
    # constants: the same points, residuals and bound as spectrum_pencil,
    # which proves its own stage.
    rng = random.Random(f"shared-stage/{n1}/{n2}/{complex_prob}/{blocks}")
    system = QuadSystem2P(rand_quad(rng, n1, complex_prob), rand_quad(rng, n2, complex_prob))
    chosen = {}
    if blocks == "seeded":
        chosen = {
            "blocks1": certifiable_blocks(rng, n1, complex_prob),
            "blocks2": certifiable_blocks(rng, n2, complex_prob),
        }
    alpha = _SHARED_STAGE_ALPHAS[k % len(_SHARED_STAGE_ALPHAS)]
    lin = linearize_system(system, alpha, alpha, **chosen)
    counts = call_counts(monkeypatch, [(qep, "_exact_stage")])
    report = verify_spectral_equality(system, lin)
    assert counts["_exact_stage"] == 1
    assert report.sigma_q == spectrum_quadratic(system)
    assert report.sigma_l == spectrum_pencil(lin)
    assert report.equal


# 2mu + 1 against -lam^2: g is free of mu, so t = 0 has no S1; at t = 1 the
# resultant is -(2x + 1)^2, whose square-free part the PRS takes (a
# resultant with a repeated factor has no square-free proof mod p).
PRS_ROUTE = QuadSystem2P(QuadPoly2P.scalar(a01=2, a00=1), QuadPoly2P.scalar(a20=-1))


@pytest.mark.parametrize(
    "system, t, degrees",
    [
        # lam*mu - 1 against mu - lam: S1 is g itself.
        (QuadSystem2P(QuadPoly2P.scalar(a11=1, a00=-1), LINE), 0, (1, 1)),
        (QuadSystem2P(LINE, CIRCLE), 0, (1, 2)),
        (VANISHING_S1, 1, (2, 2)),
        (PRS_ROUTE, 1, (1, 2)),
        (QuadSystem2P(rand_quad(random.Random(5), 2), rand_quad(random.Random(6), 2)), 0, (4, 3)),
    ],
    ids=["m=n=1", "m=1<n", "vanishing-s1", "prs-route", "generic"],
)
@pytest.mark.parametrize(
    "c1, c2",
    [(2, Fraction(-3, 2)), (GaussianRational(2, -1), Fraction(1, 3))],
    ids=["2,-3/2", "2-i,1/3"],
)
def test_scaled_stage_is_the_exact_stage_of_the_scaled_determinants(system, t, degrees, c1, c2):
    f, g = system.q1.det_poly, system.q2.det_poly
    stage = _exact_stage(f, g)
    assert stage.t == t
    assert tuple(qep._shear(p, t).degree_in("mu") for p in (f, g)) == degrees
    if system is PRS_ROUTE:
        resultant = first_subresultant(qep._shear(f, t), qep._shear(g, t), "mu")[0]
        assert resultant.degree() == 2 and stage.square_free.degree() == 1
    c1, c2 = GaussianRational.coerce(c1), GaussianRational.coerce(c2)
    assert _scaled_stage(stage, f, g, c1, c2) == _exact_stage(f * c1, g * c2)


@pytest.mark.parametrize(
    "name, passes", [("sys_circle_line", 1), ("sys_complex", 1), ("sys_rational_eig", 2)]
)
def test_certified_compare_runs_one_exact_stage(monkeypatch, capsys, name, passes):
    from pencilspace.cli import main

    counts = call_counts(monkeypatch, [(qep, "first_subresultant"), (qep, "unipoly_roots")])
    assert main(["compare", "-s", str(CORPUS / f"{name}.json")]) == 0
    assert capsys.readouterr().out.endswith("spectra agree\n")
    # One first_subresultant per shear tried (t = 0, and t = 1 for sys_rational_eig)
    # for both spectra; the root iteration still runs once per spectrum.
    assert counts == {"first_subresultant": passes, "unipoly_roots": 2}


def test_certificates_for_other_quadratics_take_their_own_exact_stage(monkeypatch):
    # lin linearizes (CIRCLE, RATIONAL_EIG.q2): its first certificate is for
    # the system's own quadratic, its second for another, so sigma_L is the
    # spectrum of lin's own determinants, proved by a second exact stage.
    system = CIRCLE_LINE
    other = QuadSystem2P(CIRCLE, RATIONAL_EIG.q2)
    lin = linearize_system(other)
    counts = call_counts(monkeypatch, [(qep, "_exact_stage"), (qep, "first_subresultant")])
    report = verify_spectral_equality(system, lin)
    # sigma_Q's stage takes t = 0, sigma_L's t = 1: three first_subresultant calls.
    assert counts == {"_exact_stage": 2, "first_subresultant": 3}
    assert report.sigma_q == spectrum_quadratic(system)
    assert report.sigma_l == spectrum_pencil(lin)
    expected = spectrum_quadratic(other).points
    assert len(report.sigma_l.points) == len(expected) == 3
    for p, q in zip(report.sigma_l.points, expected):
        assert abs(p.lam - q.lam) < 1e-8 and abs(p.mu - q.mu) < 1e-8
    assert not report.equal


def test_spectral_equality_certified(rng):
    report = verify_spectral_equality(CIRCLE_LINE, linearize_system(CIRCLE_LINE))
    assert report.equal
    assert not report.unmatched_q and not report.unmatched_l


@pytest.mark.parametrize("complex_prob", [0.0, 0.25])
def test_spectral_equality_at_n2(complex_prob):
    rng = random.Random(5)
    system = QuadSystem2P(rand_quad(rng, 2, complex_prob), rand_quad(rng, 2, complex_prob))
    report = verify_spectral_equality(system, linearize_system(system))
    assert report.equal
    assert report.sigma_q.bezout_bound == 16
    assert len(report.sigma_q.points) == len(report.sigma_l.points) == 16


def test_spectrum_at_n1_2_n2_3_reaches_bezout_bound():
    rng = random.Random(5)
    system = QuadSystem2P(rand_quad(rng, 2), rand_quad(rng, 3))
    report = spectrum_quadratic(system)
    assert report.bezout_bound == 24
    assert len(report.points) == 24


def test_spectral_equality_detects_constant_replacement():
    lin = linearize_system(CIRCLE_LINE)
    constant = type(lin.l2)(
        lin.l2.m,
        Matrix.zeros(3, 3),
        Matrix.zeros(3, 3),
        Matrix.identity(3),
    )
    broken = LinearSystem2P(
        lin.l1, constant, lin.alpha1, lin.alpha2, lin.cert1, lin.cert2
    )
    report = verify_spectral_equality(CIRCLE_LINE, broken)
    assert not report.equal
    assert len(report.unmatched_q) == 2
    assert not report.sigma_l.points


def test_spectral_equality_trivially_empty():
    # lam*mu = -1 against lam*mu = -2 share no zeros at all; both spectra
    # are empty and the equality report agrees on empty.
    system = QuadSystem2P(
        QuadPoly2P.scalar(a11=1, a00=1), QuadPoly2P.scalar(a11=1, a00=2)
    )
    lin = linearize_system(system)
    report = verify_spectral_equality(system, lin)
    assert report.equal
    assert not report.sigma_q.points and not report.sigma_l.points


def test_verify_eigenpair_exact_zero_residuals():
    lin = linearize_system(RATIONAL_EIG)
    x = Matrix.column([1])
    report = verify_eigenpair(RATIONAL_EIG, lin, 1, 3, x, x)
    assert report.passed
    for check in report.checks:
        assert check.exact_zero, check.name
        assert check.norm == 0.0


def test_verify_eigenpair_homogeneous_in_x():
    lin = linearize_system(RATIONAL_EIG)
    x = Matrix.column([5])
    report = verify_eigenpair(RATIONAL_EIG, lin, 1, 3, x, x)
    assert report.passed
    assert all(c.exact_zero for c in report.checks)


def test_verify_eigenpair_rejects_non_eigenvalue():
    lin = linearize_system(RATIONAL_EIG)
    x = Matrix.column([1])
    report = verify_eigenpair(RATIONAL_EIG, lin, 2, 7, x, x)
    assert not report.passed
    assert not report.checks[0].passed  # Q1 residual fails


def test_verify_eigenpair_rejects_zero_vector():
    lin = linearize_system(RATIONAL_EIG)
    with pytest.raises(ValueError):
        verify_eigenpair(RATIONAL_EIG, lin, 1, 3, Matrix.column([0]), Matrix.column([1]))


def test_eigenvalue_forces_pencil_kernel_exactly(rng):
    # Whenever Q_i x_i = 0 exactly, the pencil annihilates Lambda kron x_i.
    lin = linearize_system(RATIONAL_EIG)
    x = Matrix.column([Fraction(2, 3)])
    report = verify_eigenpair(RATIONAL_EIG, lin, 1, 3, x, x)
    assert report.checks[2].exact_zero and report.checks[3].exact_zero


# -- the factored Kronecker operators, against explicit ones -----------------------


def _admissible_blocks(rng, n, complex_prob):
    y1 = Matrix.vstack([rand_matrix(rng, n, n, complex_prob), Matrix.zeros(2 * n, n)])
    return FreeBlocks(
        n, y1, rand_matrix(rng, 3 * n, n, complex_prob), rand_matrix(rng, 3 * n, n, complex_prob)
    )


def _coefficient_products(pencil: Pencil2P, w: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(A w, B w, C w) for the constant, lam and mu coefficients of pencil:
    as Matrix products, what verify_eigenpair forms on numerators."""
    return tuple(coeff @ w for coeff in (pencil.const, pencil.lam_coeff, pencil.mu_coeff))


def _explicit_checks(system, lin, delta, lam, mu, x1, x2, tol):
    """The eigenpair checks with every operator formed, delta holding
    Delta0, Delta1 and Delta2 as 9 n1 n2 x 9 n1 n2 matrices: the oracle of
    verify_eigenpair."""

    def check(name, operator, vector, expected=None):
        value = operator @ vector
        if expected is not None:
            value = value - expected
        exact = value.is_zero()
        norm = 0.0 if exact else value.max_abs()
        scale = (1.0 + operator.max_abs()) * max(1.0, vector.max_abs())
        return ResidualCheck(name, norm, exact, norm < tol * scale)

    w1 = Matrix.vstack([x1.scale(lam), x1.scale(mu), x1])
    w2 = Matrix.vstack([x2.scale(lam), x2.scale(mu), x2])
    z = kron(w1, w2)
    delta0_z = delta.delta0 @ z
    return (
        check("Q1(lam,mu) x1", system.q1.eval(lam, mu), x1),
        check("Q2(lam,mu) x2", system.q2.eval(lam, mu), x2),
        check("L1(lam,mu) w1", lin.l1.eval(lam, mu), w1),
        check("L2(lam,mu) w2", lin.l2.eval(lam, mu), w2),
        check("Delta1 z - lam Delta0 z", delta.delta1, z, delta0_z.scale(lam)),
        check("Delta2 z - mu Delta0 z", delta.delta2, z, delta0_z.scale(mu)),
    )


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("complex_prob", [0.0, 0.5], ids=["real", "complex"])
def test_factored_residuals_equal_explicit_operators(n1, n2, complex_prob):
    rng = random.Random(1000 * n1 + 10 * n2 + int(complex_prob * 2))
    lam, mu = rand_gr(rng, complex_prob), rand_gr(rng, complex_prob)
    q1, x1 = plant_eigenvector(rng, rand_quad(rng, n1, complex_prob), lam, mu)
    q2, x2 = plant_eigenvector(rng, rand_quad(rng, n2, complex_prob), lam, mu)
    system = QuadSystem2P(q1, q2)
    for lin in (
        linearize_system(system),
        linearize_system(
            system,
            2,
            GaussianRational(-1, 1),
            _admissible_blocks(rng, n1, complex_prob),
            _admissible_blocks(rng, n2, complex_prob),
        ),
    ):
        delta = delta_operators(lin)
        # The planted pair, then pairs off the spectrum or off the kernel.
        pairs = [
            (lam, mu, x1, x2),
            (lam + GaussianRational(1, 7), mu, x1, x2),
            (lam, mu - 2, x1, x2 + rand_matrix(rng, n2, 1, complex_prob)),
            (rand_gr(rng, complex_prob), rand_gr(rng, complex_prob), x1.scale(3), x2),
        ]
        for l, m, y1, y2 in pairs:
            if y2.is_zero():
                continue
            w1 = Matrix.vstack([y1.scale(l), y1.scale(m), y1])
            w2 = Matrix.vstack([y2.scale(l), y2.scale(m), y2])
            p1, p2 = _coefficient_products(lin.l1, w1), _coefficient_products(lin.l2, w2)
            for (a_w, b_w, c_w), pencil, w in ((p1, lin.l1, w1), (p2, lin.l2, w2)):
                assert b_w.scale(l) + c_w.scale(m) + a_w == pencil.eval(l, m) @ w
            z = kron(w1, w2)
            (a1, b1, c1), (a2, b2, c2) = p1, p2
            assert (
                kron(b1, c2) - kron(c1, b2),
                kron(c1, a2) - kron(a1, c2),
                kron(a1, b2) - kron(b1, a2),
            ) == (
                delta.delta0 @ z,
                delta.delta1 @ z,
                delta.delta2 @ z,
            )
            for tol in (0.0, 1e-9, 0.5, 50.0):
                report = verify_eigenpair(system, lin, l, m, y1, y2, tol)
                expected = _explicit_checks(system, lin, delta, l, m, y1, y2, tol)
                assert report.checks == expected
                assert report.passed == all(c.passed for c in expected)
        assert verify_eigenpair(system, lin, lam, mu, x1, x2).passed


def test_exact_eigenpair_runs_no_matrix_arithmetic(monkeypatch):
    # The residuals and their scales are read off numerator vectors: at
    # (2,3), with random admissible blocks and complex entries, neither an
    # exact eigenpair nor an inexact one (one changed x1 entry, a shifted
    # lam) takes a Matrix product, sum, Kronecker product or scaling, a
    # PolyMatrix evaluation, or a Delta operator; nor does an exact pair of
    # a real system linearized with the standard blocks.
    standard_rng = random.Random(7)
    s_lam, s_mu = rand_gr(standard_rng), rand_gr(standard_rng)
    s_q1, s_x1 = plant_eigenvector(standard_rng, rand_quad(standard_rng, 2), s_lam, s_mu)
    s_q2, s_x2 = plant_eigenvector(standard_rng, rand_quad(standard_rng, 3), s_lam, s_mu)
    standard = QuadSystem2P(s_q1, s_q2)
    standard_lin = linearize_system(standard)
    rng = random.Random(23)
    lam, mu = rand_gr(rng, 0.5), rand_gr(rng, 0.5)
    q1, x1 = plant_eigenvector(rng, rand_quad(rng, 2, 0.5), lam, mu)
    q2, x2 = plant_eigenvector(rng, rand_quad(rng, 3, 0.5), lam, mu)
    system = QuadSystem2P(q1, q2)
    blocks1, blocks2 = _admissible_blocks(rng, 2, 0.5), _admissible_blocks(rng, 3, 0.5)
    lin = linearize_system(system, 2, -1, blocks1, blocks2)
    changed = Matrix([[x1[0, 0] + GaussianRational(2, 3)], [x1[1, 0]]])
    inexact = (lam + GaussianRational(1, 5), mu, changed, x2)
    tol = 1e-3
    expected = _explicit_checks(system, lin, delta_operators(lin), *inexact, tol)
    assert not any(c.exact_zero for c in expected)

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} was called")

        return call

    for name in ("__matmul__", "__add__", "__sub__", "kron", "scale"):
        monkeypatch.setattr(Matrix, name, forbidden(f"Matrix.{name}"))
    monkeypatch.setattr(PolyMatrix, "eval", forbidden("PolyMatrix.eval"))
    for name in ("delta_operators", "delta0_operator"):
        monkeypatch.setattr(qep, name, forbidden(f"qep.{name}"))
    for args in ((system, lin, lam, mu, x1, x2), (standard, standard_lin, s_lam, s_mu, s_x1, s_x2)):
        report = verify_eigenpair(*args)
        assert report.passed and all(c.exact_zero for c in report.checks)
    assert verify_eigenpair(system, lin, *inexact, tol).checks == expected


def test_delta0_singularity_of_certified_members_reads_the_factors(rng, monkeypatch):
    # Every alpha*e1 member with admissible blocks has lam and mu
    # coefficients that vanish on their lower-left 2n x 2n blocks, so
    # Delta0 is never formed.
    lins = []
    for n1, n2 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        system = QuadSystem2P(rand_quad(rng, n1), rand_quad(rng, n2))
        blocks1, blocks2 = _admissible_blocks(rng, n1, 0.25), _admissible_blocks(rng, n2, 0.25)
        lins += [linearize_system(system), linearize_system(system, 3, -1, blocks1, blocks2)]
    expected = [singularity_check(delta_operators(lin).delta0) for lin in lins]

    def forbidden(*args):
        raise AssertionError("Delta0 was formed")

    monkeypatch.setattr(qep, "delta0_operator", forbidden)
    for lin, want in zip(lins, expected):
        assert delta0_singularity(lin) == want
        assert want.singular and want.det0 == GaussianRational(0)


def _zero_lower_left(m: Matrix) -> Matrix:
    """m with its lower-left 2n x 2n block set to zero, for size 3n."""
    n = m.rows // 3
    return Matrix(
        [[0 if i >= n and j < 2 * n else m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    )


def _has_zero_lower_left(pencil: Pencil2P) -> bool:
    n = pencil.m // 3
    return pencil.m % 3 == 0 and all(
        coeff[i, j] == 0
        for coeff in (pencil.lam_coeff, pencil.mu_coeff)
        for i in range(n, 3 * n)
        for j in range(2 * n)
    )


def test_delta0_singularity_matches_explicit_determinant(monkeypatch):
    # Random factor quadruples, not linearizations: Delta0 is formed exactly
    # when neither pencil's lam and mu coefficients vanish on their
    # lower-left 2n x 2n blocks, which every third trial plants in one of
    # them (det Delta0 = 0 read off the blocks).
    rng = random.Random(4242)
    formed = []
    original = qep.delta0_operator

    def counting(lin):
        formed.append(lin)
        return original(lin)

    monkeypatch.setattr(qep, "delta0_operator", counting)
    cert = linearize_system(CIRCLE_LINE).cert1
    fallback = read_off = cancelled = 0
    for trial in range(60):
        planted = trial % 3 == 0
        sizes = [rng.choice((1, 2, 3, 4, 6)) for _ in range(2)]
        if planted:
            sizes[trial % 2] = rng.choice((3, 6))
        m1, m2 = sizes
        density = rng.choice((0.2, 0.4, 0.7, 1.0))
        b1, c1 = (rand_sparse_matrix(rng, m1, m1, density) for _ in range(2))
        b2, c2 = (rand_sparse_matrix(rng, m2, m2, density) for _ in range(2))
        if trial % 10 == 1:
            c1, c2 = b1, b2  # Delta0 = 0 exactly, whatever the blocks
        if planted and trial % 2:
            b2, c2 = _zero_lower_left(b2), _zero_lower_left(c2)
        elif planted:
            b1, c1 = _zero_lower_left(b1), _zero_lower_left(c1)
        lin = LinearSystem2P(
            Pencil2P(m1, b1, c1, rand_sparse_matrix(rng, m1, m1, density)),
            Pencil2P(m2, b2, c2, rand_sparse_matrix(rng, m2, m2, density)),
            GaussianRational(1),
            GaussianRational(1),
            cert,
            cert,
        )
        explicit = kron(b1, c2) - kron(c1, b2)
        zero_blocks = _has_zero_lower_left(lin.l1) or _has_zero_lower_left(lin.l2)
        assert zero_blocks or not planted
        formed.clear()
        report = delta0_singularity(lin)
        assert report.det0 == explicit.det()
        assert report.singular == (explicit.det() == 0)
        assert len(formed) == (not zero_blocks)
        fallback += not zero_blocks
        read_off += zero_blocks
        cancelled += not zero_blocks and report.singular
    assert fallback >= 10 and read_off >= 10 and cancelled >= 1
