import random

import pytest

from pencilspace.bipoly import LAM, MU, BiPoly, UniPoly
from pencilspace.errors import DegreeError
from pencilspace.resultants import sylvester_matrix, sylvester_resultant
from pencilspace.roots import durand_kerner, unipoly_roots

LAM_P = BiPoly.lam()
MU_P = BiPoly.mu()
ONE = BiPoly.constant(1)

CIRCLE = MU_P**2 + LAM_P**2 - ONE
LINE = LAM_P - MU_P


def test_frozen_circle_line_resultant():
    # Hand 3x3 Sylvester determinant: res_mu(mu^2 + lam^2 - 1, lam - mu)
    # equals 2*lam^2 - 1.
    res = sylvester_resultant(CIRCLE, LINE, MU)
    assert res == UniPoly([-1, 0, 2], var=LAM)


def test_sylvester_matrix_layout():
    s = sylvester_matrix(CIRCLE, LINE, MU)
    assert s.shape == (3, 3)
    # Row of f coefficients (descending in mu), then two shifted rows of g.
    assert s[0, 0] == ONE
    assert s[0, 2] == LAM_P**2 - ONE
    assert s[1, 0] == -ONE
    assert s[1, 1] == LAM_P
    assert s[2, 1] == -ONE
    assert s[2, 2] == LAM_P


def test_linear_case():
    a = BiPoly.constant(5)
    b = BiPoly.constant(-3)
    f = MU_P - a
    g = MU_P - b
    res = sylvester_resultant(f, g, MU)
    assert res == UniPoly([8], var=LAM)  # a - b = 5 - (-3)


def test_common_factor_gives_zero():
    f = CIRCLE * (LAM_P + MU_P)
    res = sylvester_resultant(f, CIRCLE, MU)
    assert res.is_zero()
    assert sylvester_resultant(CIRCLE, CIRCLE, MU).is_zero()


def test_degenerate_degree_rejected():
    with pytest.raises(DegreeError):
        sylvester_resultant(LAM_P**2 - ONE, LAM_P + ONE, MU)  # both constant in mu
    with pytest.raises(DegreeError):
        sylvester_resultant(BiPoly.zero(), LINE, MU)
    with pytest.raises(DegreeError):
        sylvester_matrix(LINE, BiPoly.zero(), MU)


@pytest.mark.parametrize("g", [LINE, CIRCLE, MU_P**2 - ONE])
def test_degree_zero_input_gives_its_power(g):
    # Sylvester convention: with deg f = 0 the matrix is f * I of size
    # deg g, so Res(f, g) = f^deg(g), and Res(g, f) = f^deg(g) too.
    f = LAM_P**2 - ONE
    power = UniPoly.from_bipoly(f ** g.degree_in(MU), LAM)
    n = g.degree_in(MU)
    s = sylvester_matrix(f, g, MU)
    assert s.shape == (n, n)
    assert all(s[i, j] == (f if i == j else BiPoly.zero()) for i in range(n) for j in range(n))
    assert sylvester_resultant(f, g, MU) == power
    assert sylvester_resultant(g, f, MU) == power


def test_eliminate_lambda():
    res = sylvester_resultant(CIRCLE, LINE, LAM)
    assert res == UniPoly([-1, 0, 2], var=MU)


def test_shared_root_forces_resultant_zero():
    # f = (mu-2)(mu-3) + (lam-5)(mu^2+1) and g = (mu-2)(lam+1) share the
    # root mu = 2 exactly at lam = 5, so the resultant must vanish there.
    f = (MU_P - BiPoly.constant(2)) * (MU_P - BiPoly.constant(3)) + (
        LAM_P - BiPoly.constant(5)
    ) * (MU_P**2 + ONE)
    g = (MU_P - BiPoly.constant(2)) * (LAM_P + ONE)
    res = sylvester_resultant(f, g, MU)
    assert res.eval(5).is_zero()
    assert not res.eval(4).is_zero()


def test_resultant_roots_locate_common_zeros(rng):
    # The resultant vanishes at lam0 iff f(lam0, .) and g(lam0, .) share a
    # root; checked numerically through the residuals of recombined roots.
    for _ in range(6):
        coeffs = [rng.randint(-3, 3) for _ in range(6)]
        f = (
            coeffs[0] * MU_P**2
            + coeffs[1] * LAM_P * MU_P
            + coeffs[2] * LAM_P**2
            + MU_P
            + BiPoly.constant(coeffs[3])
        )
        g = coeffs[4] * MU_P + LAM_P + BiPoly.constant(coeffs[5])
        if f.degree_in(MU) < 1 or g.degree_in(MU) < 1:
            continue
        res = sylvester_resultant(f, g, MU)
        if res.is_zero() or res.degree() < 1:
            continue
        for lam0 in unipoly_roots(res, tol=1e-13):
            # each resultant root must admit a shared mu root (or be a
            # leading-coefficient artifact, which the residual filter below
            # would reject for these generic instances)
            f_mu = [c.eval_complex(lam0, 0) for c in f.coeffs_in(MU)]
            while f_mu and abs(f_mu[-1]) < 1e-9:
                f_mu.pop()
            assert len(f_mu) >= 2
            shared = min(
                abs(g.eval_complex(lam0, mu0))
                for mu0 in durand_kerner(f_mu, tol=1e-13)
            )
            assert shared < 1e-8


def _random_bipoly(rng, degree):
    """Random complex-rational f of total degree <= degree, with positive
    degree in both lam and mu."""
    from conftest import rand_gr, rand_nonzero_gr

    terms = {
        (i, j): rand_gr(rng, complex_prob=0.5)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        if rng.random() < 0.5
    }
    terms[(rng.randint(1, degree), 0)] = rand_nonzero_gr(rng)
    terms[(0, rng.randint(1, degree))] = rand_nonzero_gr(rng)
    return BiPoly(terms)


@pytest.mark.parametrize("eliminate", [LAM, MU])
@pytest.mark.parametrize("seed", range(8))
def test_resultant_matches_sympy_over_gaussian_rationals(seed, eliminate):
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    rng = random.Random(f"resultant/{seed}")
    f = _random_bipoly(rng, rng.randint(1, 4))
    g = _random_bipoly(rng, rng.randint(1, 4))

    def to_sympy(p):
        return sum(
            (
                (sympy.Rational(c.re.numerator, c.re.denominator)
                 + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
                * lam**i * mu**j
                for (i, j), c in p.terms()
            ),
            sympy.Integer(0),
        )

    gone, kept = (lam, mu) if eliminate == LAM else (mu, lam)
    m, n = f.degree_in(eliminate), g.degree_in(eliminate)
    f_sym, g_sym = (sympy.Poly(to_sympy(p), gone, kept, domain="QQ_I") for p in (f, g))
    # sympy's resultant carries the sign of res(g, f) when deg f < deg g
    # (it gives -a^3 + b for res(x - a, x^3 - b), not g(a) = a^3 - b), so
    # it is asked with the higher degree first and res(f, g) =
    # (-1)^(mn) res(g, f) applied.
    if m >= n:
        expected = sympy.resultant(f_sym, g_sym).as_expr()
    else:
        expected = (-1) ** (m * n) * sympy.resultant(g_sym, f_sym).as_expr()
    ours = sylvester_resultant(f, g, eliminate).to_bipoly()
    assert sympy.expand(to_sympy(ours) - expected) == 0
