import random
from fractions import Fraction

import pytest

from pencilspace.bipoly import LAM, MU, BiPoly, UniPoly
from pencilspace.errors import DegreeError
from pencilspace.resultants import sylvester_resultant
from pencilspace.roots import durand_kerner, unipoly_roots

from conftest import sylvester_matrix

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


# -- Res, s1 and s0 from one signed PRS at one point ------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pencilspace import resultants  # noqa: E402
from pencilspace.matrices import bareiss_det_int  # noqa: E402
from pencilspace.resultants import first_subresultant  # noqa: E402
from pencilspace.scalars import GaussianRational  # noqa: E402

fraction_st = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))
gr_st = st.builds(GaussianRational, fraction_st, st.one_of(st.just(0), fraction_st))


@st.composite
def mu_polys(draw, degree):
    """A complex-rational f with deg_mu f = degree and deg_lam f <= 2."""
    terms = {(i, j): draw(gr_st) for j in range(degree + 1) for i in range(3)}
    terms[(draw(st.integers(0, 2)), degree)] = draw(gr_st.filter(bool))
    return BiPoly(terms)


def to_sympy(sympy, p):
    lam, mu = sympy.symbols("lam mu")
    return sum(
        (
            (sympy.Rational(c.re.numerator, c.re.denominator)
             + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
            * lam**i * mu**j
            for (i, j), c in p.terms()
        ),
        sympy.Integer(0),
    )


def sympy_first_minors(sympy, f, g):
    """det of the two j = 1 minors of the Sylvester matrix in mu, built here
    from sympy's coefficient lists: without the first row of f's and of g's
    copies and the first column, and without the mu^0 column (s1) or the
    mu^1 column (s0)."""
    mu = sympy.Symbol("mu")
    f_desc = sympy.Poly(to_sympy(sympy, f), mu).all_coeffs()
    g_desc = sympy.Poly(to_sympy(sympy, g), mu).all_coeffs()
    m, n = len(f_desc) - 1, len(g_desc) - 1
    size = m + n
    rows = [[0] * s + f_desc + [0] * (size - s - m - 1) for s in range(1, n)]
    rows += [[0] * s + g_desc + [0] * (size - s - n - 1) for s in range(1, m)]
    cols1 = list(range(1, size - 1))
    cols0 = list(range(1, size - 2)) + [size - 1]
    dets = []
    for cols in (cols1, cols0):
        # Matrix.det over the domain QQ_I[lam] (sympy's expression-level
        # Bareiss takes seconds on 6 x 6).
        minor = sympy.Matrix([[row[c] for c in cols] for row in rows]).to_DM()
        dets.append(minor.domain.to_sympy(minor.det()))
    return dets


def assert_matches_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    res, s1, s0 = first_subresultant(f, g, MU)
    m, n = f.degree_in(MU), g.degree_in(MU)
    f_sym, g_sym = (sympy.Poly(to_sympy(sympy, p), mu, lam, domain="QQ_I") for p in (f, g))
    # sympy gives res(g, f) when deg f < deg g (see the test above).
    if m >= n:
        expected = sympy.resultant(f_sym, g_sym).as_expr()
    else:
        expected = (-1) ** (m * n) * sympy.resultant(g_sym, f_sym).as_expr()
    assert sympy.expand(to_sympy(sympy, res.to_bipoly()) - expected) == 0
    want1, want0 = sympy_first_minors(sympy, f, g)
    assert sympy.expand(to_sympy(sympy, s1.to_bipoly()) - want1) == 0
    assert sympy.expand(to_sympy(sympy, s0.to_bipoly()) - want0) == 0


@pytest.mark.parametrize("order", ["m<n", "m=n", "m>n"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_subresultant_matches_sympy(order, data):
    # mu-degrees 1..4; S1 needs m + n >= 3.
    if order == "m<n":
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m + 1, 4))
    elif order == "m=n":
        m = n = data.draw(st.integers(2, 4))
    else:
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(n + 1, 4))
    f, g = data.draw(mu_polys(m)), data.draw(mu_polys(n))
    assert_matches_sympy(f, g)


def bareiss_nodes(monkeypatch):
    """Spy on the Bareiss fallback of the PRS: the sizes of the
    matrices it eliminates, in call order."""
    sizes = []

    def spy(a):
        sizes.append(len(a))
        return bareiss_det_int(a)

    monkeypatch.setattr(resultants, "bareiss_det_int", spy)
    return sizes


def test_leading_coefficient_vanishing_at_nodes_falls_back_to_bareiss(monkeypatch):
    # lc_mu(f) = lam (lam - 2) vanishes at the nodes 0 and 2 only; its
    # coefficients are below 2^(k-1), so not at the one point 2^k either.
    f = LAM_P * (LAM_P - 2 * ONE) * MU_P**2 + (LAM_P + ONE) * MU_P + 3 * ONE
    g = MU_P**2 + LAM_P * MU_P - ONE
    sizes = bareiss_nodes(monkeypatch)
    assert_matches_sympy(f, g)
    assert sizes == []
    # At the nodes 0 and 2 Bareiss takes Res (4 x 4), s1 and s0 (2 x 2).
    _, _, f_at = resultants._specializer(f, MU)
    _, _, g_at = resultants._specializer(g, MU)
    for t in (0, 1, 2):
        resultants._node_values(f_at(t), g_at(t), True)
    assert sizes == [4, 2, 2, 4, 2, 2]


def test_remainder_degree_gap_falls_back_to_bareiss(monkeypatch):
    # f mod g = (lam - 1) mu + 1 drops from degree 2 to 0 at lam = 1 alone,
    # not at the one point.
    f = MU_P**3 + (LAM_P - ONE) * MU_P + ONE
    g = MU_P**2
    sizes = bareiss_nodes(monkeypatch)
    assert_matches_sympy(f, g)
    assert sizes == []
    _, _, f_at = resultants._specializer(f, MU)
    _, _, g_at = resultants._specializer(g, MU)
    resultants._node_values(f_at(1), g_at(1), True)
    assert sizes == [5, 3, 3]
    # f mod g = lam + 1 has degree 0 at every lam: the one point falls back.
    sizes.clear()
    f = MU_P**3 + (LAM_P - ONE) * MU_P**2 + LAM_P + ONE
    assert_matches_sympy(f, g)
    assert sizes == [5, 3, 3]


def test_linear_inputs_have_g_as_first_subresultant(monkeypatch):
    # Both linear in mu: S1 = g, and Res = f1 g0 - f0 g1.  lc(f) = lam - 1
    # vanishes at the node 1 alone, where Bareiss takes Res and g's row; at
    # the one point the PRS gives all three.
    f = (LAM_P - ONE) * MU_P + Fraction(2, 3) * LAM_P
    g = Fraction(1, 2) * (LAM_P + ONE) * MU_P - 3 * ONE
    (f0, f1), (g0, g1) = f.coeffs_in(MU), g.coeffs_in(MU)
    sizes = bareiss_nodes(monkeypatch)
    res, s1, s0 = first_subresultant(f, g, MU)
    assert res == UniPoly.from_bipoly(f1 * g0 - f0 * g1, LAM)
    assert (s1, s0) == (UniPoly.from_bipoly(g1, LAM), UniPoly.from_bipoly(g0, LAM))
    assert sizes == []
    _, _, f_at = resultants._specializer(f, MU)
    _, _, g_at = resultants._specializer(g, MU)
    resultants._node_values(f_at(1), g_at(1), True)
    assert sizes == [2, 1, 1]


I_P = BiPoly.constant(GaussianRational(0, 1))


def test_identically_vanishing_resultant():
    # A common factor mu - lam: Res is the zero polynomial, and S1, the
    # last nonzero subresultant, is that factor up to a scalar.
    h = MU_P - LAM_P
    f = h * (MU_P + 2 * ONE)
    g = h * (Fraction(1, 3) * MU_P - LAM_P * LAM_P + I_P)
    assert_matches_sympy(f, g)
    res, s1, s0 = first_subresultant(f, g, MU)
    assert res.is_zero() and res.var == LAM
    assert not s1.is_zero()
    assert s1.to_bipoly() * LAM_P == -s0.to_bipoly()


def test_constant_input_with_a_huge_denominator():
    # deg_mu g = 0: Res = g^m, and no minor's denominator is formed (den_f
    # to the power n - 1 = -1 would overflow a float).
    f = MU_P + LAM_P * Fraction(1, 10**400)
    g = LAM_P + ONE
    res, s1, s0 = first_subresultant(f, g, MU)
    assert res == UniPoly.from_bipoly(g, LAM)
    assert (s1, s0) == (None, None)


def test_linear_pair_subresultant_is_g():
    # m = n = 1 with complex and rational coefficients: Res = f1 g0 - f0 g1
    # and (s1, s0) = (g1, g0), at the one point.
    f = Fraction(-5, 2) * MU_P + (LAM_P * LAM_P - I_P * LAM_P)
    g = (3 * I_P * LAM_P + ONE) * MU_P + Fraction(7, 4) * ONE
    (f0, f1), (g0, g1) = f.coeffs_in(MU), g.coeffs_in(MU)
    res, s1, s0 = first_subresultant(f, g, MU)
    assert res == UniPoly.from_bipoly(f1 * g0 - f0 * g1, LAM)
    assert (s1, s0) == (UniPoly.from_bipoly(g1, LAM), UniPoly.from_bipoly(g0, LAM))


@pytest.mark.parametrize("seed", range(6))
def test_prs_values_at_normal_nodes_match_bareiss(seed):
    # Every node of a seeded pair, normal or not, gives the determinants of
    # the specialized integer Sylvester matrix and its two j = 1 minors.
    rng = random.Random(f"nodes/{seed}")
    f, g = (_random_bipoly(rng, rng.randint(2, 4)) for _ in range(2))
    m, n = f.degree_in(MU), g.degree_in(MU)
    _, _, f_at = resultants._specializer(f, MU)
    _, _, g_at = resultants._specializer(g, MU)
    for t in [*range(8), 1 << 40]:
        a, b = f_at(t), g_at(t)
        rows = resultants._sylvester_rows(a[::-1], b[::-1], (0, 0))
        with_s1 = min(m, n) >= 1
        matrices = [rows, *resultants._first_minors(rows, n)] if with_s1 else [rows]
        want = [bareiss_det_int([list(r) for r in mat]) for mat in matrices]
        assert resultants._node_values(a, b, with_s1) == want
