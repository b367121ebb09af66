import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspace.bipoly import LAM, MU, BiPoly, UniPoly
from pencilspace.errors import DegreeError
from pencilspace.polymatrix import exact_det_poly
from pencilspace.resultants import sylvester_resultant
from pencilspace.scalars import GaussianRational

from conftest import rand_quad

LAM_P = BiPoly.lam()
MU_P = BiPoly.mu()
ONE = BiPoly.constant(1)


def test_add_symmetry():
    assert (LAM_P + MU_P) + (LAM_P - MU_P) == 2 * LAM_P


def test_difference_of_squares():
    assert (LAM_P + MU_P) * (LAM_P - MU_P) == LAM_P * LAM_P - MU_P * MU_P


def test_multiplication_by_zero_gives_empty_table():
    p = LAM_P * LAM_P + 3 * MU_P - ONE
    product = p * BiPoly.zero()
    assert product.is_zero()
    assert list(product.terms()) == []


def test_eval_unit_circle_point():
    p = LAM_P**2 + MU_P**2 - ONE
    assert p.eval(1, 0) == GaussianRational(0)


def test_eval_half_point():
    # 2*lam^2 - 1 at lam = 1/2 is -1/2 regardless of mu.
    p = 2 * LAM_P**2 - ONE
    for mu in (0, 7, Fraction(-3, 5)):
        assert p.eval(Fraction(1, 2), mu) == GaussianRational(Fraction(-1, 2))


def test_eval_zero_polynomial():
    assert BiPoly.zero().eval(12, -5) == GaussianRational(0)


def total_degree(p: BiPoly) -> int:
    """Maximum i + j over the stored monomials; -1 for the zero polynomial."""
    return max(map(sum, p.integer_form()[1]), default=-1)


def test_degrees():
    p = LAM_P**2 * MU_P + MU_P**3
    assert p.degree_in(LAM) == 2
    assert p.degree_in(MU) == 3
    assert total_degree(p) == 3
    assert total_degree(BiPoly.zero()) == -1


def test_coeffs_in_mu():
    # lam^2 + lam*mu + mu^2 - 1, coefficients in mu: [lam^2 - 1, lam, 1]
    p = LAM_P**2 + LAM_P * MU_P + MU_P**2 - ONE
    coeffs = p.coeffs_in(MU)
    assert coeffs == [LAM_P**2 - ONE, LAM_P, ONE]


def test_eval_complex_matches_exact():
    p = LAM_P**2 - 3 * MU_P + ONE
    exact = p.eval(Fraction(1, 4), Fraction(2, 3))
    approx = p.eval_complex(0.25, 2 / 3)
    assert abs(exact.to_complex() - approx) < 1e-12


coeff_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
bipolys = st.builds(
    lambda d: BiPoly({e: GaussianRational(c) for e, c in d.items()}),
    st.dictionaries(exponents, coeff_st, max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(bipolys, bipolys, bipolys)
def test_ring_distributivity(p, q, r):
    # Total degrees stay <= 4 by construction of the strategy.
    assert (p + q) * r == p * r + q * r


@settings(max_examples=40, deadline=None)
@given(bipolys, bipolys)
def test_multiplication_commutes_and_respects_eval(p, q):
    assert p * q == q * p
    point = (Fraction(2, 3), Fraction(-1, 2))
    assert (p * q).eval(*point) == p.eval(*point) * q.eval(*point)


def test_unipoly_normalization_and_leading():
    p = UniPoly([1, 2, 0, 0], var=LAM)
    assert p.coeffs == (GaussianRational(1), GaussianRational(2))
    assert p.degree() == 1
    assert p.leading() == GaussianRational(2)
    assert UniPoly([], var=LAM).is_zero()
    with pytest.raises(DegreeError):
        UniPoly([0, 0]).leading()


def test_unipoly_variable_is_lam_or_mu():
    assert str(UniPoly([1, 2], var=MU)) == "1 + (2)*mu"
    assert str(UniPoly([0, -1, 3], var=LAM)) == "-lam + (3)*lam^2"
    with pytest.raises(ValueError, match="'lam' or 'mu'"):
        UniPoly([1, 2], var="x")


def test_every_variable_lookup_names_lam_and_mu():
    p = LAM_P * MU_P + ONE
    calls = [
        lambda: BiPoly.zero().degree_in("x"),
        lambda: p.degree_in("x"),
        lambda: p.coeffs_in("x"),
        lambda: UniPoly.from_bipoly(LAM_P, "x"),
        lambda: UniPoly([1, 2], var="x"),
        lambda: sylvester_resultant(LAM_P - MU_P, LAM_P + MU_P, "x"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^var must be 'lam' or 'mu', not 'x'$"):
            call()


def test_unipoly_bipoly_round_trip():
    p = 2 * LAM_P**2 - ONE
    u = UniPoly.from_bipoly(p, LAM)
    assert u.coeffs == (GaussianRational(-1), GaussianRational(0), GaussianRational(2))
    assert u.to_bipoly() == p
    with pytest.raises(DegreeError):
        UniPoly.from_bipoly(LAM_P * MU_P, LAM)


def test_unipoly_eval():
    u = UniPoly([-1, 0, 2], var=LAM)  # 2x^2 - 1
    assert u.eval(Fraction(1, 2)) == GaussianRational(Fraction(-1, 2))


def unipoly_from_roots(*roots):
    poly = UniPoly([1], var=LAM)
    for r in roots:
        factor = UniPoly([-Fraction(r), 1], var=LAM)
        poly = UniPoly(
            _mul_coeffs(poly.coeffs, factor.coeffs), var=LAM
        )
    return poly


def _mul_coeffs(a, b):
    out = [GaussianRational(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_divmod(p, d):
    """Exact polynomial division over the field: p = q*d + r.

    Long division on GaussianRational coefficients, the textbook reference:
    the gcd and the square-free part divide on Gaussian integers instead.
    """
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(p.coeffs)
    divisor = d.coeffs
    lead = divisor[-1]
    deg_d = len(divisor) - 1
    quotient = [GaussianRational(0)] * max(len(remainder) - deg_d, 0)
    while len(remainder) - 1 >= deg_d and any(remainder):
        while remainder and not remainder[-1]:
            remainder.pop()
        if len(remainder) - 1 < deg_d:
            break
        shift = len(remainder) - 1 - deg_d
        factor = remainder[-1] / lead
        quotient[shift] = factor
        for k, c in enumerate(divisor):
            remainder[shift + k] = remainder[shift + k] - factor * c
        remainder.pop()
    return UniPoly(quotient, var=p.var), UniPoly(remainder, var=p.var)


def test_unipoly_divmod():
    p = unipoly_from_roots(1, 1, -2)
    d = unipoly_from_roots(1)
    q, r = poly_divmod(p, d)
    assert r.is_zero()
    assert q == unipoly_from_roots(1, -2)
    q2, r2 = poly_divmod(p, UniPoly([1, 0, 1], var=LAM))
    check = _mul_coeffs(q2.coeffs, (GaussianRational(1), GaussianRational(0), GaussianRational(1)))
    total = list(check) + [GaussianRational(0)] * (len(p.coeffs) - len(check))
    for k, c in enumerate(r2.coeffs):
        total[k] = total[k] + c
    assert tuple(total) == p.coeffs
    with pytest.raises(ZeroDivisionError):
        poly_divmod(p, UniPoly([], var=LAM))


def test_unipoly_gcd():
    p = unipoly_from_roots(1, 1, -2)
    q = unipoly_from_roots(1, 3)
    assert p.gcd(q) == unipoly_from_roots(1)
    coprime = unipoly_from_roots(5)
    assert p.gcd(coprime).degree() == 0


def test_unipoly_square_free_part():
    p = unipoly_from_roots(1, 1, -2)
    sf = p.square_free_part()
    assert sf.monic() == unipoly_from_roots(1, -2)
    simple = unipoly_from_roots(2, -3)
    assert simple.square_free_part() == simple
    assert UniPoly([7], var=LAM).square_free_part() == UniPoly([7], var=LAM)


def test_unipoly_derivative():
    p = UniPoly([5, -1, 0, 2], var=LAM)  # 2x^3 - x + 5
    assert p.derivative() == UniPoly([-1, 0, 6], var=LAM)


def euclid_gcd(a, b):
    """Monic gcd by the textbook Euclidean algorithm over Q(i).

    The reference oracle for UniPoly.gcd: its coefficients grow without
    bound, so it is used on small degrees only.
    """
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()


def rand_unipoly(rng, degree):
    """Random degree-``degree`` polynomial with complex fractional coefficients."""

    def coeff():
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )

    lead = coeff()
    while not lead:
        lead = coeff()
    return UniPoly([coeff() for _ in range(degree)] + [lead], var=LAM)


def unipoly_product(*factors):
    coeffs = (GaussianRational(1),)
    for f in factors:
        coeffs = tuple(_mul_coeffs(coeffs, f.coeffs))
    return UniPoly(coeffs, var=LAM)


def planted(rng, s_degree, t_degree, power):
    """(s^power * t, s) for random s and t: a square factor planted in p."""
    s = rand_unipoly(rng, s_degree)
    t = rand_unipoly(rng, t_degree)
    return unipoly_product(*([s] * power), t), s


# (degree of s, degree of t, power of s) for p = s^power * t: degree <= 12
# for the Euclidean oracle, up to 36 against sympy.
EUCLID_SHAPES = [(1, 2, 2), (2, 3, 2), (4, 4, 2), (2, 6, 3), (3, 3, 3), (4, 0, 3)]
PLANTED_SHAPES = [(3, 4, 3), (5, 7, 2), (4, 12, 3), (8, 20, 2), (6, 18, 3), (12, 0, 3)]


def test_unipoly_gcd_zero_and_constant_inputs():
    p = unipoly_from_roots(1, 1, -2)
    zero = UniPoly([], var=LAM)
    one = UniPoly([1], var=LAM)
    assert p.gcd(zero) == p.monic()
    assert zero.gcd(p) == p.monic()
    assert zero.gcd(zero).is_zero()
    constant = UniPoly([GaussianRational(Fraction(2, 3), -1)], var=LAM)
    assert p.gcd(constant) == one
    assert constant.gcd(p) == one
    assert constant.gcd(zero) == one
    assert zero.gcd(constant) == one


def test_unipoly_gcd_coprime_inputs():
    rng = random.Random(11)
    for degree in (1, 4, 9):
        p, q = rand_unipoly(rng, degree), rand_unipoly(rng, degree + 2)
        assert p.gcd(q) == UniPoly([1], var=LAM)
        assert q.gcd(p) == UniPoly([1], var=LAM)


@pytest.mark.parametrize("shape", EUCLID_SHAPES)
def test_unipoly_gcd_matches_euclid(shape):
    rng = random.Random(sum(shape))
    p, s = planted(rng, *shape)
    q = unipoly_product(s, rand_unipoly(rng, shape[1] + 1))
    # A low-degree multiple of s: (p, low) drops degree by more than one in
    # its first step and then runs normal steps down to the common factor.
    low = unipoly_product(s, rand_unipoly(rng, 2))
    for a, b in ((p, q), (q, p), (p, p.derivative()), (p, s), (p, low), (low, p)):
        assert a.gcd(b) == euclid_gcd(a, b)
    quotient, remainder = poly_divmod(p, euclid_gcd(p, p.derivative()))
    assert remainder.is_zero()
    assert p.square_free_part() == quotient


def to_sympy(poly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly(
        [sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in reversed(poly.coeffs)],
        x,
        domain=sympy.QQ_I,
    )


@pytest.mark.parametrize("shape", PLANTED_SHAPES)
def test_unipoly_gcd_and_square_free_part_match_sympy(shape):
    rng = random.Random(100 + sum(shape))
    p, s = planted(rng, *shape)
    q = unipoly_product(s, rand_unipoly(rng, 3))
    sp, sq = to_sympy(p), to_sympy(q)
    assert to_sympy(p.gcd(q)) == sp.gcd(sq)
    assert to_sympy(p.gcd(p.derivative())) == sp.gcd(sp.diff())
    assert to_sympy(p.square_free_part().monic()) == sp.sqf_part()
    # s^power is planted, so gcd(p, p') has degree at least (power - 1) deg s.
    assert p.gcd(p.derivative()).degree() >= (shape[2] - 1) * shape[0]


def test_square_free_part_of_seeded_3x3_resultant():
    # The degree-36 resultant of a seeded complex n1 = n2 = 3 system is
    # square-free, so its square-free part is the resultant itself.
    rng = random.Random(5)
    f, g = (exact_det_poly(rand_quad(rng, 3).as_polymatrix()) for _ in range(2))
    resultant = sylvester_resultant(f, g, MU)
    assert resultant.degree() == 36
    assert resultant.square_free_part() == resultant


# -- the mod-p proof of square-freeness and its PRS fallback ---------------------------

from pencilspace import bipoly  # noqa: E402


@pytest.mark.parametrize("shape", PLANTED_SHAPES)
def test_prs_gcd_returns_the_primitive_part_of_the_last_subresultant(shape):
    # The last subresultant of (p, p') carries the chain's content: 461 to
    # 2098 bits over these shapes, from inputs of 36-48 bits.  Its primitive
    # part, a positive integer leading, has at most 26.
    rng = random.Random(100 + sum(shape))
    p, _ = planted(rng, *shape)
    nums, derivative = list(p._nums), bipoly._derivative(p._nums)
    common = bipoly._subresultant_gcd(nums, derivative)
    assert max(max(abs(re), abs(im)).bit_length() for re, im in common) <= 48
    assert common[-1][0] > 0 and common[-1][1] == 0
    assert math.gcd(*(part for pair in common for part in pair)) == 1
    last = bipoly._signed_prs(nums, derivative)[-1]
    monic = lambda pairs: [GaussianRational(*pair) / GaussianRational(*pairs[-1]) for pair in pairs]
    assert monic(common) == monic(last)


def test_square_free_prime_maps_gaussian_integers_onto_f_p():
    p, s = bipoly.SQUARE_FREE_PRIME, bipoly._SQRT_MINUS_ONE
    assert p % 4 == 1 and pow(2, p - 1, p) == 1
    assert s * s % p == p - 1


def square_free_calls(monkeypatch):
    """Spy on the mod-p proof and on the PRS: the list of ("proof", verdict)
    and ("prs",) events in call order."""
    events = []
    proof, prs = bipoly._square_free_mod_p, bipoly._subresultant_gcd

    def spy_proof(nums):
        verdict = proof(nums)
        events.append(("proof", verdict))
        return verdict

    def spy_prs(a, b):
        events.append(("prs",))
        return prs(a, b)

    monkeypatch.setattr(bipoly, "_square_free_mod_p", spy_proof)
    monkeypatch.setattr(bipoly, "_subresultant_gcd", spy_prs)
    return events


def test_square_free_resultant_is_proved_without_the_prs(monkeypatch):
    rng = random.Random(5)
    f, g = (exact_det_poly(rand_quad(rng, 2).as_polymatrix()) for _ in range(2))
    resultant = sylvester_resultant(f, g, MU)
    events = square_free_calls(monkeypatch)
    assert resultant.square_free_part() is resultant
    assert events == [("proof", True)]


@pytest.mark.parametrize("shape", [(1, 1, 2), (2, 3, 2), (3, 0, 3)])
def test_planted_square_takes_the_prs_fallback(monkeypatch, shape):
    rng = random.Random(200 + sum(shape))
    p, s = planted(rng, *shape)
    events = square_free_calls(monkeypatch)
    quotient, remainder = poly_divmod(p, euclid_gcd(p, p.derivative()))
    assert remainder.is_zero()
    assert p.square_free_part() == quotient
    assert events == [("proof", False), ("prs",)]
    assert quotient.degree() == shape[0] + shape[1]


def test_square_free_over_q_i_but_not_mod_p_takes_the_fallback(monkeypatch):
    # x^2 - p is x^2 mod p, a square, yet its roots +-sqrt(p) are distinct.
    p = UniPoly([-bipoly.SQUARE_FREE_PRIME, 0, 1], var=LAM)
    events = square_free_calls(monkeypatch)
    assert p.square_free_part() == p
    assert events == [("proof", False), ("prs",)]


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)])
@pytest.mark.parametrize(
    "lead",
    [
        GaussianRational(bipoly.SQUARE_FREE_PRIME),
        # s - i lies in the kernel (p, i - s) of the map Z[i] -> F_p.
        GaussianRational(bipoly._SQRT_MINUS_ONE, -1),
    ],
    ids=["p", "s-i"],
)
def test_leading_coefficient_vanishing_mod_p_takes_the_fallback(monkeypatch, lead, scale):
    # lead x^3 + x^2 + x - 2 is x^2 + x - 2 = (x - 1)(x + 2) mod p, square-free
    # there, so only the leading-coefficient check stops the proof.
    p = UniPoly([c * scale for c in (-2, 1, 1, lead)], var=LAM)
    squared = unipoly_product(p, UniPoly([1, 1], var=LAM), UniPoly([1, 1], var=LAM))
    events = square_free_calls(monkeypatch)
    assert p.square_free_part() == p
    assert squared.square_free_part() == unipoly_product(p, UniPoly([1, 1], var=LAM))
    assert events == [("proof", False), ("prs",), ("proof", False), ("prs",)]


@pytest.mark.parametrize("seed", range(8))
def test_square_free_part_matches_sympy_on_random_polynomials(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(300 + seed)
    # A product of random factors, each to a random power 1..3.
    factors = [rand_unipoly(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
    p = unipoly_product(*(f for f in factors for _ in range(rng.choice((1, 1, 2, 3)))))
    sp = to_sympy(p)
    assert to_sympy(p.square_free_part().monic()) == sp.sqf_part()
    # The proof is sound: whenever it holds, sympy agrees p is square-free.
    if bipoly._square_free_mod_p(list(p._nums)):
        assert sympy.discriminant(sp) != 0
        assert p.square_free_part() == p


# -- the one Z[i][x] long division ------------------------------------------------------

from pencilspace import gaussint  # noqa: E402

gi_st = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
nonzero_gi_st = gi_st.filter(lambda x: x != (0, 0))
UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def gi_poly(lead):
    """Ascending Gaussian-integer coefficient lists, degree 0..6, whose
    leading coefficient is drawn from ``lead``."""
    return st.builds(lambda low, top: low + [top], st.lists(gi_st, max_size=6), lead)


def gi_product(a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p = gaussint.mul(x, y)
            out[i + j] = (out[i + j][0] + p[0], out[i + j][1] + p[1])
    return out


def assert_division(a, b, q, r):
    """a = q b + r with deg r < deg b, r stripped of trailing zeros."""
    qb = gi_product(q, b)
    total = [(0, 0)] * max(len(a), len(qb), len(r))
    for part in (qb, r):
        for k, (re, im) in enumerate(part):
            total[k] = (total[k][0] + re, total[k][1] + im)
    assert bipoly._stripped(total) == bipoly._stripped(list(a))
    assert len(r) < len(b) and (not r or r[-1] != (0, 0))


@settings(max_examples=80, deadline=None)
@given(gi_poly(gi_st), gi_poly(st.sampled_from(UNITS)), gi_poly(nonzero_gi_st))
def test_divide_is_euclidean_division_in_z_i(a, unit_b, b):
    # A unit leading coefficient divides every coefficient.
    assert_division(a, unit_b, *bipoly._divide(a, unit_b))
    # lc(b)^(delta + 1) a, the pseudo-remainder's multiple, divides exactly
    # at every step for any b.
    scale = gaussint.power(b[-1], max(len(a) - len(b) + 1, 0))
    scaled = [gaussint.mul(x, scale) for x in a]
    assert_division(scaled, b, *bipoly._divide(scaled, b))


@settings(max_examples=40, deadline=None)
@given(st.lists(gi_st, max_size=6), gi_st, gi_poly(nonzero_gi_st.filter(lambda x: x not in UNITS)))
def test_divide_rejects_a_leading_coefficient_lc_b_does_not_divide(low, k, b):
    # lc(b) k + 1 is a multiple of lc(b) only if lc(b) divides 1, a unit.
    lead = gaussint.mul(b[-1], k)
    a = low + [(0, 0)] * (len(b) - 1 - len(low)) + [(lead[0] + 1, lead[1])]
    with pytest.raises(DegreeError) as failure:
        bipoly._divide(a, b)
    assert str(failure.value) == "square-free reduction failed (inexact division)"


# -- integer-form BiPoly against the GaussianRational definitions ----------------------

gr_st = st.builds(GaussianRational, coeff_st, st.one_of(st.just(0), coeff_st))
term_st = st.dictionaries(exponents, gr_st, max_size=5)


def o_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, GaussianRational(0)) + c
    return {e: c for e, c in out.items() if c}


def o_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, GaussianRational(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def o_eval(p, lam, mu):
    return sum((c * lam**i * mu**j for (i, j), c in p.items()), GaussianRational(0))


def o_coeffs_in(p, var):
    idx = 0 if var == LAM else 1
    degree = max((e[idx] for e in p), default=-1)
    out = [{} for _ in range(degree + 1)]
    for (i, j), c in p.items():
        out[(i, j)[idx]][(0, j) if idx == 0 else (i, 0)] = c
    return out


def same_poly(ours: BiPoly, oracle: dict) -> bool:
    expected = {e: c for e, c in oracle.items() if c}
    rebuilt = BiPoly(expected)
    return dict(ours.terms()) == expected and ours == rebuilt and hash(ours) == hash(rebuilt)


@settings(max_examples=60, deadline=None)
@given(term_st, term_st, gr_st, gr_st, gr_st)
def test_integer_bipoly_matches_gaussian_rational_oracle(p_terms, q_terms, s, lam, mu):
    p, q = BiPoly(p_terms), BiPoly(q_terms)
    assert same_poly(p, p_terms)
    assert same_poly(p + q, o_add(p_terms, q_terms))
    assert same_poly(p - q, o_add(p_terms, {e: -c for e, c in q_terms.items()}))
    assert same_poly(-p, {e: -c for e, c in p_terms.items()})
    assert same_poly(p * q, o_mul(p_terms, q_terms))
    assert same_poly(p * s, {e: c * s for e, c in p_terms.items()})
    for var in (LAM, MU):
        coeffs = p.coeffs_in(var)
        oracle = o_coeffs_in({e: c for e, c in p_terms.items() if c}, var)
        assert len(coeffs) == len(oracle)
        assert all(same_poly(c, o) for c, o in zip(coeffs, oracle))
    assert p.eval(lam, mu) == o_eval(p_terms, lam, mu)
    approx = p.eval_complex(lam.to_complex(), mu.to_complex())
    assert abs(approx - o_eval(p_terms, lam, mu).to_complex()) < 1e-9
    # The same value built another way compares and hashes equal.
    if s:
        twice = (p * s) * (GaussianRational(1) / s)
        assert twice == p and hash(twice) == hash(p)
    assert p.integer_form()[0] >= 1


def test_integer_form_is_canonical():
    half = BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert half.integer_form() == (2, {(1, 0): (1, 0), (0, 1): (1, 0)})
    assert (half + half).integer_form() == (1, {(1, 0): (1, 0), (0, 1): (1, 0)})
    assert BiPoly.from_integer_form(6, {(0, 0): (2, 4), (1, 0): (0, 0)}) == BiPoly(
        {(0, 0): GaussianRational(Fraction(1, 3), Fraction(2, 3))}
    )
    assert (half - half).integer_form() == (1, {})


# -- the mod-p proof of coprimality and its PRS fallback -----------------------------


def coprime_calls(monkeypatch):
    """Spy on the mod-p coprimality proof and on the PRS, as in
    square_free_calls."""
    events = []
    proof, prs = bipoly._coprime_mod_p, bipoly._subresultant_gcd

    def spy_proof(r, s):
        verdict = proof(r, s)
        events.append(("proof", verdict))
        return verdict

    def spy_prs(a, b):
        events.append(("prs",))
        return prs(a, b)

    monkeypatch.setattr(bipoly, "_coprime_mod_p", spy_proof)
    monkeypatch.setattr(bipoly, "_subresultant_gcd", spy_prs)
    return events


def test_is_coprime_proved_mod_p(monkeypatch):
    r = UniPoly([-1, 0, 1], var=LAM)  # (lam - 1)(lam + 1)
    events = coprime_calls(monkeypatch)
    assert r.is_coprime(UniPoly([2, GaussianRational(0, 1)], var=LAM))
    assert events == [("proof", True)]


SQUARES_MOD_P = UniPoly([-bipoly.SQUARE_FREE_PRIME, 0, 1], var=LAM)  # lam^2 - p


@pytest.mark.parametrize(
    "r, other, coprime",
    [
        (UniPoly([-1, 0, 1], var=LAM), UniPoly([1, 1], var=LAM), False),  # lam + 1 divides both
        (UniPoly([-1, 0, 1], var=LAM), UniPoly([], var=LAM), False),  # gcd(r, 0) = r
        # lam^2 - p is lam^2 mod p, which shares lam with lam, yet it is
        # coprime to lam over Q(i).
        (SQUARES_MOD_P, UniPoly([0, 1], var=LAM), True),
    ],
)
def test_is_coprime_falls_back_to_the_prs(monkeypatch, r, other, coprime):
    events = coprime_calls(monkeypatch)
    assert r.is_coprime(other) is coprime
    # gcd(r, 0) is r made monic, without the PRS.
    assert events == [("proof", False)] + ([] if other.is_zero() else [("prs",)])


def test_is_coprime_needs_lc_nonzero_mod_p(monkeypatch):
    # p lam + 1 drops to 1 mod p: the map proves nothing, the PRS decides.
    r = UniPoly([1, bipoly.SQUARE_FREE_PRIME], var=LAM)
    events = coprime_calls(monkeypatch)
    assert r.is_coprime(UniPoly([0, 1], var=LAM))
    assert events == [("proof", False), ("prs",)]
