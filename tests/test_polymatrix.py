import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspace import gaussint, polymatrix
from pencilspace.bipoly import BiPoly, UniPoly
from pencilspace.construct import certify_standard, procedure_linearize
from pencilspace.errors import ShapeError
from pencilspace.matrices import Matrix, structural_rank
from pencilspace.pencil import Pencil2P
from pencilspace.polymatrix import PolyMatrix, exact_det_poly
from pencilspace.resultants import sylvester_resultant
from pencilspace.scalars import GaussianRational
from pencilspace.space import generate_member

from conftest import (
    poly_div_constant_ratio,
    rand_blocks,
    rand_gr,
    rand_matrix,
    rand_nonzero_gr,
    rand_quad,
    sylvester_matrix,
)

LAM = BiPoly.lam()
MU = BiPoly.mu()
ONE = BiPoly.constant(1)


def cofactor_det(m: PolyMatrix) -> BiPoly:
    """Independent oracle: symbolic cofactor expansion."""
    if m.rows == 1:
        return m[0, 0]
    total = BiPoly.zero()
    sign = 1
    for j in range(m.cols):
        minor = PolyMatrix(
            [[m[i, c] for c in range(m.cols) if c != j] for i in range(1, m.rows)]
        )
        term = m[0, j] * cofactor_det(minor)
        total = total + (term if sign > 0 else -term)
        sign = -sign
    return total


def rand_polymatrix(rng, size, max_degree=1):
    entries = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for i in range(max_degree + 1):
                for j in range(max_degree + 1 - i):
                    if rng.random() < 0.5:
                        terms[(i, j)] = rand_gr(rng)
            row.append(BiPoly(terms))
        entries.append(row)
    return PolyMatrix(entries)


def test_identity_product():
    m = PolyMatrix([[LAM, ONE], [MU, LAM * MU]])
    assert PolyMatrix.identity(2) @ m == m


def test_hand_multiplication():
    a = PolyMatrix([[LAM, ONE], [BiPoly.zero(), MU]])
    b = PolyMatrix([[MU, BiPoly.zero()], [BiPoly.zero(), LAM]])
    expected = PolyMatrix([[LAM * MU, LAM], [BiPoly.zero(), LAM * MU]])
    assert a @ b == expected


def test_product_with_zero_matrix():
    a = PolyMatrix([[LAM, MU]])
    assert (a @ PolyMatrix.zeros(2, 3)).is_zero()


def test_shape_mismatch():
    with pytest.raises(ShapeError):
        PolyMatrix([[LAM]]) @ PolyMatrix([[MU, ONE], [ONE, ONE]])


def test_det_triangular():
    m = PolyMatrix([[LAM, ONE], [BiPoly.zero(), MU]])
    assert exact_det_poly(m) == LAM * MU


def test_det_block_diagonal_embedding():
    # det(diag(M, I2)) = det M
    m = PolyMatrix([[LAM + ONE, MU], [MU, LAM]])
    big = PolyMatrix.from_blocks(
        [
            [m, PolyMatrix.zeros(2, 2)],
            [PolyMatrix.zeros(2, 2), PolyMatrix.identity(2)],
        ]
    )
    assert exact_det_poly(big) == exact_det_poly(m)


def test_det_of_unit_circle_standard_pencil():
    # The 3x3 companion-style pencil of lam^2 + mu^2 - 1 has determinant
    # gamma * (lam^2 + mu^2 - 1) with gamma in {+1, -1}; the cofactor
    # oracle fixes gamma = -1 for this block layout.
    from pencilspace import QuadPoly2P, standard_linearization

    q = QuadPoly2P.scalar(a20=1, a02=1, a00=-1)
    pencil_poly = standard_linearization(q).as_polymatrix()
    det = exact_det_poly(pencil_poly)
    circle = LAM**2 + MU**2 - ONE
    gamma = poly_div_constant_ratio(det, circle)
    assert gamma == GaussianRational(-1)
    assert det == cofactor_det(pencil_poly)


def test_det_matches_cofactor_on_random_3x3(rng):
    for _ in range(8):
        m = rand_polymatrix(rng, 3)
        assert exact_det_poly(m) == cofactor_det(m)


def test_det_multiplicative(rng):
    for size in (2, 3, 4):
        a = rand_polymatrix(rng, size)
        b = rand_polymatrix(rng, size)
        assert exact_det_poly(a @ b) == exact_det_poly(a) * exact_det_poly(b)


def test_det_single_variable_path(rng):
    # Entries in lam only: the Kronecker point's mu multiplies no term.
    m = PolyMatrix([[LAM**2 + ONE, LAM], [3 * LAM, LAM**2 - ONE]])
    assert exact_det_poly(m) == cofactor_det(m)


def test_det_scalar_path():
    m = PolyMatrix.from_scalar(Matrix([[1, 2], [3, 4]]))
    assert exact_det_poly(m) == BiPoly.constant(-2)


def test_scalar_round_trip():
    m = Matrix([[Fraction(1, 2), 3], [0, GaussianRational(2, 1)]])
    assert PolyMatrix.from_scalar(m).coefficient((0, 0)) == m


def test_eval():
    m = PolyMatrix([[LAM * MU, ONE], [MU, LAM]])
    assert m.eval(2, 3) == Matrix([[6, 1], [3, 2]])


def _rand_entry(rng, variables, max_degree, zero_prob=0.3):
    """A random entry in the given variables with complex fractional
    coefficients, total degree <= max_degree, zero with probability zero_prob."""
    if rng.random() < zero_prob:
        return BiPoly.zero()
    terms = {}
    for i in range(max_degree + 1 if "lam" in variables else 1):
        for j in range(max_degree + 1 - i if "mu" in variables else 1):
            if rng.random() < 0.6:
                terms[(i, j)] = rand_gr(rng, complex_prob=0.5)
    return BiPoly(terms)


def _rand_entries(rng, size, variables, max_degree):
    return [[_rand_entry(rng, variables, max_degree) for _ in range(size)] for _ in range(size)]


def _sympy_det(m):
    """sympy's own determinant of m over the polynomial ring QQ<I>[lam, mu],
    as an expression in the symbols lam, mu, and the BiPoly converter."""
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")

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

    expected = sympy.Matrix(m.rows, m.cols, lambda i, j: to_sympy(m[i, j])).to_DM()
    return expected.domain.to_sympy(expected.det()), to_sympy


def _assert_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    expected, to_sympy = _sympy_det(m)
    assert sympy.expand(to_sympy(exact_det_poly(m)) - expected) == 0


@pytest.mark.parametrize("size", range(1, 7))
@pytest.mark.parametrize("variables", [("lam",), ("mu",), ("lam", "mu")], ids="-".join)
def test_det_matches_sympy_on_random_matrices(variables, size):
    rng = random.Random(f"{'-'.join(variables)}/{size}")
    _assert_matches_sympy(PolyMatrix(_rand_entries(rng, size, variables, 2)))


@pytest.mark.parametrize("size", [2, 4, 6])
def test_det_matches_sympy_on_one_sided_degree_bounds(size):
    # E-shaped: only the first column is non-constant, so every Leibniz term
    # has lam-degree at most 1: the column sum, against the row sum (size);
    # F-shaped is its transpose.  The bound is 1, or None (structurally
    # zero) where the constant entries leave no perfect matching: the
    # size-2 draw has a zero second column.
    rng = random.Random(size)
    entries = _rand_entries(rng, size, (), 0)
    for i in range(size):
        entries[i][0] = (
            LAM * rand_nonzero_gr(rng) + MU * rand_nonzero_gr(rng) + _rand_entry(rng, (), 0)
        )
    e_shaped = PolyMatrix(entries)
    f_shaped = PolyMatrix([[entries[j][i] for j in range(size)] for i in range(size)])
    expected = None if size == 2 else 1
    assert lam_bound(e_shaped) == expected
    assert lam_bound(f_shaped) == expected
    _assert_matches_sympy(e_shaped)
    _assert_matches_sympy(f_shaped)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_det_zero_row_and_zero_polynomial(size):
    rng = random.Random(50 + size)
    entries = _rand_entries(rng, size, ("lam", "mu"), 1)
    with_zero_row = [list(row) for row in entries]
    with_zero_row[size - 1] = [BiPoly.zero()] * size
    assert exact_det_poly(PolyMatrix(with_zero_row)).is_zero()
    _assert_matches_sympy(PolyMatrix(with_zero_row))
    # Last row = (lam + mu/2) * first row: the determinant is the zero
    # polynomial although no entry is zero.
    factor = LAM + MU * Fraction(1, 2)
    dependent = [list(row) for row in entries]
    dependent[0] = [_rand_entry(rng, ("lam", "mu"), 1, zero_prob=0) for _ in range(size)]
    dependent[size - 1] = [factor * p for p in dependent[0]]
    assert exact_det_poly(PolyMatrix(dependent)).is_zero()
    _assert_matches_sympy(PolyMatrix(dependent))


def test_det_takes_one_bareiss_run_at_any_degree(monkeypatch):
    # Every determinant, of whatever degree bound, is one Bareiss run at
    # one Kronecker point: no node grid.
    rng = random.Random(3)
    q = rand_quad(rng, 3)
    cert = certify_standard(q)
    a1, a2, a3 = (rand_matrix(rng, 9, 9) for _ in range(3))
    pencil = Pencil2P(9, a1, a2, a3).as_polymatrix()
    real = polymatrix.bareiss_det_int
    calls = []

    def counting(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(polymatrix, "bareiss_det_int", counting)

    def runs(m):
        calls.clear()
        exact_det_poly(m)
        return len(calls)

    # E and F: 9 x 9 with constant determinants; Q: 3 x 3 quadratic, of
    # degree 6; L: a random 9 x 9 pencil, of degree 9.
    assert runs(cert.e) == 1
    assert runs(cert.f) == 1
    assert runs(q.as_polymatrix()) == 1
    assert runs(pencil) == 1


def _rand_sparse_polymatrix(rng, size, max_degree):
    """Entries of total degree <= max_degree, zero with a probability drawn
    per matrix, so that some patterns have no perfect matching."""
    zero_prob = rng.choice((0.2, 0.5, 0.7))
    return PolyMatrix(
        [
            [_rand_entry(rng, ("lam", "mu"), max_degree, zero_prob) for _ in range(size)]
            for _ in range(size)
        ]
    )


def lam_bound(m):
    """The d_lam that the determinant kernels read off m, or None when
    det m is structurally zero."""
    grid = polymatrix._integer_grid_det(m)
    return grid and grid[0]


def brute_force_lam_bound(m):
    """Oracle: the largest lam-degree sum of the entries (i, p(i)) over
    every permutation p whose entries are all nonzero, or None when there
    is none."""
    degrees = [
        [
            None if m[i, j].is_zero() else max(a for (a, _), _ in m[i, j].terms())
            for j in range(m.cols)
        ]
        for i in range(m.rows)
    ]
    best = None
    for p in itertools.permutations(range(m.rows)):
        entries = [degrees[i][p[i]] for i in range(m.rows)]
        if None not in entries and (best is None or sum(entries) > best):
            best = sum(entries)
    return best


def test_degree_bound_is_at_least_the_brute_force_permutation_maximum():
    rng = random.Random("assignment")
    singular = 0
    for _ in range(120):
        m = _rand_sparse_polymatrix(rng, rng.randint(1, 6), 3)
        expected = brute_force_lam_bound(m)
        bound = lam_bound(m)
        assert (bound is None) == (expected is None)
        if bound is not None:
            assert bound >= expected
        singular += expected is None
    # The draws include patterns without a perfect matching.
    assert 10 <= singular <= 100


def test_det_support_lies_inside_the_degree_bound():
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    rng = random.Random("support")
    for _ in range(30):
        m = _rand_sparse_polymatrix(rng, rng.randint(1, 4), 2)
        det, _ = _sympy_det(m)
        bound = lam_bound(m)
        if bound is None:
            assert sympy.expand(det) == 0
            assert exact_det_poly(m).is_zero()
            continue
        for a, _ in sympy.Poly(det, lam, mu).monoms():
            assert a <= bound


def test_structural_zero_is_decided_by_the_matching_alone(bareiss_calls):
    # Rows 0 and 1 are nonzero in column 0 only: no perfect matching, though
    # no row or column is zero.
    z = BiPoly.zero()
    m = PolyMatrix([[LAM, z, z], [MU + ONE, z, z], [ONE, LAM * MU, MU]])
    assert lam_bound(m) is None
    assert exact_det_poly(m) == BiPoly.zero()
    rng = random.Random("structural zero")
    singular = 0
    for _ in range(60):
        m = _rand_sparse_polymatrix(rng, rng.randint(1, 5), 2)
        pattern = [[j for j in range(m.cols) if not m[i, j].is_zero()] for i in range(m.rows)]
        if structural_rank(pattern, m.cols) == m.rows:
            continue
        singular += 1
        assert exact_det_poly(m) == BiPoly.zero()
    assert singular >= 5
    assert bareiss_calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_factors_take_one_bareiss_run(n, bareiss_calls):
    cert = certify_standard(rand_quad(random.Random(n), n))
    for factor in (cert.e, cert.f):
        bareiss_calls.clear()
        assert exact_det_poly(factor).is_constant()
        assert len(bareiss_calls) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_bound_is_the_permutation_maximum_on_cli_inputs(n):
    # The Kronecker width of det_poly and of the det-ratio expansions is set
    # by this bound: on det Q, on members of a general ansatz and on the
    # procedure's source pencils (3n x 3n, n <= 2) the row and column sums
    # meet the largest lam-degree of a Leibniz term.
    rng = random.Random(f"cli bounds/{n}")
    for _ in range(10):
        q = rand_quad(rng, n)
        matrices = [q.as_polymatrix()]
        if n <= 2:
            v = tuple(rand_nonzero_gr(rng) for _ in range(3))
            matrices.append(generate_member(q, v, rand_blocks(rng, n)).as_polymatrix())
            result = procedure_linearize(q, v, blocks=rand_blocks(rng, n), rng=rng)
            source = generate_member(q, result.transform.v, result.blocks)
            matrices.append(source.as_polymatrix())
        for m in matrices:
            assert lam_bound(m) == brute_force_lam_bound(m)


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_generic_sylvester_bound_is_the_bezout_degree(n1, n2, bareiss_calls):
    rng = random.Random(f"sylvester/{n1}/{n2}")
    f = exact_det_poly(rand_quad(rng, n1).as_polymatrix())
    g = exact_det_poly(rand_quad(rng, n2).as_polymatrix())
    s = sylvester_matrix(f, g, "mu")
    bezout = 4 * n1 * n2
    bareiss_calls.clear()
    resultant = exact_det_poly(s)
    assert len(bareiss_calls) == 1
    assert resultant.degree_in("lam") == bezout
    # The subresultant PRS at one point gives the same resultant.
    assert UniPoly.from_bipoly(resultant, "lam") == sylvester_resultant(f, g, "mu")


def test_signed_digits_read_back_coefficients_in_one_variable():
    # 2x^3 - x + 5 at x = 2^4 has the signed base-16 digits 5, -1, 0, 2;
    # with 3 i x^2 - 7 i as the imaginary part, its Gaussian-integer
    # coefficients are read back pairwise, the last one nonzero.
    x = 1 << 4
    assert gaussint.signed_digits(2 * x**3 - x + 5, 4) == [5, -1, 0, 2]
    assert gaussint.signed_digits(-(2 * x**3 - x + 5), 4) == [-5, 1, 0, -2]
    assert gaussint.signed_digits(0, 4) == []
    value = (2 * x**3 - x + 5, 3 * x**2 - 7)
    assert polymatrix._coefficients_at(value, 4) == [(5, -7), (-1, 0), (0, 3), (2, 0)]
    assert polymatrix._coefficients_at((0, -(x**2)), 4) == [(0, 0), (0, 0), (0, -1)]
    # The width separates every coefficient bounded by sqrt(bound).
    for bound in (1, 2, 3, 4, 15, 16, 17, 10**40):
        k = polymatrix._digit_width(bound)
        assert (2 ** (k - 1)) ** 2 > bound


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 70).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.one_of(
                    st.sampled_from((0, 2 ** (k - 1) - 1, -(2 ** (k - 1) - 1))),
                    st.integers(-(2 ** (k - 1)) + 1, 2 ** (k - 1) - 1),
                ),
                max_size=12,
            ),
        )
    )
)
def test_signed_digits_round_trip(k_digits):
    # Digits strictly inside +-2^(k-1), zero digits inside and at the top
    # included, come back from their value at 2^k up to the last nonzero.
    k, digits = k_digits
    value = sum(d << (k * p) for p, d in enumerate(digits))
    top = max((p + 1 for p, d in enumerate(digits) if d), default=0)
    assert gaussint.signed_digits(value, k) == digits[:top]
    assert gaussint.signed_digits(-value, k) == [-d for d in digits[:top]]


def _cofactor_cases():
    """The entries of inputs at the edges of the one-point determinant, by
    name."""
    z, i = BiPoly.zero(), BiPoly.constant(GaussianRational(0, 1))
    # Rank-deficient but structurally nonsingular: row 2 = lam * row 0 +
    # row 1, every entry nonzero.
    r0 = [LAM + ONE, MU * 2, LAM * MU - ONE]
    r1 = [MU - ONE * 3, LAM * Fraction(1, 2), ONE]
    deficient = [r0, r1, [LAM * a + b for a, b in zip(r0, r1)]]
    constant = [[ONE * 2, ONE * -3], [ONE * Fraction(5, 7), ONE]]
    imaginary = [[i * LAM * -4, ONE * -1 + MU * -2], [i * -3, i * (LAM * MU) - LAM * 5]]
    # The bound is met: every entry has one term, so det N is one monomial
    # whose coefficient has modulus sqrt(P), here 7 * 7 * 31 on the
    # imaginary part; for the 1 x 1 entry it is -(2^10 - 1), the extreme
    # digit -(2^(k-1) - 1) of k = 11.
    diagonal = [[z] * 3 for _ in range(3)]
    diagonal[0][0] = LAM * -7
    diagonal[1][1] = i * MU * 7
    diagonal[2][2] = LAM * MU * -31
    single = [[BiPoly({(2, 1): GaussianRational(-1023)})]]
    return {
        "deficient": deficient,
        "constant": constant,
        "imaginary": imaginary,
        "diagonal": diagonal,
        "single": single,
    }


@pytest.mark.parametrize("name", ["deficient", "constant", "imaginary", "diagonal", "single"])
def test_det_matches_cofactor_on_edge_inputs(name):
    m = PolyMatrix(_cofactor_cases()[name])
    det = exact_det_poly(m)
    assert det == cofactor_det(m)
    if name == "deficient":
        assert lam_bound(m) is not None
        assert det.is_zero()
    if name == "constant":
        assert det == BiPoly.constant(GaussianRational(2 + Fraction(15, 7)))
    if name == "diagonal":
        assert det == BiPoly({(2, 2): GaussianRational(0, 1519)})
    if name == "single":
        assert polymatrix._digit_width(1023**2) == 11


def test_ratio_scalar_multiple():
    p = 2 * LAM**2 - BiPoly.constant(2)
    q = LAM**2 - ONE
    assert poly_div_constant_ratio(p, q) == GaussianRational(2)


def test_ratio_not_proportional():
    assert poly_div_constant_ratio(LAM**2 - ONE, LAM * MU) is None


def test_ratio_zero_numerator_is_degenerate():
    q = LAM**2 - ONE
    assert poly_div_constant_ratio(BiPoly.zero(), q) == GaussianRational(0)


def test_ratio_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        poly_div_constant_ratio(LAM, BiPoly.zero())


def test_ratio_requires_full_support_match():
    assert poly_div_constant_ratio(LAM + MU, LAM) is None
    assert poly_div_constant_ratio(2 * LAM + MU, LAM + MU) is None


fraction_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)
nonzero_st = st.builds(GaussianRational, fraction_st, fraction_st).filter(bool)
exponent_st = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(exponent_st, nonzero_st, min_size=2, max_size=5),
    nonzero_st,
    exponent_st,
    nonzero_st,
)
def test_ratio_recovers_any_nonzero_gaussian_factor(q_terms, gamma, mono, delta):
    q = BiPoly(q_terms)
    p = q * gamma
    assert poly_div_constant_ratio(p, q) == gamma
    # q has two terms or more, so no multiple of q differs from p in one term.
    assert poly_div_constant_ratio(p + BiPoly({mono: delta}), q) is None


def _det_ratio_pair(rng, kind, q_size, extra):
    """(p, q) with q random (zero entries and missing constant terms make
    det q vanish at (0, 0) now and then, or everywhere); p random, or q
    bordered by a constant block C and mixed by a constant U, so that
    det p = det C det U det q, or that product with one entry bumped."""
    q = PolyMatrix(_rand_entries(rng, q_size, ("lam", "mu"), 2))
    if kind == "random":
        return PolyMatrix(_rand_entries(rng, q_size + extra, ("lam", "mu"), 2)), q
    c = PolyMatrix.from_scalar(rand_matrix(rng, extra, extra))
    u = PolyMatrix.from_scalar(rand_matrix(rng, q_size + extra, q_size + extra))
    p = PolyMatrix.from_blocks(
        [[q, PolyMatrix.zeros(q_size, extra)], [PolyMatrix.zeros(extra, q_size), c]]
    ) @ u
    if kind == "bumped":
        i, j = rng.randrange(p.rows), rng.randrange(p.cols)
        bump = [[BiPoly.zero()] * p.cols for _ in range(p.rows)]
        bump[i][j] = _rand_entry(rng, ("lam", "mu"), 2, zero_prob=0)
        p = p + PolyMatrix(bump)
    return p, q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(("random", "proportional", "bumped")),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 2**32),
)
def test_det_ratio_matches_poly_div_constant_ratio(kind, q_size, extra, seed):
    p, q = _det_ratio_pair(random.Random(seed), kind, q_size, extra)
    det_q = exact_det_poly(q)
    if det_q.is_zero():
        with pytest.raises(ZeroDivisionError):
            polymatrix.det_ratio(p, q)
    else:
        assert polymatrix.det_ratio(p, q) == poly_div_constant_ratio(exact_det_poly(p), det_q)


def _det_ratio_work(monkeypatch):
    """The F_p screen eliminations (det_mod_p, matrix sizes) and the
    _integer_grid_det walks (matrix sizes) that det_ratio runs."""
    runs = {"screen": [], "walk": []}
    for key, name in (("screen", "det_mod_p"), ("walk", "_integer_grid_det")):
        real = getattr(polymatrix, name)

        def recording(m, *args, real=real, key=key):
            runs[key].append(len(m) if key == "screen" else m.rows)
            return real(m, *args)

        monkeypatch.setattr(polymatrix, name, recording)
    return runs


def test_det_ratio_screens_two_points_then_compares_expansions(monkeypatch, bareiss_calls):
    # The screen compares the images in F_p of det p(1, 2) det q(2, 1) and
    # det p(2, 1) det q(1, 2): four F_p eliminations.  A rejected pair runs
    # no Bareiss elimination and no _integer_grid_det walk; a verified ratio
    # runs exactly its two expansions, one walk and one Bareiss run each.
    runs = _det_ratio_work(monkeypatch)
    q = PolyMatrix([[LAM]])
    assert polymatrix.det_ratio(PolyMatrix([[LAM * 3]]), q) == GaussianRational(3)
    assert (len(runs["screen"]), runs["walk"], len(bareiss_calls)) == (4, [1, 1], 2)
    for p in ([[LAM + ONE]], [[LAM + MU]]):
        for log in (runs["screen"], runs["walk"], bareiss_calls):
            log.clear()
        assert polymatrix.det_ratio(PolyMatrix(p), q) is None
        assert (len(runs["screen"]), runs["walk"], bareiss_calls) == (4, [], [])
    # A structurally zero det p passes the screen (0 = 0) and gives 0 once
    # det q is expanded: one Bareiss run, for det q.
    bareiss_calls.clear()
    assert polymatrix.det_ratio(PolyMatrix([[BiPoly.zero()]]), q) == GaussianRational(0)
    assert len(bareiss_calls) == 1
    # Both pass the screen (2 * 1 = 2 * 1, and 0 * 1 = 0 * 1) and are told
    # apart by their expansions: four screen runs and two expansions.
    for p in ([[LAM * MU]], [[(LAM - ONE) * (LAM - ONE * 2)]]):
        for log in (runs["screen"], bareiss_calls):
            log.clear()
        assert polymatrix.det_ratio(PolyMatrix(p), PolyMatrix([[ONE]])) is None
        assert (len(runs["screen"]), len(bareiss_calls)) == (4, 2)
    # det q vanishes identically, though not structurally: the screen passes
    # and the expansion of det q decides, before a zero det p gives 0.
    singular = PolyMatrix([[LAM, MU], [LAM, MU]])
    with pytest.raises(ZeroDivisionError):
        polymatrix.det_ratio(q, singular)
    with pytest.raises(ZeroDivisionError):
        polymatrix.det_ratio(PolyMatrix([[BiPoly.zero()]]), singular)
    with pytest.raises(ShapeError):
        polymatrix.det_ratio(PolyMatrix([[LAM, MU]]), q)


P = gaussint.SQUARE_FREE_PRIME


@pytest.mark.parametrize("which", ["p", "q"])
def test_det_ratio_skips_the_screen_when_p_divides_a_denominator(monkeypatch, bareiss_calls, which):
    # 1/P has no image in F_p, so no screen runs and the expansions decide,
    # whether the ratio exists (gamma = 1/P or P) or not.
    runs = _det_ratio_work(monkeypatch)
    over_p = PolyMatrix([[LAM * GaussianRational(Fraction(1, P))]])
    other = PolyMatrix([[LAM]])
    p, q = (over_p, other) if which == "p" else (other, over_p)
    gamma = GaussianRational(Fraction(1, P) if which == "p" else P)
    assert polymatrix.det_ratio(p, q) == gamma
    bumped = PolyMatrix([[p[0, 0] + ONE]])
    assert polymatrix.det_ratio(bumped, q) is None
    assert runs["screen"] == [] and len(bareiss_calls) == 4


@pytest.mark.parametrize("b", [1, 2, -7, 10**6])
def test_det_ratio_screen_passes_a_cross_difference_of_p(monkeypatch, bareiss_calls, b):
    # det p = P + b lam, det q = lam: the cross products (P + b) * 2 and
    # (P + 2b) * 1 differ by exactly P, so the images agree in F_p and the
    # screen passes; the expansions, with different supports, give None.
    runs = _det_ratio_work(monkeypatch)
    p = PolyMatrix([[ONE * P + LAM * b]])
    assert polymatrix.det_ratio(p, PolyMatrix([[LAM]])) is None
    assert (len(runs["screen"]), runs["walk"], len(bareiss_calls)) == (4, [1, 1], 2)


def test_det_ratio_against_a_det_q_that_vanishes_but_not_structurally(monkeypatch):
    # Every image of det q is 0, so the screen passes for any p; the
    # expansion of det q then raises, for a zero, a proportional-looking and
    # an unrelated det p alike.
    singular = PolyMatrix([[LAM + ONE, MU * 2], [LAM * 3 + ONE * 3, MU * 6]])
    assert polymatrix._integer_grid_det(singular) is not None
    assert exact_det_poly(singular).is_zero()
    runs = _det_ratio_work(monkeypatch)
    for p in ([[BiPoly.zero()]], [[LAM * MU]], [[ONE, LAM], [MU, ONE]]):
        with pytest.raises(ZeroDivisionError):
            polymatrix.det_ratio(PolyMatrix(p), singular)
    assert len(runs["screen"]) == 12


def test_det_ratio_rejects_non_square_input(monkeypatch):
    # ShapeError before any screen or expansion, for either argument.
    runs = _det_ratio_work(monkeypatch)
    square, wide, tall = PolyMatrix([[LAM]]), PolyMatrix([[LAM, MU]]), PolyMatrix([[LAM], [MU]])
    for p, q in ((wide, square), (square, tall), (tall, wide)):
        with pytest.raises(ShapeError):
            polymatrix.det_ratio(p, q)
    assert runs == {"screen": [], "walk": []}


def _bareiss_bits(monkeypatch):
    """The bit length of the largest Gaussian-integer component that each
    run of polymatrix's Bareiss determinant takes in or hands back."""
    real = polymatrix.bareiss_det_int
    bits = []

    def recording(a):
        det = real(a)
        values = [v for row in a for pair in row for v in pair] + list(det)
        bits.append(max(abs(v).bit_length() for v in values))
        return det

    monkeypatch.setattr(polymatrix, "bareiss_det_int", recording)
    return bits


EXTREME = GaussianRational(Fraction(-3, 10**1000))  # 3322-bit denominator


def _dense(rng, size) -> PolyMatrix:
    entry = lambda: _rand_entry(rng, ("lam", "mu"), 1, zero_prob=0)
    return PolyMatrix([[entry() for _ in range(size)] for _ in range(size)])


def _with_extreme_entry(m: PolyMatrix) -> PolyMatrix:
    """m with an extreme-denominator lam term added to its (0, 0) entry."""
    bump = [[BiPoly.zero()] * m.cols for _ in range(m.rows)]
    bump[0][0] = BiPoly({(1, 0): EXTREME})
    return m + PolyMatrix(bump)


def _kronecker_row_bits(monkeypatch, m: PolyMatrix) -> list[int]:
    """The bit length of the widest Gaussian-integer component of each row
    that the one Bareiss run of exact_det_poly(m) takes in, checking that
    run against the cofactor expansion."""
    real = polymatrix.bareiss_det_int
    runs = []

    def recording(a):
        runs.append([max(abs(v).bit_length() for pair in row for v in pair) for row in a])
        return real(a)

    monkeypatch.setattr(polymatrix, "bareiss_det_int", recording)
    assert exact_det_poly(m) == cofactor_det(m)
    monkeypatch.setattr(polymatrix, "bareiss_det_int", real)
    (row_bits,) = runs
    return row_bits


@pytest.mark.parametrize("size", [2, 3, 4])
def test_det_with_one_extreme_denominator_scales_its_own_row(monkeypatch, size):
    # Only row 0 carries the 10^1000, so the product of the row scales holds
    # one factor of it; with every row at one common scale it would hold
    # size of them.  In the one Kronecker run that row is wider than every
    # other by its 3322 bits (up to the few dozen bits of the entries), or
    # by more where the others lack its largest monomial.
    m = _with_extreme_entry(_dense(random.Random(size), size))
    _, scale, _, _ = polymatrix._integer_grid_det(m)
    assert 3322 < scale.bit_length() < 3322 + 64
    row_bits = _kronecker_row_bits(monkeypatch, m)
    assert row_bits[-1] - max(row_bits[:-1]) > 3322 - 64
    assert polymatrix.det_ratio(m, m) == GaussianRational(1)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_bareiss_takes_the_inflated_row_last(monkeypatch, size):
    # Row 0 carries the 10^1000; handed over last, it enters only the final
    # minor, and the row permutation's sign is applied to every value.
    m = _with_extreme_entry(_dense(random.Random(size), size))
    row_bits = _kronecker_row_bits(monkeypatch, m)
    assert row_bits[-1] > max(row_bits[:-1])
    # det m = gamma det m' for m' with rows 0 and 1 swapped, gamma = -1: the
    # screen passes and both expansions agree up to that sign.
    swapped = PolyMatrix([[m[r, c] for c in range(size)] for r in (1, 0, *range(2, size))])
    assert polymatrix.det_ratio(m, swapped) == GaussianRational(-1)


@pytest.mark.parametrize("kind", ["proportional", "bumped", "random"])
def test_det_ratio_with_one_extreme_denominator(monkeypatch, kind):
    # proportional: det p = EXTREME det U det q; bumped: that block form
    # with 1 for EXTREME and an extreme lam term added to p[0, 0].
    rng = random.Random(f"extreme/{kind}")
    q = PolyMatrix([[LAM, ONE + MU], [MU * 2, LAM - ONE]])  # det q = lam^2 - lam - 2 mu - 2 mu^2
    if kind == "random":
        p = _with_extreme_entry(_dense(rng, 3))
    else:
        c = PolyMatrix.from_scalar(Matrix([[EXTREME if kind == "proportional" else 1]]))
        p = PolyMatrix.from_blocks([[q, PolyMatrix.zeros(2, 1)], [PolyMatrix.zeros(1, 2), c]])
        p = p @ PolyMatrix.from_scalar(rand_matrix(rng, 3, 3))
        if kind == "bumped":
            p = _with_extreme_entry(p)
    bits = _bareiss_bits(monkeypatch)
    expected = poly_div_constant_ratio(cofactor_det(p), cofactor_det(q))
    assert polymatrix.det_ratio(p, q) == expected
    assert (expected is not None) == (kind == "proportional")
    # 10^1000 is prime to p, so the F_p screen runs: it rejects the bumped
    # and the random p with no Bareiss run, and the proportional p runs its
    # two expansions, each within the bit bound.
    assert len(bits) == (2 if kind == "proportional" else 0)
    assert max(bits, default=0) < 2 * 3322


def test_grid_det_takes_the_canonical_operands_from_a_long_common_denominator(monkeypatch):
    # A document pass stores every matrix of a document over one lcm, so one
    # extreme entry, alone in its lam^2 coefficient, leaves every coefficient
    # over its 3322-bit denominator, not reduced.  The per-entry row scales
    # hand every Bareiss run the very operands of the canonical coefficients,
    # in which only row 0 carries that denominator, and no coefficient is
    # reduced.
    bump = [[BiPoly.zero()] * 3 for _ in range(3)]
    bump[0][0] = BiPoly({(2, 0): EXTREME})
    p = _dense(random.Random("long common denominator"), 3) + PolyMatrix(bump)
    forms = {mono: m.integer_form() for mono, m in p.terms()}
    big = math.lcm(*(den for den, _ in forms.values()))
    stored = PolyMatrix.from_coefficients(3, 3, {
        mono: Matrix.from_integer_form(big, gaussint.times(rows, (big // den, 0)))
        for mono, (den, rows) in forms.items()
    })
    assert any(den != big for den, _ in forms.values())
    real = polymatrix.bareiss_det_int
    operands = []
    record = lambda a: operands.append([list(row) for row in a]) or real(a)
    monkeypatch.setattr(polymatrix, "bareiss_det_int", record)
    assert exact_det_poly(stored) == exact_det_poly(p)
    runs = len(operands) // 2
    assert runs and operands[:runs] == operands[runs:]
    assert not any(m._canonical for _, m in stored.terms())
    assert stored == p
