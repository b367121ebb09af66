"""The integer-backed Matrix and the coefficient-form PolyMatrix against
entrywise oracles over GaussianRational and BiPoly.

The oracles are the plain loops: every entry of a sum, product, Kronecker
product or block matrix computed from GaussianRational (or BiPoly) entries
one at a time, a field-elimination determinant and rank, and Gauss-Jordan
inversion.  Equal values must also compare and hash equal however they
were built, and the integer kernels, including the spectrum path from
determinant to float coefficients, must run no Fraction or
GaussianRational arithmetic.
"""

from __future__ import annotations

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pencilspace import gaussint, matrices, qep
from pencilspace.bipoly import BiPoly
from pencilspace.construct import ALL_CASES, _has_ansatz, ansatz_transform, certify_scaled_e1
from pencilspace.errors import ShapeError
from pencilspace.matrices import Matrix
from pencilspace.pencil import Pencil2P, QuadPoly2P
from pencilspace.polymatrix import PolyMatrix, det_ratio, exact_det_poly
from pencilspace.qep import QuadSystem2P, linearize_system, verify_eigenpair
from pencilspace.resultants import sylvester_resultant
from pencilspace.scalars import GaussianRational
from pencilspace.serialization import serialize_pencil, serialize_problem
from pencilspace.space import generate_member, membership

from conftest import complex_coeffs, plant_eigenvector, rand_blocks, rand_gr, rand_quad

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ZERO = GaussianRational(0)

# -- entrywise oracles --------------------------------------------------------


def grid(m: Matrix) -> list[list[GaussianRational]]:
    return [list(m.row_entries(i)) for i in range(m.rows)]


def o_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def o_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def o_matmul(a, b, zero=ZERO):
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def o_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def o_scale(a, s):
    return [[x * s for x in row] for row in a]


def o_from_blocks(blocks):
    return [
        sum((block[i] for block in block_row), [])
        for block_row in blocks
        for i in range(len(block_row[0]))
    ]


def o_eliminate(a):
    """Field elimination: (rank, determinant of the square case)."""
    a = [list(row) for row in a]
    rank, det = 0, GaussianRational(1)
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            det = ZERO
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det = det * a[rank][col]
        for r in range(rank + 1, len(a)):
            factor = a[r][col] / a[rank][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank, det


def o_inverse(a):
    """Gauss-Jordan over GaussianRational; None when singular."""
    n = len(a)
    a = [list(row) + [GaussianRational(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [row[n:] for row in a]


def same(ours: Matrix, oracle) -> bool:
    expected = Matrix(oracle)
    return ours == expected and hash(ours) == hash(expected) and grid(ours) == oracle


# -- strategies -----------------------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.builds(GaussianRational, rationals, st.one_of(st.just(0), rationals))
sizes = st.integers(1, 3)


def entries(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def polys(draw):
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return BiPoly(draw(st.dictionaries(exponents, scalars, max_size=3)))


def poly_entries(rows, cols):
    return st.lists(st.lists(polys(), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


SETTINGS = settings(max_examples=30, deadline=None)

# -- Matrix ----------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_matrix_ring_operations_match_entrywise_oracle(data):
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(entries(r, k)), data.draw(entries(r, k))
    d = data.draw(entries(k, c))
    s = data.draw(scalars)
    ma, mb, md = Matrix(a), Matrix(b), Matrix(d)
    assert same(ma + mb, o_add(a, b))
    assert same(ma - mb, o_sub(a, b))
    assert same(ma @ md, o_matmul(a, d))
    assert same(ma.kron(md), o_kron(a, d))
    assert same(ma.scale(s), o_scale(a, s))
    assert same(-ma, o_scale(a, GaussianRational(-1)))


@SETTINGS
@given(st.data())
def test_matrix_blocks_and_submatrix_match_entrywise_oracle(data):
    heights = data.draw(st.lists(sizes, min_size=1, max_size=3))
    widths = data.draw(st.lists(sizes, min_size=1, max_size=3))
    blocks = [[data.draw(entries(h, w)) for w in widths] for h in heights]
    whole = Matrix.from_blocks([[Matrix(b) for b in row] for row in blocks])
    oracle = o_from_blocks(blocks)
    assert same(whole, oracle)
    # Canonical blocks give a whole matrix known to be canonical; one block
    # stored over twice its denominator gives one whose form is not claimed.
    assert whole._canonical
    assert matrices._canonical_form(whole._data, whole._den) == whole._stored_form()
    mixed = [[Matrix(b) for b in row] for row in blocks]
    mixed[-1][-1] = stored_as(mixed[-1][-1], 2)
    assert not Matrix.from_blocks(mixed)._canonical
    rows = range(data.draw(st.integers(0, whole.rows - 1)), whole.rows)
    cols = range(0, data.draw(st.integers(1, whole.cols)))
    assert same(whole.submatrix(rows, cols), [[oracle[i][j] for j in cols] for i in rows])


@SETTINGS
@given(st.data())
def test_matrix_det_rank_inverse_match_field_elimination(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(entries(n, n))
    if data.draw(st.booleans()) and n > 1:
        # A dependent last row, so singular cases come up often.
        a[-1] = [x * 2 - y for x, y in zip(a[0], a[1 % n])]
    m = Matrix(a)
    rank, det = o_eliminate(a)
    assert m.det() == det
    assert m.rank() == rank
    inverse = o_inverse(a)
    if inverse is None:
        with pytest.raises(ShapeError):
            m.inverse()
    else:
        assert same(m.inverse(), inverse)
    wide = data.draw(entries(n, data.draw(sizes)))
    assert Matrix(wide).rank() == o_eliminate(wide)[0]


def test_equal_values_built_differently_compare_and_hash_equal():
    half = Matrix([[Fraction(2, 4)]])
    assert half == Matrix([["1/2"]]) and hash(half) == hash(Matrix([["1/2"]]))
    m = Matrix([[Fraction(1, 3), GaussianRational(2, Fraction(-5, 6))], [0, "7/4"]])
    twice_halved = m.scale(2).scale(Fraction(1, 2))
    assert twice_halved == m and hash(twice_halved) == hash(m)
    # Denominators 2 and 3 cancel to 1 in the product.
    product = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) @ Matrix([[2, 0], [0, 3]])
    assert product == Matrix.identity(2) and hash(product) == hash(Matrix.identity(2))
    assert product.integer_form() == (1, (((1, 0), (0, 0)), ((0, 0), (1, 0))))
    assert (m - m) == Matrix.zeros(2, 2) and (m - m).integer_form()[0] == 1


# A Matrix built from an integer form keeps it as given, canonical or not.
# Factors k: small ones, and two that no numerator of the drawn values shares.
factors = st.one_of(st.integers(1, 12), st.sampled_from([10**40, 3 * 2**64]))


def stored_as(m: Matrix, k: int) -> Matrix:
    """A new matrix of m's values, stored over k times its canonical
    denominator, each numerator times k."""
    den, rows = m.integer_form()
    return Matrix.from_integer_form(k * den, gaussint.times(rows, (k, 0)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_a_stored_form_reads_as_its_canonical_matrix(data):
    # Each read on a new copy, so that it starts from the stored form.
    n = data.draw(sizes)
    m = Matrix(data.draw(entries(n, n)))
    k = data.draw(factors)
    assert stored_as(m, k)._stored_form()[0] == k * m.integer_form()[0]
    assert stored_as(m, k) == m and hash(stored_as(m, k)) == hash(m)
    assert stored_as(m, k).integer_form() == m.integer_form()
    assert stored_as(m, k).det() == m.det()
    assert stored_as(m, k).rank() == m.rank()
    if m.det():
        assert stored_as(m, k).inverse().integer_form() == m.inverse().integer_form()
    assert grid(stored_as(m, k)) == grid(m)


def _verdict(decide):
    """decide()'s value, or the type of what it raised."""
    try:
        return decide()
    except Exception as exc:  # noqa: BLE001 - compared, never hidden
        return type(exc)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_stored_coefficients_give_the_canonical_verdicts_and_text(data):
    # A quadratic and a pencil whose coefficients are each stored over their
    # own multiple of the canonical denominator: the written text and the
    # membership, ansatz-identity and det-ratio verdicts are the canonical
    # ones.
    rng = data.draw(st.randoms(use_true_random=False))
    n = data.draw(st.integers(1, 2))
    q = rand_quad(rng, n)
    v = data.draw(st.sampled_from([(1, 0, 0), (Fraction(-3, 2), 0, 0), (1, 1, 2), (0, -1, Fraction(1, 3))]))
    pencil = generate_member(q, v, rand_blocks(rng, n))
    if data.draw(st.booleans()):
        bump = [[0] * (3 * n) for _ in range(3 * n)]
        bump[rng.randrange(3 * n)][rng.randrange(3 * n)] = 1
        pencil = pencil._replace(const=pencil.const + Matrix(bump))
    ks = data.draw(st.lists(factors, min_size=9, max_size=9))
    q_stored = QuadPoly2P(n, *map(stored_as, q.coefficients(), ks))
    pencil_stored = Pencil2P(3 * n, *map(stored_as, pencil[1:], ks[6:]))
    assert serialize_pencil(pencil_stored) == serialize_pencil(pencil)
    assert serialize_problem(q_stored) == serialize_problem(q)
    for decide in (
        lambda l, q: membership(l, q),
        lambda l, q: _has_ansatz(l, q, v[0] or 1),
        lambda l, q: det_ratio(l.as_polymatrix(), q.as_polymatrix()),
    ):
        assert _verdict(lambda: decide(pencil_stored, q_stored)) == _verdict(lambda: decide(pencil, q))


# -- gaussint primitives ------------------------------------------------------------

# Gaussian integers with zeros, units and real entries drawn often, and rows
# that are all zero.
gaussian_ints = st.one_of(
    st.sampled_from([(0, 0), (1, 0)]),
    st.tuples(st.integers(-9, 9), st.just(0)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)


def int_rows(rows, cols):
    row = st.one_of(st.just([(0, 0)] * cols), st.lists(gaussian_ints, min_size=cols, max_size=cols))
    return st.lists(row, min_size=rows, max_size=rows)


def values(rows):
    return [[GaussianRational(re, im) for re, im in row] for row in rows]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_gaussint_primitives_match_entrywise_oracle(data):
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(int_rows(r, k)), data.draw(int_rows(k, c))
    s = data.draw(gaussian_ints)
    coefficients = data.draw(st.lists(gaussian_ints, min_size=k, max_size=k))
    column = data.draw(int_rows(k, 1))
    a_values, b_values = values(a), values(b)
    assert values(gaussint.times(a, s)) == o_scale(a_values, GaussianRational(*s))
    assert gaussint.times(a, (1, 0)) is a
    assert values(gaussint.kron(a, b)) == o_kron(a_values, b_values)
    # sum c_j * (row j of b) is the row vector of the c_j times b
    combined = gaussint.combine(zip(coefficients, b))
    assert values([combined]) == o_matmul(values([coefficients]), b_values)
    product = gaussint.matvec(a, [x for (x,) in column])
    assert values([[p] for p in product]) == o_matmul(a_values, values(column))


# -- module graph ---------------------------------------------------------------------

# Each module imports only from the layers before its own.
LAYERS = (
    ("scalars", "errors"),
    ("gaussint",),
    ("matrices", "bipoly"),
    ("polymatrix", "roots"),
    ("resultants", "pencil"),
    ("space",),
    ("construct", "serialization"),
    ("qep",),
    ("cli",),
)


def test_modules_import_only_from_lower_layers():
    package = Path(gaussint.__file__).parent
    layer = {name: k for k, names in enumerate(LAYERS) for name in names}
    assert set(layer) == {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    for name, k in layer.items():
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for imported in [node.module] if node.module else [a.name for a in node.names]:
                    assert layer[imported] < k, f"{name} imports {imported}"


# -- PolyMatrix ---------------------------------------------------------------------


def same_poly(ours: PolyMatrix, oracle) -> bool:
    expected = PolyMatrix(oracle)
    return (
        ours == expected
        and hash(ours) == hash(expected)
        and all(ours[i, j] == oracle[i][j] for i in range(ours.rows) for j in range(ours.cols))
    )


@SETTINGS
@given(st.data())
def test_polymatrix_operations_match_entrywise_bipoly_oracle(data):
    r, k, c = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(poly_entries(r, k)), data.draw(poly_entries(r, k))
    d = data.draw(poly_entries(k, c))
    pa, pb, pd = PolyMatrix(a), PolyMatrix(b), PolyMatrix(d)
    assert same_poly(pa, a)
    assert same_poly(pa + pb, o_add(a, b))
    assert same_poly(pa - pb, o_sub(a, b))
    assert same_poly(pa @ pd, o_matmul(a, d, BiPoly.zero()))
    assert same_poly(
        PolyMatrix.from_blocks([[pa, pb], [pa, pb]]), o_from_blocks([[a, b], [a, b]])
    )
    lam, mu = data.draw(scalars), data.draw(scalars)
    assert pa.eval(lam, mu) == Matrix([[p.eval(lam, mu) for p in row] for row in a])
    # No zero coefficient is stored.
    assert all(not m.is_zero() for _, m in pa.terms())


def test_polymatrix_holds_one_matrix_per_monomial():
    lam, mu, one = BiPoly.lam(), BiPoly.mu(), BiPoly.constant(1)
    p = PolyMatrix([[lam + one, mu], [BiPoly.zero(), lam * mu]])
    assert dict(p.terms()) == {
        (0, 0): Matrix([[1, 0], [0, 0]]),
        (0, 1): Matrix([[0, 1], [0, 0]]),
        (1, 0): Matrix([[1, 0], [0, 0]]),
        (1, 1): Matrix([[0, 0], [0, 1]]),
    }
    assert PolyMatrix.zeros(2, 3).is_zero() and list(PolyMatrix.zeros(2, 3).terms()) == []


# -- no scalar arithmetic inside the integer kernels -----------------------------------


def _calls_into_scalars(run) -> set:
    """(module file, function) of every Python call in fractions.py or
    scalars.py while run() executes."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename
            if name.endswith(("fractions.py", "scalars.py")):
                seen.add((name.rsplit("/", 1)[-1], frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_integer_kernels_run_no_fraction_or_gaussian_rational_arithmetic():
    a = Matrix(
        [[Fraction(1, 2), GaussianRational(1, 3), 2], [0, "5/7", 1], [GaussianRational(0, 1), 3, "-1/4"]]
    )
    b = Matrix([[1, "2/3", 0], [GaussianRational(2, -1), 1, 4], [0, 1, "1/5"]])
    lam_a = PolyMatrix.from_coefficients(3, 3, {(1, 0): a, (0, 0): b})
    s = GaussianRational(Fraction(3, 2), -1)

    def run():
        a + b, a - b, a @ b, a.kron(b), a.scale(s), -a
        a.det(), a.rank(), a.inverse()
        lam_a @ lam_a

    boundary = {
        # reading the scalar argument of scale and building the det result
        ("scalars.py", "coerce"),
        ("scalars.py", "__init__"),
        # building a GaussianRational from an integer form
        ("scalars.py", "_from_form"),
        ("fractions.py", "__new__"),
        ("fractions.py", "numerator"),
        ("fractions.py", "denominator"),
    }
    assert _calls_into_scalars(run) <= boundary


def test_spectrum_path_runs_no_fraction_or_gaussian_rational_arithmetic():
    # A flat complex system: every entry a plain (re, im) pair, some complex.
    def quadratic(seed):
        rng = random.Random(seed)
        entry = lambda: GaussianRational(rng.randint(-3, 3), rng.choice((0, rng.randint(-2, 2))))
        coeffs = {
            mono: Matrix([[entry(), entry()], [entry(), entry()]])
            for mono in ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0))
        }
        return PolyMatrix.from_coefficients(2, 2, coeffs)

    a, b = quadratic(1), quadratic(2)
    out = {}

    def run():
        f, g = exact_det_poly(a), exact_det_poly(b)
        resultant = sylvester_resultant(f, g, "mu")
        out["square_free"] = resultant.square_free_part()
        out["roots"] = complex_coeffs(out["square_free"])
        out["values"] = [
            f.eval_complex(0.5 + 1j, -0.25j),
            g.max_abs_coeff(),
            *(c.eval_complex(0.5 + 1j, 0.0) for c in f.coeffs_in("mu")),
        ]

    assert _calls_into_scalars(run) == set()
    assert out["square_free"].degree() == 16


# Fraction arithmetic: the operators and the monomorphic kernels they call.
FRACTION_ARITHMETIC = {
    ("fractions.py", name)
    for name in ("_add", "_sub", "_mul", "_div", "forward", "reverse", "__neg__", "__pow__")
}


def test_scalar_certificates_run_no_fraction_arithmetic():
    # alpha, det E = alpha^-n, det F = 1/det Z, the lam^a mu^b of the
    # eigenpair residuals, the case table and det L's constant all run on
    # the integer form of GaussianRational.
    rng = random.Random(30)
    lam, mu = rand_gr(rng, 1.0), rand_gr(rng, 1.0)
    q1, x1 = plant_eigenvector(rng, rand_quad(rng, 2), lam, mu)
    q2, x2 = plant_eigenvector(rng, rand_quad(rng, 3), lam, mu)
    system = QuadSystem2P(q1, q2)
    alpha = GaussianRational(Fraction(-3, 2), Fraction(1, 3))
    lin = linearize_system(system, alpha, alpha)
    a, b, c = GaussianRational(Fraction(2, 3), -1), GaussianRational(Fraction(-5, 7), 2), Fraction(3, 4)
    vectors = [(a, b, c), (0, b, c), (0, 0, c), (a, 0, c), (a, 0, 0), (a, b, 0), (0, b, 0)]
    out = {}

    def run():
        out["cert"] = certify_scaled_e1(lin.l1, q1, alpha)
        out["pair"] = verify_eigenpair(system, lin, lam, mu, x1, x2)
        out["cases"] = {ansatz_transform(v, alpha).case for v in vectors}
        out["alt"] = ansatz_transform(vectors[3], alpha, "ac-alt")
        out["det"] = [qep._pencil_det(p, cert) for p, cert in ((lin.l1, lin.cert1), (lin.l2, lin.cert2))]

    seen = _calls_into_scalars(run)
    assert not seen & FRACTION_ARITHMETIC, sorted(seen & FRACTION_ARITHMETIC)
    assert out["cert"].verified and out["cert"].det_e == (1 / alpha) ** 2
    assert out["pair"].passed and all(check.exact_zero for check in out["pair"].checks)
    assert out["cases"] | {"ac-alt"} == set(ALL_CASES)
    assert out["det"][1] == exact_det_poly(lin.l2.as_polymatrix())
