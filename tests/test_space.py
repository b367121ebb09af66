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
    apply_to_lambda,
    box_add_pencil,
    generate_member,
    kernel_member,
    kron,
    membership,
    reduce_mu_zero,
    space_dimension,
    standard_linearization,
)
from pencilspace import gaussint, space
from pencilspace.construct import certify_scaled_e1
from pencilspace.errors import HypothesisViolatedError, ShapeError
from pencilspace.pencil import _box_blocks
from pencilspace.polymatrix import PolyMatrix
from pencilspace.scalars import GaussianRational
from pencilspace.space import free_blocks, standard_blocks

from conftest import (
    BIG_PRIMES,
    ansatz_row,
    example_quad,
    rand_blocks,
    rand_gr,
    rand_matrix,
    rand_over,
    rand_quad,
    reference_box_add,
    reference_member,
    reference_standard_blocks,
    reference_witness,
    worked_example_blocks,
    worked_example_pencil,
)


def grs(*values):
    return tuple(GaussianRational.coerce(Fraction(v)) for v in values)


def test_membership_of_standard_linearization(rng):
    q = rand_quad(rng, 2)
    result = membership(standard_linearization(q), q)
    assert result
    assert result.v == grs(1, 0, 0)
    assert not result.ambiguous


def test_membership_of_worked_example():
    q = example_quad(2)
    result = membership(worked_example_pencil(q), q)
    assert result
    assert result.v == grs(1, 1, 2)


def test_membership_rejects_perturbation():
    # Adding I to block (2,1) of the lam coefficient breaks the second
    # block row's proportionality.
    q = example_quad(2)
    pencil = worked_example_pencil(q)
    bump = Matrix.from_blocks(
        [
            [Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.zeros(2, 2)],
            [Matrix.identity(2), Matrix.zeros(2, 2), Matrix.zeros(2, 2)],
            [Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.zeros(2, 2)],
        ]
    )
    broken = type(pencil)(pencil.m, pencil.lam_coeff + bump, pencil.mu_coeff, pencil.const)
    assert not membership(broken, q)


def test_membership_solves_from_first_nonzero_block(rng):
    # A20 = A11 = 0 forces the ansatz solve onto a later coefficient block.
    n = 2
    zero = Matrix.zeros(n, n)
    q = QuadPoly2P(n, zero, zero, rand_quad(rng, n).a02, zero, zero, Matrix.identity(n))
    v = grs(3, -1, 2)
    result = membership(generate_member(q, v, rand_blocks(rng, n)), q)
    assert result and result.v == v


def test_membership_size_mismatch():
    q = example_quad(2)
    with pytest.raises(ShapeError):
        membership(standard_linearization(example_quad(1)), q)


def test_membership_zero_quadratic_is_ambiguous(rng):
    n = 2
    zero_q = QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6)))
    kernel = kernel_member(n, rand_blocks(rng, n))
    result = membership(kernel, zero_q)
    assert result and result.ambiguous
    assert result.v == grs(0, 0, 0)
    # A pencil whose box-add does not vanish cannot match the zero row.
    result2 = membership(standard_linearization(example_quad(2)), zero_q)
    assert not result2
    assert result2.ambiguous


def test_generate_worked_example_blocks_entry_for_entry():
    q = example_quad(2)
    generated = generate_member(q, (1, 1, 2), worked_example_blocks(q))
    assert generated == worked_example_pencil(q)


def test_standard_linearization_matches_explicit_blocks(rng):
    for n in (1, 2, 3):
        q = rand_quad(rng, n)
        eye = Matrix.identity(n)
        zero = Matrix.zeros(n, n)
        a1 = Matrix.from_blocks(
            [[q.a20, q.a11, zero], [zero, zero, zero], [zero, zero, eye]]
        )
        a2 = Matrix.from_blocks(
            [[zero, q.a02, zero], [zero, zero, eye], [zero, zero, zero]]
        )
        a3 = Matrix.from_blocks(
            [[q.a10, q.a01, q.a00], [zero, -eye, zero], [-eye, zero, zero]]
        )
        assert standard_linearization(q) == Pencil2P(3 * n, a1, a2, a3)


def test_generate_zero_everything():
    q = example_quad(2)
    pencil = generate_member(q, (0, 0, 0), FreeBlocks.zero(2))
    assert pencil.lam_coeff.is_zero() and pencil.mu_coeff.is_zero() and pencil.const.is_zero()
    result = membership(pencil, q)
    assert result and result.v == grs(0, 0, 0)


def test_membership_round_trip(rng):
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        q = rand_quad(rng, n)
        if q.coefficient_row().is_zero():
            continue
        v = grs(*(rng.randint(-3, 3) for _ in range(3)))
        blocks = rand_blocks(rng, n)
        result = membership(generate_member(q, v, blocks), q)
        assert result and result.v == v


def test_space_is_closed_under_addition(rng):
    n = 2
    q = rand_quad(rng, n)
    v1 = grs(1, -2, 0)
    v2 = grs(3, 5, -1)
    p1 = generate_member(q, v1, rand_blocks(rng, n))
    p2 = generate_member(q, v2, rand_blocks(rng, n))
    total = membership(p1 + p2, q)
    assert total and total.v == tuple(a + b for a, b in zip(v1, v2))


def test_kernel_member_annihilates(rng):
    for _ in range(5):
        n = rng.choice((1, 2))
        blocks = rand_blocks(rng, n)
        pencil = kernel_member(n, blocks)
        assert box_add_pencil(pencil).is_zero()
        assert apply_to_lambda(pencil).is_zero()


def test_kernel_member_zero_blocks():
    pencil = kernel_member(2, FreeBlocks.zero(2))
    assert pencil.lam_coeff.is_zero() and pencil.mu_coeff.is_zero() and pencil.const.is_zero()


def test_kernel_shift_preserves_ansatz(rng):
    n = 2
    q = rand_quad(rng, n)
    v = grs(2, -1, 3)
    member = generate_member(q, v, rand_blocks(rng, n))
    shifted = member + kernel_member(n, rand_blocks(rng, n))
    result = membership(shifted, q)
    assert result and result.v == v


def test_generate_minus_base_is_kernel(rng):
    n = 2
    q = rand_quad(rng, n)
    v = grs(1, 4, -2)
    blocks = rand_blocks(rng, n)
    difference = generate_member(q, v, blocks) - generate_member(q, v, FreeBlocks.zero(n))
    assert difference == kernel_member(n, blocks)


def test_space_dimension_values(rng):
    assert space_dimension(rand_quad(rng, 1)).dimension == 12
    summary = space_dimension(rand_quad(rng, 2))
    assert summary.dimension == 39
    assert summary.witness_rank == 39
    assert summary.verified and not summary.degenerate


def test_space_dimension_zero_quadratic():
    n = 2
    zero_q = QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6)))
    summary = space_dimension(zero_q)
    assert summary.degenerate
    assert summary.dimension == 9 * n * n
    assert summary.verified


def test_space_dimension_at_n3_runs_no_elimination(rng, bareiss_calls):
    summary = space_dimension(rand_quad(rng, 3))
    assert summary.dimension == 84
    assert summary.witness_rank == 84
    assert summary.verified and not summary.degenerate
    # The 81 kernel directions are counted, and the three ansatz rows, whose
    # supports are disjoint, are counted by their nonzero rows: no Bareiss.
    assert bareiss_calls == []


def test_space_dimension_zero_quadratic_at_n3_needs_no_pivot(bareiss_calls):
    n = 3
    zero_q = QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6)))
    summary = space_dimension(zero_q)
    assert summary.degenerate
    assert summary.dimension == summary.witness_rank == 81
    assert summary.verified
    assert sum(pivots for _, pivots in bareiss_calls) == 0


def one_coefficient_quad(rng: random.Random, n: int) -> QuadPoly2P:
    """A quadratic whose six coefficients are zero but one random one."""
    coeffs = [Matrix.zeros(n, n)] * 6
    coeffs[rng.randrange(6)] = rand_matrix(rng, n, n)
    return QuadPoly2P(n, *coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_space_dimension_witness_equals_the_member_by_member_reference(n):
    # The Bareiss rank of the member-by-member witness is the oracle of the
    # elimination-free count.
    zero_q = QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6)))
    assert space_dimension(zero_q).witness_rank == reference_witness(zero_q).rank()
    for seed in range(4):
        rng = random.Random(seed)
        for q in (rand_quad(rng, n), rand_quad(rng, n, complex_prob=1.0), one_coefficient_quad(rng, n)):
            assert not q.is_zero()
            assert space_dimension(q).witness_rank == reference_witness(q).rank() == 9 * n * n + 3


def test_space_dimension_at_n3_builds_no_unit_direction(rng, monkeypatch):
    calls = []
    real = space.kernel_member

    def counting(n, blocks):
        calls.append(n)
        return real(n, blocks)

    monkeypatch.setattr(space, "kernel_member", counting)
    assert space_dimension(rand_quad(rng, 3)).verified
    assert len(calls) <= 3


def test_space_dimension_rejects_an_ansatz_part_with_free_blocks(rng, monkeypatch):
    real = space.generate_member
    monkeypatch.setattr(
        space, "generate_member", lambda q, v, blocks: real(q, v, rand_blocks(rng, q.n))
    )
    with pytest.raises(AssertionError, match="nonzero free blocks"):
        space_dimension(rand_quad(rng, 2))


def test_space_dimension_rejects_ansatz_parts_that_share_an_entry(rng, monkeypatch):
    # Counting nonzero rows is the rank only for disjoint supports.
    real = space.generate_member
    monkeypatch.setattr(space, "generate_member", lambda q, v, blocks: real(q, (1, 0, 0), blocks))
    with pytest.raises(AssertionError, match="share a nonzero entry"):
        space_dimension(rand_quad(rng, 2))


ORACLE_CASES = ("real", "complex", "zero-q", "zero-blocks", "coprime")


def oracle_inputs(case, n, rng):
    """A quadratic, free blocks, ansatz vectors and a pencil outside the
    space for one oracle case.  Every case has v = 0, v with zero entries
    and a complex v; "coprime" gives Q's six coefficients, the blocks, v
    and the pencil each their own prime denominator above 10^6."""
    vectors = [(0, 0, 0), (1, 0, 0), (0, Fraction(-5, 7), 0), (GaussianRational(2, -1), 0, 3)]
    if case == "coprime":
        dens = iter(BIG_PRIMES)
        q = QuadPoly2P(n, *(rand_over(rng, n, n, next(dens)) for _ in range(6)))
        blocks = FreeBlocks(n, *(rand_over(rng, 3 * n, n, next(dens)) for _ in range(3)))
        v = rand_over(rng, 3, 1, next(dens))
        vectors.append(tuple(v[i, 0] for i in range(3)))
        other = Pencil2P(3 * n, *(rand_over(rng, 3 * n, 3 * n, next(dens)) for _ in range(3)))
        return q, blocks, vectors, other
    complex_prob = 0.0 if case == "real" else 0.75
    q = rand_quad(rng, n, complex_prob)
    if case == "zero-q":
        q = QuadPoly2P(n, *[Matrix.zeros(n, n)] * 6)
    blocks = FreeBlocks.zero(n) if case == "zero-blocks" else rand_blocks(rng, n, complex_prob)
    vectors.append(tuple(rand_gr(rng, complex_prob) for _ in range(3)))
    other = Pencil2P(3 * n, *(rand_matrix(rng, 3 * n, 3 * n, complex_prob) for _ in range(3)))
    return q, blocks, vectors, other


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_layouts_equal_the_composition_oracles(n, case):
    # The members, box-adds and standard blocks laid out on integer forms
    # equal, as canonical forms, the ones composed from kron, hstack,
    # vstack, submatrix, negations and sums of Matrix objects.
    q, blocks, vectors, other = oracle_inputs(case, n, random.Random(f"{case}/{n}"))
    assert standard_blocks(q) == reference_standard_blocks(q)
    kernel = kernel_member(n, blocks)
    assert kernel == reference_member(q, (0, 0, 0), blocks)
    assert box_add_pencil(kernel) == reference_box_add(kernel)
    for v in vectors:
        member = generate_member(q, v, blocks)
        assert member == reference_member(q, v, blocks)
        assert box_add_pencil(member) == reference_box_add(member)
    assert box_add_pencil(other) == reference_box_add(other)


def unfolded_member(q, v, blocks):
    """generate_member with the alignment left unfolded: each v kron A_ab
    over v_den times the denominator of A_ab by gaussint.kron, then those six
    forms and the three blocks' forms over one denominator by
    gaussint.aligned, so every ansatz entry is scaled twice, and the
    coefficients composed from Matrix objects."""
    n = q.n
    v_den, v_num = gaussint.from_scalars(GaussianRational.coerce(x) for x in v)
    forms = [c.integer_form() for c in q.coefficients()]
    ansatz = [(v_den * den, gaussint.kron([(w,) for w in v_num], data)) for den, data in forms]
    den, parts = gaussint.aligned(ansatz + [b.integer_form() for b in blocks[1:]])
    p20, p11, p02, p10, p01, p00, y1, z1, z2 = (Matrix.from_integer_form(den, rows) for rows in parts)
    layout = ([p20, p11 - y1, p10 - z1], [y1, p02, p01 - z2], [z1, z2, p00])
    return Pencil2P(3 * n, *(Matrix.hstack(coeff) for coeff in layout))


FRACTIONS = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
ANSATZ_ENTRIES = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, FRACTIONS),
    st.builds(GaussianRational, FRACTIONS, FRACTIONS),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 3),
    st.tuples(ANSATZ_ENTRIES, ANSATZ_ENTRIES, ANSATZ_ENTRIES),
    st.lists(st.integers(1, 10**6), min_size=9, max_size=9),
    st.integers(0, 2**32),
)
def test_folded_alignment_equals_the_unfolded_layout(n, v, dens, seed):
    # _lay_out folds the factor to the common denominator into v's
    # numerators: each of Q's six coefficients and the three blocks has its
    # own denominator, and v has zero, real and complex entries.
    rng = random.Random(seed)
    q = QuadPoly2P(n, *(rand_over(rng, n, n, den) for den in dens[:6]))
    blocks = FreeBlocks(n, *(rand_over(rng, 3 * n, n, den) for den in dens[6:]))
    assert generate_member(q, v, blocks) == unfolded_member(q, v, blocks)
    assert kernel_member(n, blocks) == unfolded_member(q, (0, 0, 0), blocks)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_layouts_compose_no_matrix_objects(n, monkeypatch):
    # generate_member, kernel_member, box_add_pencil and standard_blocks
    # write each result from the integer forms of their inputs: no
    # Kronecker product, block assembly, submatrix, negation or sum of
    # matrices or pencils.
    q, blocks, vectors, other = oracle_inputs("coprime", n, random.Random(f"spy/{n}"))
    calls = []
    for owner, name in (
        (Matrix, "kron"),
        (Matrix, "from_blocks"),
        (Matrix, "submatrix"),
        (Matrix, "__add__"),
        (Matrix, "__neg__"),
        (Pencil2P, "__add__"),
    ):

        def recording(*args, real=getattr(owner, name), label=f"{owner.__name__}.{name}"):
            calls.append(label)
            return real(*args)

        monkeypatch.setattr(owner, name, recording)
    for pencil in [kernel_member(n, blocks), other] + [generate_member(q, v, blocks) for v in vectors]:
        box_add_pencil(pencil)
    standard_blocks(q)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("complex_prob", [0.0, 1.0])
def test_free_blocks_inverts_the_layout_of_every_member(n, complex_prob, rng):
    # The hypothesis of space_dimension's proof: free_blocks reads back the
    # blocks that kernel_member and generate_member lay out, whatever v.
    for _ in range(5):
        q = rand_quad(rng, n, complex_prob)
        blocks = rand_blocks(rng, n, complex_prob)
        assert free_blocks(kernel_member(n, blocks)) == blocks
        for v in ((0, 0, 0), tuple(rand_gr(rng, complex_prob) for _ in range(3))):
            assert free_blocks(generate_member(q, v, blocks)) == blocks


def brute_force_dimension(q: QuadPoly2P) -> int:
    """Constraint-system oracle for n = 1, assembled directly from the
    box-add definition: unknowns are the 27 pencil entries plus v, and each
    of the 18 box-add entries must match v_r * row_c."""
    assert q.n == 1
    row = [
        q.a20[0, 0],
        q.a11[0, 0],
        q.a02[0, 0],
        q.a10[0, 0],
        q.a01[0, 0],
        q.a00[0, 0],
    ]
    # unknown layout: X (9, row-major), Y (9), Z (9), v (3)
    def idx(which, r, c):
        return {"x": 0, "y": 9, "z": 18}[which] + 3 * r + c

    # box columns as sums of unknown entries
    box_terms = {
        0: (("x", 0),),
        1: (("x", 1), ("y", 0)),
        2: (("y", 1),),
        3: (("x", 2), ("z", 0)),
        4: (("y", 2), ("z", 1)),
        5: (("z", 2),),
    }
    rows = []
    for r in range(3):
        for col, sources in box_terms.items():
            coeffs = [GaussianRational(0)] * 30
            for which, c in sources:
                coeffs[idx(which, r, c)] = GaussianRational(1)
            coeffs[27 + r] = -row[col]
            rows.append(coeffs)
    return 30 - Matrix(rows).rank()


def test_space_dimension_matches_brute_force_for_n1(rng):
    for _ in range(5):
        q = rand_quad(rng, 1)
        if q.coefficient_row().is_zero():
            continue
        assert brute_force_dimension(q) == space_dimension(q).dimension == 12


def test_reduce_mu_zero_companion_form():
    q = example_quad(2)
    n = q.n
    eye = Matrix.identity(n)
    blocks = FreeBlocks(
        n,
        Matrix.zeros(3 * n, n),
        Matrix.vstack([q.a10, -eye, Matrix.zeros(n, n)]),
        rand_blocks_fixed(n),
    )
    pencil = generate_member(q, (1, 0, 0), blocks)
    reduced = reduce_mu_zero(pencil, q)
    assert reduced.v == grs(1, 0)
    assert reduced.lam_coeff == Matrix.from_blocks(
        [[q.a20, Matrix.zeros(n, n)], [Matrix.zeros(n, n), eye]]
    )
    assert reduced.const == Matrix.from_blocks([[q.a10, q.a00], [-eye, Matrix.zeros(n, n)]])


def rand_blocks_fixed(n):
    # Any fixed Z2; it is dropped by the reduction.
    return Matrix([[((i * 7 + j) % 5) - 2 for j in range(n)] for i in range(3 * n)])


def test_reduce_mu_zero_zero_member():
    q = example_quad(2)
    pencil = generate_member(q, (0, 0, 0), FreeBlocks.zero(2))
    reduced = reduce_mu_zero(pencil, q)
    assert reduced.lam_coeff.is_zero() and reduced.const.is_zero()


def one_param_identity_holds(lam_coeff, const, v2, q):
    """Oracle: (lam*X1 + X3) ((lam,1)^T kron I_n) = v' kron (lam^2 A20 + lam A10 + A00),
    by a polynomial product."""
    n = q.n
    eye, zero = Matrix.identity(n), Matrix.zeros(n, n)
    pencil = PolyMatrix.from_coefficients(2 * n, 2 * n, {(1, 0): lam_coeff, (0, 0): const})
    stack = PolyMatrix.from_coefficients(
        2 * n, n, {(1, 0): Matrix.vstack([eye, zero]), (0, 0): Matrix.vstack([zero, eye])}
    )
    v_col = Matrix.column(v2)
    terms = {(2, 0): q.a20, (1, 0): q.a10, (0, 0): q.a00}
    target = PolyMatrix.from_coefficients(
        2 * n, n, {mono: kron(v_col, c) for mono, c in terms.items()}
    )
    return pencil @ stack == target


def test_reduce_mu_zero_random_identity(rng):
    for n in (1, 2, 3):
        for _ in range(3):
            q = rand_quad(rng, n)
            blocks = rand_blocks(rng, n)
            blocks = FreeBlocks(n, Matrix.zeros(3 * n, n), blocks.z1, blocks.z2)
            v = tuple(rand_gr(rng) for _ in range(3))
            reduced = reduce_mu_zero(generate_member(q, v, blocks), q)
            assert reduced.v == v[:2]
            assert one_param_identity_holds(reduced.lam_coeff, reduced.const, reduced.v, q)


def test_mu_zero_carve_satisfies_the_identity_whatever_y1(rng):
    # The identity follows from membership alone: Y1 sits in the mu
    # coefficient, which mu = 0 drops, so reduce_mu_zero need not check it.
    for n in (1, 2, 3):
        q = rand_quad(rng, n)
        blocks = rand_blocks(rng, n)
        assert not blocks.y1.is_zero()
        v = tuple(rand_gr(rng) for _ in range(3))
        pencil = generate_member(q, v, blocks)
        rows = range(2 * n)
        cols = list(range(n)) + list(range(2 * n, 3 * n))
        x1 = pencil.lam_coeff.submatrix(rows, cols)
        x3 = pencil.const.submatrix(rows, cols)
        assert one_param_identity_holds(x1, x3, v[:2], q)


def test_reduce_mu_zero_forms_no_polynomial_product(rng, polymatrix_products):
    n = 2
    q = rand_quad(rng, n)
    blocks = rand_blocks(rng, n)
    blocks = FreeBlocks(n, Matrix.zeros(3 * n, n), blocks.z1, blocks.z2)
    reduce_mu_zero(generate_member(q, (1, 2, 3), blocks), q)
    assert polymatrix_products == []


def test_reduce_mu_zero_requires_zero_y1(rng):
    n = 2
    q = rand_quad(rng, n)
    blocks = rand_blocks(rng, n)
    if blocks.y1.is_zero():
        blocks = FreeBlocks(n, Matrix.identity(3 * n).submatrix(range(3 * n), range(n)), blocks.z1, blocks.z2)
    with pytest.raises(HypothesisViolatedError):
        reduce_mu_zero(generate_member(q, (1, 0, 0), blocks), q)


def test_space_dimension_forms_one_kron_per_ansatz_coefficient(monkeypatch, rng):
    # Three ansatz parts of three Kronecker products each; the 9n^2 kernel
    # members are laid out directly, with no product of a zero column.
    calls = []
    real = Matrix.kron

    def counting(self, other):
        calls.append((self.shape, other.shape))
        return real(self, other)

    monkeypatch.setattr(Matrix, "kron", counting)
    summary = space_dimension(rand_quad(rng, 3))
    assert summary.verified and summary.dimension == 84
    assert len(calls) <= 9, len(calls)


def kron_membership(pencil: Pencil2P, q: QuadPoly2P):
    """membership through Matrix.column and kron: v from the first nonzero
    entry of the coefficient row, then box-add == kron(column(v), row)."""
    n, b, row = q.n, box_add_pencil(pencil), q.coefficient_row()
    pivot = next(((r, c) for r in range(n) for c in range(6 * n) if row[r, c]), None)
    if pivot is None:
        return b.is_zero(), None
    r0, c0 = pivot
    v = tuple(b[i * n + r0, c0] / row[r0, c0] for i in range(3))
    return b == kron(Matrix.column(v), row), v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ansatz_row_and_membership_match_the_kron_route(n, rng):
    for k in range(4):
        q = rand_quad(rng, n, 0.5)
        if k % 2:
            # A leading zero coefficient moves the pivot past A20.
            q = QuadPoly2P(n, Matrix.zeros(n, n), *q.coefficients()[1:])
        v = tuple(rand_gr(rng, 0.5) if rng.random() < 0.7 else GaussianRational(0) for _ in range(3))
        row = q.coefficient_row()
        assert ansatz_row(v, row) == kron(Matrix.column(v), row)
        member = generate_member(q, v, rand_blocks(rng, n))
        bumped = member.const + Matrix.from_blocks(
            [[rand_matrix(rng, n, n) if (i, j) == (2, 2) else Matrix.zeros(n, n) for j in range(3)]
             for i in range(3)]
        )
        for pencil in (member, Pencil2P(3 * n, member.lam_coeff, member.mu_coeff, bumped)):
            result = membership(pencil, q)
            verdict, expected_v = kron_membership(pencil, q)
            assert result.is_member == verdict
            assert result.v == (expected_v if verdict else None)
    zero = QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6)))
    kernel = kernel_member(n, rand_blocks(rng, n))
    assert membership(kernel, zero).is_member and kron_membership(kernel, zero)[0]


def ansatz_holds(pencil: Pencil2P, q: QuadPoly2P, v) -> bool:
    """The comparator's verdict on pencil, q and v, from their integer forms."""
    box = _box_blocks(pencil.lam_coeff, pencil.mu_coeff, pencil.const)
    v_form = gaussint.from_scalars(GaussianRational.coerce(c) for c in v)
    return space._ansatz_holds(box, v_form, space._coefficient_row(q))


def comparator_cases(n: int, rng: random.Random):
    """(q, v, blocks): a real Q, a complex Q, a Q with A20 = 0 and the zero
    quadratic, each with v = (alpha, 0, 0), a v with a zero entry and one
    with none; Y1 = [Y11; 0; 0] and the lower Z block is nonsingular, so
    each alpha*e1 member of a nonzero Q is certifiable."""
    complex_q = rand_quad(rng, n, 0.5)
    quads = (
        rand_quad(rng, n, 0.0),
        complex_q,
        QuadPoly2P(n, Matrix.zeros(n, n), *complex_q.coefficients()[1:]),
        QuadPoly2P(n, *(Matrix.zeros(n, n) for _ in range(6))),
    )
    for q in quads:
        while True:
            z1, z2 = rand_matrix(rng, 3 * n, n, 0.5), rand_matrix(rng, 3 * n, n, 0.5)
            if space.lower_z_block(z1, z2).det():
                break
        y1 = Matrix.vstack([rand_matrix(rng, n, n, 0.5), Matrix.zeros(2 * n, n)])
        blocks = FreeBlocks(n, y1, z1, z2)
        nonzero = lambda: rand_gr(rng, 0.5) or GaussianRational(1)
        for v in ((nonzero(), 0, 0), (nonzero(), 0, nonzero()), (nonzero(), nonzero(), nonzero())):
            yield q, tuple(GaussianRational.coerce(c) for c in v), blocks


def one_entry_bumps(pencil: Pencil2P, rng: random.Random):
    """The pencil with one entry changed, in each coefficient and each 3 x 3
    block position: the block's last entry (in the constant's last block,
    the last entry the comparator reads), then a random entry."""
    n, m = pencil.block_size, pencil.m
    for k in range(3):
        for bi in range(3):
            for bj in range(3):
                for r, c in ((n - 1, n - 1), (rng.randrange(n), rng.randrange(n))):
                    at = (bi * n + r, bj * n + c)
                    bump = Matrix([[GaussianRational(1, -2) if (i, j) == at else 0 for j in range(m)] for i in range(m)])
                    coeffs = list(pencil[1:])
                    coeffs[k] = coeffs[k] + bump
                    yield Pencil2P(m, *coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ansatz_comparator_matches_the_kron_identity(n):
    # The integer-form verdict equals box_add_pencil(p) == v kron row, for
    # the pencil's own v and another; membership equals the kron route; and
    # certify_scaled_e1 raises exactly where the (alpha, 0, 0) identity
    # fails (and always for the zero quadratic, which it refuses).
    rng = random.Random(f"comparator/{n}")
    for q, v, blocks in comparator_cases(n, rng):
        row = q.coefficient_row()
        identity = lambda pencil, w: box_add_pencil(pencil) == kron(Matrix.column(w), row)
        member = generate_member(q, v, blocks)
        assert identity(member, v)
        e1 = (v[0], GaussianRational(0), GaussianRational(0))
        for pencil in (member, *one_entry_bumps(member, rng)):
            for w in (v, e1, (v[0] + 1, v[1], v[2])):
                assert ansatz_holds(pencil, q, w) == identity(pencil, w)
            result = membership(pencil, q)
            verdict, expected_v = kron_membership(pencil, q)
            assert result.is_member == verdict
            if q.is_zero():
                assert result.ambiguous and result.v == (grs(0, 0, 0) if verdict else None)
            else:
                assert result.v == (expected_v if verdict else None)
            if identity(pencil, e1) and not q.is_zero():
                assert certify_scaled_e1(pencil, q, v[0]).verified
            else:
                with pytest.raises(HypothesisViolatedError, match="does not have ansatz"):
                    certify_scaled_e1(pencil, q, v[0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lower_z_block_is_the_submatrix_hstack(n, rng):
    # Written on integer forms, the lower Z block equals the hstack of the
    # two lower submatrices, for blocks over unrelated denominators.
    lower, left = range(n, 3 * n), range(n)
    for den in BIG_PRIMES[:4]:
        z1, z2 = rand_matrix(rng, 3 * n, n, 0.5), rand_over(rng, 3 * n, n, den)
        for a, b in ((z1, z2), (z2, z1), (z1, z1)):
            expected = Matrix.hstack([a.submatrix(lower, left), b.submatrix(lower, left)])
            assert space.lower_z_block(a, b) == expected
