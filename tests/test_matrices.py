import sys
from fractions import Fraction

import pytest

from pencilspace.errors import ShapeError
from pencilspace.matrices import Matrix, kron, structural_rank
from pencilspace.scalars import GaussianRational

from conftest import rand_matrix


def test_det_identity():
    assert Matrix.identity(4).det() == GaussianRational(1)


def test_det_2x2_formula():
    assert Matrix([[1, 2], [3, 4]]).det() == GaussianRational(-2)


def test_det_zero_row():
    m = Matrix([[1, 2, 3], [0, 0, 0], [4, 5, 6]])
    assert m.det() == GaussianRational(0)


def test_det_needs_square():
    with pytest.raises(ShapeError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def test_det_matches_cofactor_expansion(rng):
    def cofactor_det(m):
        if m.rows == 1:
            return m[0, 0]
        total = GaussianRational(0)
        sign = GaussianRational(1)
        for j in range(m.cols):
            minor = Matrix(
                [
                    [m[i, c] for c in range(m.cols) if c != j]
                    for i in range(1, m.rows)
                ]
            )
            total = total + sign * m[0, j] * cofactor_det(minor)
            sign = -sign
        return total

    for _ in range(10):
        m = rand_matrix(rng, 4, 4)
        assert m.det() == cofactor_det(m)


def test_rank_and_inverse(rng):
    for _ in range(10):
        m = rand_matrix(rng, 3, 3)
        if m.det():
            assert m.rank() == 3
            assert m @ m.inverse() == Matrix.identity(3)
        else:
            assert m.rank() < 3
    wide = Matrix([[1, 2, 3], [2, 4, 6]])
    assert wide.rank() == 1


def test_inverse_of_singular_raises():
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [2, 4]]).inverse()


def field_elimination_rank(m: Matrix) -> int:
    """Oracle: classical exact elimination with divisions."""
    a = [list(m.row_entries(i)) for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        pivot_row = next((r for r in range(rank, m.rows) if a[r][col]), None)
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        for r in range(rank + 1, m.rows):
            if a[r][col]:
                factor = a[r][col] / pivot
                for c in range(col, m.cols):
                    a[r][c] = a[r][c] - factor * a[rank][c]
        rank += 1
        if rank == m.rows:
            break
    return rank


def test_rank_matches_field_elimination_oracle(rng):
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        if rng.random() < 0.4 and rows >= 2:
            duplicated = [list(m.row_entries(i)) for i in range(rows)]
            duplicated[-1] = [x + x for x in duplicated[0]]
            m = Matrix(duplicated)
        assert m.rank() == field_elimination_rank(m)


def test_kron_e1_with_identity():
    e1 = Matrix.column([1, 0, 0])
    stacked = kron(e1, Matrix.identity(2))
    assert stacked.shape == (6, 2)
    assert stacked == Matrix([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0], [0, 0]])


def test_kron_scalar_factor():
    b = Matrix([[1, 2], [3, 4]])
    assert kron(Matrix([[Fraction(5, 2)]]), b) == b.scale(Fraction(5, 2))


def test_kron_mixed_product(rng):
    for _ in range(8):
        a = rand_matrix(rng, 2, 3)
        c = rand_matrix(rng, 3, 2)
        b = rand_matrix(rng, 2, 2)
        d = rand_matrix(rng, 2, 3)
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_block_assembly_and_extraction():
    eye = Matrix.identity(2)
    zero = Matrix.zeros(2, 2)
    big = Matrix.from_blocks([[eye, zero], [zero, eye.scale(3)]])
    assert big.shape == (4, 4)
    assert big.block(1, 1, 2) == eye.scale(3)
    assert big.block(0, 1, 2) == zero


def test_stacking_shape_checks():
    with pytest.raises(ShapeError):
        Matrix.hstack([Matrix.identity(2), Matrix.identity(3)])
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [3]])


def test_matmul_shapes():
    a = Matrix([[1, 2]])
    with pytest.raises(ShapeError):
        a @ a


def test_det_fractional_entries():
    assert Matrix([[Fraction(1, 2), 0], [7, 4]]).det() == GaussianRational(2)


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[0]], 0),
        # zero first column, the other columns of full rank
        ([[0, 1, 2], [0, 3, 1], [0, 0, 5]], 2),
        # the pivot-free column is the last one
        ([[1, 2, 3], [0, 1, 1], [1, 3, 4]], 2),
    ],
)
def test_det_and_rank_of_singular_edge_cases(rows, rank):
    m = Matrix(rows)
    assert m.det() == GaussianRational(0)
    assert m.rank() == rank


def test_complex_entries_det():
    i = GaussianRational(0, 1)
    m = Matrix([[i, 1], [1, i]])
    # det = i*i - 1 = -2
    assert m.det() == GaussianRational(-2)


# -- rank of sparse matrices --------------------------------------------------------

SPARSE_VALUES = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational(0, 1),
    GaussianRational(Fraction(1, 2)),
)


def sparse_entry(rng, density):
    return rng.choice(SPARSE_VALUES) if rng.random() < density else GaussianRational(0)


def shuffled(rng, rows):
    """The rows in random order, with their columns in random order."""
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    rows = [[row[j] for j in order] for row in rows]
    rng.shuffle(rows)
    return rows


def test_rank_of_random_sparse_matrices_matches_oracle(rng):
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 12)
        density = rng.choice((0.1, 0.25, 0.5))
        entries = [[sparse_entry(rng, density) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.3:
            # a dependent row, so that the rank falls short of min(rows, cols)
            entries[-1] = [x + x for x in entries[0]]
        m = Matrix(entries)
        assert m.rank() == field_elimination_rank(m), entries


def test_rank_follows_a_planted_singleton_chain(rng):
    # A staircase: chain row i is nonzero in columns i..k-1, so only column
    # 0 is a singleton (nonzero in one row) at first, and setting aside the
    # row of column i makes column i + 1 one.  The tail rows are zero on
    # the staircase columns and hold a dependent pair with no zero in the
    # columns after it.
    for _ in range(30):
        k, extra, tail = rng.randint(1, 6), rng.randint(2, 5), rng.randint(2, 4)
        zero = GaussianRational(0)
        chain = [
            [zero] * i
            + [rng.choice(SPARSE_VALUES) for _ in range(k - i)]
            + [sparse_entry(rng, 0.5) for _ in range(extra)]
            for i in range(k)
        ]
        rest = [[zero] * k + [sparse_entry(rng, 0.5) for _ in range(extra)] for _ in range(tail)]
        rest[0][k:] = [rng.choice(SPARSE_VALUES) for _ in range(extra)]
        rest[-1] = [x + x for x in rest[0]]
        m = Matrix(shuffled(rng, chain + rest))
        assert m.rank() == field_elimination_rank(m)


@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], 4),
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[0, 2, 0, -1, 0]], 1),
        ([[0, 0, 0, 0, 0]], 0),
        ([[0], [3], [0], [1]], 1),
        ([[0], [0], [0]], 0),
    ],
    ids=["permutation", "zero", "single-row", "zero-row", "single-column", "zero-column"],
)
def test_rank_of_structural_edge_cases(rows, rank):
    m = Matrix(rows)
    assert m.rank() == field_elimination_rank(m) == rank


def test_rank_is_one_bareiss_elimination_of_every_row(rng, bareiss_calls):
    i = GaussianRational(0, 1)
    cases = [
        Matrix([[1, 1], [1, 1]]),
        Matrix([[1, 2, 0], [0, 1, 1], [1, 3, 1]]),
        Matrix([[i, 1, 1], [1, i, 1], [1, 1, i], [2, 2, 2]]),
        Matrix.identity(3),
    ]
    for _ in range(20):
        rows, cols = rng.randint(2, 8), rng.randint(1, 12)
        entries = [[sparse_entry(rng, 0.4) for _ in range(cols)] for _ in range(rows)]
        # every column is nonzero in the first row and in the last one, a
        # multiple of the first when the rank is to fall short
        entries[0] = [rng.choice(SPARSE_VALUES) for _ in range(cols)]
        factor = rng.choice(SPARSE_VALUES) if rng.random() < 0.5 else None
        if factor is not None:
            entries[-1] = [factor * x for x in entries[0]]
        else:
            entries[-1] = [rng.choice(SPARSE_VALUES) for _ in range(cols)]
        cases.append(Matrix(entries))
    for m in cases:
        bareiss_calls.clear()
        assert m.rank() == field_elimination_rank(m)
        assert [rows for rows, _ in bareiss_calls] == [m.rows]


def test_rank_of_the_n2_dimension_witness_matches_sympy(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    from pencilspace import space_dimension

    from conftest import rand_quad, reference_witness

    q = rand_quad(rng, 2)
    w = reference_witness(q)
    assert w.shape == (39, 108)

    def to_qq_i(x):
        qq = sympy.QQ
        return sympy.QQ_I(qq(x.re.numerator, x.re.denominator), qq(x.im.numerator, x.im.denominator))

    entries = [[to_qq_i(x) for x in w.row_entries(r)] for r in range(w.rows)]
    expected = DomainMatrix(entries, w.shape, sympy.QQ_I).rank()
    assert space_dimension(q).witness_rank == w.rank() == expected == 39


# -- structural zeros of det ----------------------------------------------------------


def field_elimination_det(m: Matrix) -> GaussianRational:
    """Oracle: the product of the pivots of classical exact elimination with
    divisions, with the sign of its row swaps."""
    a = [list(m.row_entries(i)) for i in range(m.rows)]
    det = GaussianRational(1)
    for col in range(m.cols):
        pivot_row = next((r for r in range(col, m.rows) if a[r][col]), None)
        if pivot_row is None:
            return GaussianRational(0)
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col]
        det = det * pivot
        for r in range(col + 1, m.rows):
            if a[r][col]:
                factor = a[r][col] / pivot
                for c in range(col, m.cols):
                    a[r][c] = a[r][c] - factor * a[col][c]
    return det


def textbook_matching(pattern, cols):
    """Oracle: Kuhn's augmenting-path matching in its textbook recursive
    form, with a fresh visited set for every row and no look-ahead."""
    owner = [None] * cols

    def augment(row, seen):
        for c in pattern[row]:
            if c not in seen:
                seen.add(c)
                if owner[c] is None or augment(owner[c], seen):
                    owner[c] = row
                    return True
        return False

    return sum(augment(row, set()) for row in range(len(pattern)))


def test_det_of_random_sparse_matrices_matches_oracle(rng, bareiss_calls):
    structurally_singular = 0
    for _ in range(150):
        size = rng.randint(1, 7)
        density = rng.choice((0.15, 0.3, 0.5))
        m = Matrix([[sparse_entry(rng, density) for _ in range(size)] for _ in range(size)])
        bareiss_calls.clear()
        assert m.det() == field_elimination_det(m)
        pattern = [[j for j in range(size) if m[i, j]] for i in range(size)]
        if structural_rank(pattern, size) < size:
            structurally_singular += 1
            assert not bareiss_calls
    assert structurally_singular >= 20


def test_structural_rank_matches_the_textbook_matching(rng):
    for _ in range(300):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        pattern = [[j for j in range(cols) if rng.random() < density] for _ in range(rows)]
        for row in pattern:
            rng.shuffle(row)
        assert structural_rank(pattern, cols) == textbook_matching(pattern, cols), pattern
    # Row 2 augments through column 0 (to row 1, then the free column 3);
    # row 3 must pass column 0 again, now to row 2 and on through column 5
    # to row 0 and the free column 6.  A search that kept column 0 marked
    # after the first augmentation would stop at 3.
    assert structural_rank([[5, 6], [0, 3], [0, 5], [0]], 7) == 4


def test_structural_rank_follows_a_5000_row_augmenting_chain():
    # Row k is adjacent to columns k and k + 1 and first takes column k; the
    # last row, adjacent to column 0 only, is matched by shifting every
    # other row one column right, a single augmenting path through all of
    # them.  The search keeps its path on an explicit stack, not the
    # interpreter's, whose limit is far below that depth.
    n = 5000
    assert sys.getrecursionlimit() < n
    pattern = [[k, k + 1] for k in range(n)] + [[0]]
    assert structural_rank(pattern, n + 1) == n + 1
    # With column n gone the chain has no free end: one row stays unmatched.
    assert structural_rank([[k, k + 1] for k in range(n - 1)] + [[n - 1], [0]], n) == n
