from fractions import Fraction

import pytest

from pencilspace.errors import ShapeError
from pencilspace.matrices import Matrix, kron
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
