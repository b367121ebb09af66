import pytest

from pencilspace import (
    Matrix,
    Pencil2P,
    QuadPoly2P,
    apply_to_lambda,
    box_add,
    box_add_pencil,
    eigenvector_correspondence,
    generate_member,
    kron,
    lambda_kron_identity,
    standard_linearization,
)
from pencilspace.errors import ShapeError
from pencilspace.scalars import GaussianRational

from conftest import (
    ansatz_target,
    example_quad,
    rand_blocks,
    rand_gr,
    rand_matrix,
    rand_quad,
    worked_example_pencil,
)

CIRCLE = QuadPoly2P.scalar(a20=1, a02=1, a00=-1)


def e1_kron_row(q):
    return kron(Matrix.column([1, 0, 0]), q.coefficient_row())


def test_eval_quad_circle():
    assert CIRCLE.eval(1, 0) == Matrix([[0]])


def test_eval_quad_constant_identity():
    n = 3
    q = QuadPoly2P(
        n,
        *(Matrix.zeros(n, n) for _ in range(5)),
        Matrix.identity(n),
    )
    assert q.eval(7, -2) == Matrix.identity(n)


def test_eval_quad_at_origin_gives_constant_term():
    q = example_quad(2)
    assert q.eval(0, 0) == q.a00


def test_eval_pencil_at_eigenvalue_of_circle():
    pencil = standard_linearization(CIRCLE)
    assert pencil.eval(1, 0).det() == GaussianRational(0)


def test_eval_pencil_at_origin():
    pencil = standard_linearization(example_quad(2))
    assert pencil.eval(0, 0) == pencil.const


def test_eval_pencil_constant_only():
    const = Matrix([[1, 2, 0], [0, 1, 0], [0, 0, 5]])
    zero = Matrix.zeros(3, 3)
    pencil = Pencil2P(3, zero, zero, const)
    assert pencil.eval(11, -4) == const


def test_standard_linearization_unit_circle_blocks():
    pencil = standard_linearization(CIRCLE)
    assert pencil.lam_coeff == Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert pencil.mu_coeff == Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert pencil.const == Matrix([[0, 0, -1], [0, -1, 0], [-1, 0, 0]])


def test_box_add_of_standard_linearization(rng):
    for n in (1, 2, 3):
        q = rand_quad(rng, n)
        pencil = standard_linearization(q)
        assert box_add_pencil(pencil) == e1_kron_row(q)


def test_box_add_zero():
    z = Matrix.zeros(6, 6)
    assert box_add(z, z, z).is_zero()


def test_box_add_worked_example():
    q = example_quad(2)
    pencil = worked_example_pencil(q)
    assert box_add_pencil(pencil) == kron(
        Matrix.column([1, 1, 2]), q.coefficient_row()
    )


def test_box_add_requires_divisible_size():
    m = Matrix.identity(4)
    with pytest.raises(ShapeError):
        box_add(m, m, m)


def test_box_add_is_linear_in_each_argument(rng):
    n = 2
    mats = [rand_matrix(rng, 3 * n, 3 * n) for _ in range(4)]
    x, x2, y, z = mats
    left = box_add(x + x2.scale(3), y, z)
    right = box_add(x, y, z) + box_add(x2, Matrix.zeros(6, 6), Matrix.zeros(6, 6)).scale(3)
    assert left == right


def test_apply_to_lambda_standard(rng):
    for n in (1, 2, 3):
        q = rand_quad(rng, n)
        assert apply_to_lambda(standard_linearization(q)) == ansatz_target(q, (1, 0, 0))


def test_apply_to_lambda_worked_example():
    q = example_quad(2)
    assert apply_to_lambda(worked_example_pencil(q)) == ansatz_target(q, (1, 1, 2))


def test_apply_to_lambda_zero_pencil():
    zero = Matrix.zeros(6, 6)
    assert apply_to_lambda(Pencil2P(6, zero, zero, zero)).is_zero()


def product_route(pencil):
    """Oracle: L(lam,mu) * (Lambda kron I_n) as a polynomial product."""
    return pencil.as_polymatrix() @ lambda_kron_identity(pencil.m // 3)


def test_apply_to_lambda_matches_the_product_route(rng):
    # Members with complex entries and any v, and arbitrary pencils.
    for n in (1, 2, 3):
        for _ in range(4):
            q = rand_quad(rng, n, complex_prob=0.5)
            v = [rand_gr(rng, complex_prob=0.5) for _ in range(3)]
            member = generate_member(q, v, rand_blocks(rng, n, complex_prob=0.5))
            arbitrary = Pencil2P(3 * n, *(rand_matrix(rng, 3 * n, 3 * n, 0.5) for _ in range(3)))
            assert apply_to_lambda(member) == product_route(member) == ansatz_target(q, v)
            assert apply_to_lambda(arbitrary) == product_route(arbitrary)


def test_apply_to_lambda_forms_no_polynomial_product(rng, polymatrix_products):
    for n in (1, 2, 3):
        apply_to_lambda(standard_linearization(rand_quad(rng, n)))
    assert polymatrix_products == []


def test_lemma_routes_agree(rng):
    # The polynomial-product route and the box-add route must decide the
    # ansatz identity identically, member or not.
    for _ in range(6):
        n = rng.choice((1, 2))
        q = rand_quad(rng, n)
        v = [rng.randint(-2, 2) for _ in range(3)]
        for pencil, expect in (
            (standard_linearization(q), None),
            (generate_member(q, v, rand_blocks(rng, n)), True),
        ):
            product_says = product_route(pencil) == ansatz_target(q, v)
            box_says = box_add_pencil(pencil) == kron(
                Matrix.column(v), q.coefficient_row()
            )
            assert product_says == box_says
            if expect is not None:
                assert product_says is expect


def test_kron_reproduces_target_row(rng):
    q = rand_quad(rng, 2)
    assert e1_kron_row(q).block(0, 0, 2) == q.a20
    assert e1_kron_row(q).submatrix(range(2, 6), range(0, 12)).is_zero()


def test_eigenvector_correspondence_at_eigenpair():
    # Q(1, 0) x = 0 for the unit circle with x = 1.
    pencil = standard_linearization(CIRCLE)
    x = Matrix.column([1])
    report = eigenvector_correspondence(CIRCLE, pencil, (1, 0, 0), 1, 0, x)
    assert report.exact
    assert report.left.is_zero()


def test_eigenvector_correspondence_zero_block_rows(rng):
    # For ansatz e1 the left side always has zero second and third blocks.
    q = rand_quad(rng, 2)
    pencil = standard_linearization(q)
    x = rand_matrix(rng, 2, 1)
    if x.is_zero():
        x = Matrix.column([1, 0])
    report = eigenvector_correspondence(q, pencil, (1, 0, 0), 3, -2, x)
    assert report.exact
    assert report.left.submatrix(range(2, 6), range(1)).is_zero()


def test_eigenvector_correspondence_constant_identity():
    n = 2
    q = QuadPoly2P(
        n, *(Matrix.zeros(n, n) for _ in range(5)), Matrix.identity(n)
    )
    x = Matrix.column([0, 1])
    pencil = standard_linearization(q)
    report = eigenvector_correspondence(q, pencil, (1, 0, 0), 5, 7, x)
    assert report.exact
    assert report.right == kron(Matrix.column([1, 0, 0]), x)


def test_eigenvector_correspondence_rejects_zero_vector():
    with pytest.raises(ValueError):
        eigenvector_correspondence(
            CIRCLE, standard_linearization(CIRCLE), (1, 0, 0), 1, 0, Matrix.column([0])
        )
