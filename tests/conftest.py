"""Shared helpers: seeded random instances and the worked example fixtures."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pencilspace import (
    FreeBlocks,
    Matrix,
    Pencil2P,
    QuadPoly2P,
    gaussint,
    generate_member,
    kernel_member,
    kron,
)
from pencilspace.bipoly import BiPoly, UniPoly
from pencilspace.polymatrix import PolyMatrix
from pencilspace.resultants import _checked_degrees, _sylvester_rows
from pencilspace.scalars import GaussianRational


class ReferenceGaussian:
    """An element of Q(i) as a pair of Fractions: the reference that
    ``scalars.GaussianRational``, on one integer form, is checked against.
    Its arithmetic is the textbook formulas on ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ReferenceGaussian is immutable")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def coerce(value) -> "ReferenceGaussian":
        """Coerce an int, str, or Fraction into a ReferenceGaussian."""
        if isinstance(value, ReferenceGaussian):
            return value
        return ReferenceGaussian(Fraction(value))

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ReferenceGaussian":
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "ReferenceGaussian":
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "ReferenceGaussian":
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "ReferenceGaussian":
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return ReferenceGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ReferenceGaussian":
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if not denom:
            raise ZeroDivisionError("division by zero GaussianRational")
        return ReferenceGaussian(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __rtruediv__(self, other) -> "ReferenceGaussian":
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self) -> "ReferenceGaussian":
        return ReferenceGaussian(-self.re, -self.im)

    def __pow__(self, exponent: int) -> "ReferenceGaussian":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = ReferenceGaussian(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "ReferenceGaussian":
        return ReferenceGaussian(self.re, -self.im)

    # -- comparisons and hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_reference(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- conversions -------------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return self.to_complex()

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

    def __repr__(self) -> str:
        # The repr of GaussianRational, which the integer-form class reproduces.
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_reference(value) -> "ReferenceGaussian":
    if isinstance(value, ReferenceGaussian):
        return value
    if isinstance(value, (int, Fraction)):
        return ReferenceGaussian(value)
    return NotImplemented


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def rand_gr(rng: random.Random, complex_prob: float = 0.25) -> GaussianRational:
    im = rand_fraction(rng) if rng.random() < complex_prob else 0
    return GaussianRational(rand_fraction(rng), im)


def rand_matrix(rng: random.Random, rows: int, cols: int, complex_prob: float = 0.25) -> Matrix:
    return Matrix(
        [[rand_gr(rng, complex_prob) for _ in range(cols)] for _ in range(rows)]
    )


def rand_sparse_matrix(rng: random.Random, rows: int, cols: int, density: float) -> Matrix:
    """Each entry a random scalar with probability density, else 0."""
    return Matrix(
        [[rand_gr(rng) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    )


def rand_quad(rng: random.Random, n: int, complex_prob: float = 0.25) -> QuadPoly2P:
    return QuadPoly2P(n, *(rand_matrix(rng, n, n, complex_prob) for _ in range(6)))


def rand_blocks(rng: random.Random, n: int, complex_prob: float = 0.25) -> FreeBlocks:
    return FreeBlocks(
        n, *(rand_matrix(rng, 3 * n, n, complex_prob) for _ in range(3))
    )


def rand_nonzero_gr(rng: random.Random) -> GaussianRational:
    while True:
        value = rand_gr(rng)
        if value:
            return value


def plant_eigenvector(
    rng: random.Random, q: QuadPoly2P, lam: GaussianRational, mu: GaussianRational
) -> tuple[QuadPoly2P, Matrix]:
    """q with A00 changed so that Q(lam, mu) x = 0 exactly, and x: a random
    column with x[0] != 0, whose residual r moves A00 by r [1/x0, 0, ...]."""
    while True:
        x = rand_matrix(rng, q.n, 1)
        if x[0, 0]:
            break
    residual = q.eval(lam, mu) @ x
    row = Matrix([[GaussianRational(1) / x[0, 0]] + [0] * (q.n - 1)])
    a00 = q.a00 - residual @ row
    return QuadPoly2P(q.n, q.a20, q.a11, q.a02, q.a10, q.a01, a00), x


def poly_div_constant_ratio(p: BiPoly, q: BiPoly) -> GaussianRational | None:
    """Return gamma with p = gamma * q exactly, or None if not proportional:
    the oracle of ``polymatrix.det_ratio`` on expanded determinants.

    q must be nonzero.  A zero p yields gamma = 0.
    """
    if q.is_zero():
        raise ZeroDivisionError("proportionality against the zero polynomial")
    if p.is_zero():
        return GaussianRational(0)
    p_den, p_terms = p.integer_form()
    q_den, q_terms = q.integer_form()
    if p_terms.keys() != q_terms.keys():
        return None
    # p = gamma q iff p_e * y = q_e * x at every monomial e, for the
    # numerators x of p and y of q at one monomial (cross-multiplied in Z[i]).
    first = min(q_terms)
    x, y = p_terms[first], q_terms[first]
    if any(gaussint.mul(p_terms[e], y) != gaussint.mul(c, x) for e, c in q_terms.items()):
        return None
    # gamma = (x / p_den) / (y / q_den)
    norm, s = gaussint.reciprocal(y, q_den)
    return gaussint.to_scalar(norm * p_den, gaussint.mul(x, s))

def sylvester_matrix(f: BiPoly, g: BiPoly, eliminate: str) -> PolyMatrix:
    """The (m+n) x (m+n) Sylvester matrix of f and g w.r.t. one variable.

    Rows hold the descending coefficient sequences: deg(g) shifted copies
    of f's coefficients followed by deg(f) shifted copies of g's.  One
    input may have degree 0: the matrix is then that input times the
    identity, so the resultant is f^deg(g) (or g^deg(f)).
    """
    _checked_degrees(f, g, eliminate)
    f_desc = list(reversed(f.coeffs_in(eliminate)))
    g_desc = list(reversed(g.coeffs_in(eliminate)))
    return PolyMatrix(_sylvester_rows(f_desc, g_desc, BiPoly.zero()))


def reference_witness(q: QuadPoly2P) -> Matrix:
    """The dimension witness built member by member: the three ansatz
    directions, then one kernel_member per unit direction of Y1, Z1, Z2,
    each pencil vectorized by submatrix and hstack, stacked by vstack."""
    n = q.n
    directions = () if q.is_zero() else ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    members = [generate_member(q, e, FreeBlocks.zero(n)) for e in directions]
    zero = Matrix.zeros(3 * n, n)
    for which in range(3):
        for r in range(3 * n):
            for c in range(n):
                blocks = [zero, zero, zero]
                blocks[which] = Matrix(
                    [[int(i == r and j == c) for j in range(n)] for i in range(3 * n)]
                )
                members.append(kernel_member(n, FreeBlocks(n, *blocks)))

    def vectorize(p: Pencil2P) -> Matrix:
        return Matrix.hstack(
            [
                coeff.submatrix(range(i, i + 1), range(p.m))
                for coeff in (p.lam_coeff, p.mu_coeff, p.const)
                for i in range(p.m)
            ]
        )

    return Matrix.vstack([vectorize(p) for p in members])


# The first primes above 10^6: denominators that share no factor, so every
# alignment to a common denominator scales every input.
BIG_PRIMES = (
    1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117,
    1000121, 1000133, 1000151, 1000159, 1000171, 1000183,
)


def rand_over(rng: random.Random, rows: int, cols: int, den: int, complex_prob: float = 0.5):
    """A matrix whose entries have numerators below 10^9 over den, about
    complex_prob of them complex, and about one in five zero."""

    def entry():
        if rng.random() < 0.2:
            return 0
        im = Fraction(rng.randint(-10**9, 10**9), den) if rng.random() < complex_prob else 0
        return GaussianRational(Fraction(rng.randint(-10**9, 10**9), den), im)

    return Matrix([[entry() for _ in range(cols)] for _ in range(rows)])


def reference_member(q: QuadPoly2P, v, blocks: FreeBlocks) -> Pencil2P:
    """generate_member by composition of matrices and pencils: per
    coefficient, v kron hstack(its block row of the e1 member), plus the
    pencil of the kernel layout A1 = [0 | -Y1 | -Z1], A2 = [Y1 | 0 | -Z2],
    A3 = [Z1 | Z2 | 0], each an hstack of negated blocks.  With v = 0 it is
    kernel_member, whatever q."""
    n = q.n
    v_col = Matrix.column(v)
    zero = Matrix.zeros(n, n)
    rows = ([q.a20, q.a11, q.a10], [zero, q.a02, q.a01], [zero, zero, q.a00])
    ansatz = Pencil2P(3 * n, *(kron(v_col, Matrix.hstack(row)) for row in rows))
    zero, y1, z1, z2 = Matrix.zeros(3 * n, n), blocks.y1, blocks.z1, blocks.z2
    layout = ([zero, -y1, -z1], [y1, zero, -z2], [z1, z2, zero])
    return ansatz + Pencil2P(3 * n, *(Matrix.hstack(coeff) for coeff in layout))


def reference_box_add(pencil: Pencil2P) -> Matrix:
    """box_add_pencil by composition: the hstack of the six block columns
    X1, X2+Y1, Y2, X3+Z1, Y3+Z2, Z3, each a submatrix or a sum of two."""
    x, y, z = pencil.lam_coeff, pencil.mu_coeff, pencil.const
    n = pencil.m // 3
    col = lambda m, j: m.submatrix(range(3 * n), range(j * n, (j + 1) * n))
    return Matrix.hstack(
        [
            col(x, 0),
            col(x, 1) + col(y, 0),
            col(y, 1),
            col(x, 2) + col(z, 0),
            col(y, 2) + col(z, 1),
            col(z, 2),
        ]
    )


def ansatz_row(v, row: Matrix) -> Matrix:
    """v kron [A20 A11 A02 A10 A01 A00] for row the coefficient row of Q,
    the box-add of a member with ansatz v: block row i is v_i times row,
    written as one integer form by gaussint.kron, the rows that
    generate_member writes its ansatz part with."""
    v_den, v_num = gaussint.from_scalars(GaussianRational.coerce(c) for c in v)
    den, data = row.integer_form()
    return Matrix.from_integer_form(v_den * den, gaussint.kron([(w,) for w in v_num], data))


def reference_standard_blocks(q: QuadPoly2P) -> FreeBlocks:
    """standard_blocks by composition: Y1 = 0, Z1 = [A10; 0; -I] and
    Z2 = [A01; -I; 0], each a vstack with a negated identity."""
    n = q.n
    eye, zero = Matrix.identity(n), Matrix.zeros(n, n)
    return FreeBlocks(
        n,
        Matrix.zeros(3 * n, n),
        Matrix.vstack([q.a10, zero, -eye]),
        Matrix.vstack([q.a01, -eye, zero]),
    )


def ansatz_target(q: QuadPoly2P, v) -> PolyMatrix:
    """The 3n x n polynomial matrix v kron Q(lam,mu)."""
    v_col = Matrix.column(v)
    return PolyMatrix.from_coefficients(
        3 * q.n, q.n, {mono: kron(v_col, c) for mono, c in q.as_polymatrix().terms()}
    )


def complex_coeffs(p: UniPoly) -> list[complex]:
    """The coefficients of p as complex floats, each the float of its exact value."""
    return gaussint.to_complex(*p.integer_form())


def example_quad(n: int = 2) -> QuadPoly2P:
    """A fixed concrete quadratic used for the worked-example tests."""
    if n == 1:
        return QuadPoly2P.scalar(a20=2, a11=1, a02=-1, a10=3, a01=-2, a00=1)
    if n == 2:
        return QuadPoly2P(
            2,
            Matrix([[1, 2], [0, 1]]),
            Matrix([[0, 1], [1, 0]]),
            Matrix([[2, 0], [1, 1]]),
            Matrix([[1, 0], [2, 1]]),
            Matrix([[0, 2], [1, 3]]),
            Matrix([[3, 1], [0, 2]]),
        )
    raise ValueError("example fixtures exist for n = 1 and n = 2 only")


def worked_example_blocks(q: QuadPoly2P) -> FreeBlocks:
    """The free blocks that generate the worked (1,1,2)-ansatz member:
    Y1 = [-A20; -A00+A11; A02], Z1 = [-A01; A10; -I+2A10], Z2 = [0; A01; A01]."""
    n = q.n
    eye = Matrix.identity(n)
    return FreeBlocks(
        n,
        Matrix.vstack([-q.a20, -q.a00 + q.a11, q.a02]),
        Matrix.vstack([-q.a01, q.a10, -eye + q.a10.scale(2)]),
        Matrix.vstack([Matrix.zeros(n, n), q.a01, q.a01]),
    )


def worked_example_pencil(q: QuadPoly2P):
    """The worked (1,1,2)-ansatz member written out entry-for-entry.

    This is an independent oracle: the nine blocks of each coefficient are
    spelled out rather than generated, so generate_member can be checked
    against it.
    """
    from pencilspace import Pencil2P

    n = q.n
    eye = Matrix.identity(n)
    zero = Matrix.zeros(n, n)
    two = lambda m: m.scale(2)
    a1 = Matrix.from_blocks(
        [
            [q.a20, q.a11 + q.a20, q.a10 + q.a01],
            [q.a20, q.a00, zero],
            [two(q.a20), two(q.a11) - q.a02, eye],
        ]
    )
    a2 = Matrix.from_blocks(
        [
            [-q.a20, q.a02, q.a01],
            [q.a11 - q.a00, q.a02, zero],
            [q.a02, two(q.a02), q.a01],
        ]
    )
    a3 = Matrix.from_blocks(
        [
            [-q.a01, zero, q.a00],
            [q.a10, q.a01, q.a00],
            [-eye + two(q.a10), q.a01, two(q.a00)],
        ]
    )
    return Pencil2P(3 * n, a1, a2, a3)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def bareiss_calls(monkeypatch):
    """[rows, pivots] of every Bareiss elimination run after the fixture."""
    from pencilspace import matrices

    real = matrices._bareiss_pivots
    calls = []

    def counting(a, cols):
        calls.append([len(a), 0])
        for pivot in real(a, cols):
            calls[-1][1] += 1
            yield pivot

    monkeypatch.setattr(matrices, "_bareiss_pivots", counting)
    return calls


@pytest.fixture
def polymatrix_products(monkeypatch):
    """The (left, right) operands of every PolyMatrix product formed after the
    fixture."""
    real = PolyMatrix.__matmul__
    calls = []

    def counting(left, right):
        calls.append((left, right))
        return real(left, right)

    monkeypatch.setattr(PolyMatrix, "__matmul__", counting)
    return calls
