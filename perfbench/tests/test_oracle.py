"""sympy cross-checks of the exact kernels on benchmark-generated instances."""

import random

import pytest

import workloads

sympy = pytest.importorskip("sympy")

from pencilspace import serialization as ser  # noqa: E402
from pencilspace.polymatrix import exact_det_poly  # noqa: E402
from pencilspace.resultants import sylvester_resultant  # noqa: E402

LAM, MU = sympy.symbols("lam mu")


def _quad(seed, n, complex_prob=0.25):
    rng = random.Random(seed)
    return ser.parse_problem(workloads.dumps(workloads.problem_doc(workloads.rand_quad(rng, n, complex_prob))))


def _sym(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def _bipoly_to_sympy(p):
    return sympy.expand(sum(_sym(c) * LAM**i * MU**j for (i, j), c in p.terms()))


@pytest.mark.parametrize("seed,n", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_exact_det_poly_matches_sympy(seed, n):
    pm = _quad(seed, n).as_polymatrix()
    ours = _bipoly_to_sympy(exact_det_poly(pm))
    theirs = sympy.Matrix(n, n, lambda i, j: _bipoly_to_sympy(pm[i, j])).det(method="berkowitz")
    assert sympy.expand(ours - theirs) == 0


@pytest.mark.parametrize("seed,n1,n2", [(5, 1, 1), (6, 1, 2), (7, 2, 1)])
def test_sylvester_resultant_matches_sympy(seed, n1, n2):
    f = exact_det_poly(_quad(seed, n1).as_polymatrix())
    g = exact_det_poly(_quad(seed + 100, n2).as_polymatrix())
    ours = sylvester_resultant(f, g, "mu")
    ours_sym = sympy.expand(sum(_sym(c) * LAM**k for k, c in enumerate(ours.coeffs)))
    theirs = sympy.resultant(_bipoly_to_sympy(f), _bipoly_to_sympy(g), MU)
    assert sympy.expand(ours_sym - theirs) == 0
