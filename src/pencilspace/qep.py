"""Quadratic two-parameter eigenvalue problems at desk scale.

A system is a pair of quadratics (Q1, Q2); its spectrum is the set of
common zeros of the two determinant polynomials, bounded by Bezout's count
4*n1*n2 in the generic case.  Linearizing each component with an
alpha*e1-ansatz member yields a pair of 3n x 3n pencils whose operator
determinants (Delta0, Delta1, Delta2) couple the problem into generalized
eigenvalue equations Delta1 z = lam Delta0 z, Delta2 z = mu Delta0 z --
but Delta0 is always exactly singular for this class, so spectra here are
computed by resultants plus root iteration and the Delta equations are
verified on known eigenpairs instead of solved.

A spectrum runs in two stages.  The exact stage, ``_exact_stage``, shears
lam to x = lam + t*mu for the first t = 0, 1, ... at which the first
subresultant S1 = s1(x)*mu + s0(x) of the determinants in mu exists and
gcd(s1, R) = 1 is proved, R the square-free part of their resultant; only
a common zero singular on both determinant curves defeats every t, and its
docstring bounds the loop and proves it.  It runs no float code.  The float
stage, ``_float_stage``, runs one root iteration on R: each x root carries
exactly one common mu, -s0(x)/s1(x), which two Newton steps polish, and
lam = x - t*mu; a residual filter and a sort give the points.  It calls
no code of the exact stage, so either stage can change alone.  A certified
``compare`` (``verify_spectral_equality``) runs the exact stage once per
system: det L_i = c_i*det Q_i for constants c_i, so sigma_L's stage is
sigma_Q's scaled by homogeneity (``_scaled_stage``), and only the float
stage runs twice.

Why Delta0 = B1 kron C2 - C1 kron B2 is singular: in an alpha*e1 member
with Y21 = Y31 = 0, the lower 2n block rows of the lam and mu
coefficients (A1 and A2 in the member layout) are nonzero only in block
column 3.  So the 2*n1*m2 rows of Delta0 that are lower in the first
factor are nonzero only in the n1*m2 columns that are block column 3
there, and are linearly dependent (the second factor alike).  The verdict
reads exactly that: ``delta0_singularity`` returns det Delta0 = 0 when
either pencil's lam and mu coefficients vanish on their lower-left
2n x 2n blocks, with no 9*n1*n2 operator formed; every pencil that
``linearize_system`` certifies has them.  Any other pair forms Delta0, and
``Matrix.det`` decides it.

``verify_eigenpair`` forms its six residuals as Gaussian-integer numerator
vectors over one denominator each, and reads exact zeros off the
numerators.  Only a residual that is not exactly zero reads its norm and
scale, off the same integer forms: the entries of Q_i(lam,mu), L_i(lam,mu),
Delta1 or Delta2 as numerators, with no Matrix and no operator formed.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

from . import gaussint, roots
from .bipoly import BiPoly, UniPoly
from .construct import LinearizationCertificate, _scaled_e1_pair
from .errors import HypothesisViolatedError, NonGenericSystemError, ShapeError
from .gaussint import Pair, combine, matvec, mul, power
from .matrices import Matrix, kron
from .pencil import COEFF_MONOMIALS, Pencil2P, QuadPoly2P, QuadSystem2P
from .polymatrix import exact_det_poly
from .roots import newton_steps, unipoly_roots
from .resultants import first_subresultant
from .scalars import ONE, GaussianRational, ScalarLike
from .space import FreeBlocks, generate_member, standard_blocks, zero_lower_left

DEFAULT_SPECTRUM_TOL = 1e-9


class LinearSystem2P(NamedTuple):
    """A pair of certified pencils linearizing a system, with their ansatz
    scalars alpha1, alpha2 (ansatz vectors alpha_i * e1)."""

    l1: Pencil2P
    l2: Pencil2P
    alpha1: GaussianRational
    alpha2: GaussianRational
    cert1: LinearizationCertificate
    cert2: LinearizationCertificate


class DeltaOps(NamedTuple):
    """The operator-determinant triple of a linearized system."""

    delta0: Matrix
    delta1: Matrix
    delta2: Matrix


class SingularityReport(NamedTuple):
    det0: GaussianRational
    singular: bool


class SpectrumPoint(NamedTuple):
    lam: complex
    mu: complex
    residual: float


class SpectrumReport(NamedTuple):
    """Finite common zeros of a determinant pair, sorted lexicographically."""

    points: tuple[SpectrumPoint, ...]
    bezout_bound: int


def linearize_system(
    system: QuadSystem2P,
    alpha1: ScalarLike = 1,
    alpha2: ScalarLike = 1,
    blocks1: Optional[FreeBlocks] = None,
    blocks2: Optional[FreeBlocks] = None,
) -> LinearSystem2P:
    """Linearize both components with ansatz alpha_i * e1 and certify them.

    Blocks default to the standard-linearization choice per component.
    Violated certificate hypotheses (Y1 = [Y11; 0; 0], nonsingular lower
    Z block) raise HypothesisViolatedError naming the component.  det Z
    is the blocks' kept _lower_z_det, taken once if a draw took it.
    """
    alpha1 = GaussianRational.coerce(alpha1)
    alpha2 = GaussianRational.coerce(alpha2)
    pencils = []
    certs = []
    for q, alpha, blocks, label in (
        (system.q1, alpha1, blocks1, "component 1"),
        (system.q2, alpha2, blocks2, "component 2"),
    ):
        if blocks is None:
            blocks = standard_blocks(q)
        pencil = generate_member(q, (alpha, 0, 0), blocks)
        try:
            certs.append(_scaled_e1_pair(pencil, q, alpha, blocks._lower_z_det))
        except HypothesisViolatedError as exc:
            raise HypothesisViolatedError(f"{label}: {exc}") from exc
        pencils.append(pencil)
    return LinearSystem2P(pencils[0], pencils[1], alpha1, alpha2, certs[0], certs[1])


def delta_operators(lin: LinearSystem2P) -> DeltaOps:
    """The exact Kronecker combinations of the pencil coefficients.

    With L_i = A^(i) + lam B^(i) + mu C^(i) (constant, lam, mu coefficients):
      Delta0 = B1 kron C2 - C1 kron B2
      Delta1 = C1 kron A2 - A1 kron C2
      Delta2 = A1 kron B2 - B1 kron A2
    Each is square of size 3n1 * 3n2.
    """
    (a1, b1, c1), (a2, b2, c2) = _coefficients(lin.l1), _coefficients(lin.l2)
    return DeltaOps(
        kron(b1, c2) - kron(c1, b2), kron(c1, a2) - kron(a1, c2), kron(a1, b2) - kron(b1, a2)
    )


def delta0_operator(lin: LinearSystem2P) -> Matrix:
    """Delta0 = B1 kron C2 - C1 kron B2 alone, all the singularity verdict
    reads."""
    return kron(lin.l1.lam_coeff, lin.l2.mu_coeff) - kron(lin.l1.mu_coeff, lin.l2.lam_coeff)


def singularity_check(delta0: Matrix) -> SingularityReport:
    """Exact singularity verdict on Delta0 (fraction-free determinant)."""
    det0 = delta0.det()
    return SingularityReport(det0=det0, singular=not det0)


def delta0_singularity(lin: LinearSystem2P) -> SingularityReport:
    """``singularity_check(delta0_operator(lin))``, read off the factors
    where their zero blocks decide it.

    Where the lam and mu coefficients of L1 (of size 3n1) vanish on their
    lower-left 2n1 x 2n1 blocks, the 2n1*m2 rows of Delta0 = B1 kron C2 -
    C1 kron B2 that are lower in the first factor are nonzero only in the
    n1*m2 columns that are block column 3 there, so they are linearly
    dependent and det Delta0 = 0 exactly; L2 alike.  Any other pair forms
    Delta0 and ``Matrix.det`` decides it.
    """
    if zero_lower_left(lin.l1) or zero_lower_left(lin.l2):
        return SingularityReport(det0=GaussianRational(0), singular=True)
    return singularity_check(delta0_operator(lin))


def _common_zeros(f: BiPoly, g: BiPoly, bound: int, tol: float) -> SpectrumReport:
    """Finite common zeros of two determinant polynomials f and g: the
    float stage on what the exact stage proves."""
    return SpectrumReport(points=_float_stage(_exact_stage(f, g), f, g, tol), bezout_bound=bound)


class _ExactStage(NamedTuple):
    """What ``_exact_stage`` proves of f and g: the shear t, the square-free
    part R* of the resultant in mu of f_t and g_t, and their first
    subresultant S1 = s1(x)·mu + s0(x) with gcd(s1, R*) = 1.  square_free,
    s1 and s0 are None when f and g have no finite common zero."""

    t: int
    square_free: Optional[UniPoly]
    s1: Optional[UniPoly]
    s0: Optional[UniPoly]


def _exact_stage(f: BiPoly, g: BiPoly) -> _ExactStage:
    """The first t = 0, 1, ... at which, with f_t(x, mu) = f(x - t*mu, mu)
    and g_t alike, the first subresultant S1 = s1(x)·mu + s0(x) of f_t and
    g_t in mu exists and gcd(s1, R*) = 1 is proved, R* the square-free part
    of their resultant (mod p, else by the PRS).  Each root x0 of R* then
    has exactly one common mu, -s0(x0)/s1(x0), so f and g have at most
    deg R* <= d_f·d_g finite common zeros, d_f and d_g the total degrees.

    The loop's bound.  A t >= 1 is tried only where the leading
    mu-coefficients of f_t and g_t are constants, which fails only where a
    top-degree form vanishes at (-t, 1): for d_f + d_g values of t at most.
    There R has no root at infinity, its roots are the x of the
    N <= d_f·d_g common zeros, and S1 specializes, so s1(x0) = 0 iff
    f_t(x0, mu) and g_t(x0, mu) share a factor of degree 2 or more.  Then
    two zeros share x0 (for N(N-1)/2 values of t at most), or the line
    x = x0 is tangent to both curves at the zero over it, which a curve
    smooth there allows for one t at most (N values).  If every
    t <= T + 1, T the sum of these counts, fails, a common zero is
    singular on both curves.
    """
    if f.is_zero() or g.is_zero():
        raise NonGenericSystemError("a determinant polynomial is identically zero")
    # f and g have finitely many common zeros iff they share no factor: the
    # resultant below sees factors involving mu, the lam-contents the rest.
    f_mu = f.coeffs_in("mu")
    g_mu = g.coeffs_in("mu")
    common = _lam_gcd(f_mu + g_mu)
    if common.degree() >= 1:
        raise NonGenericSystemError(f"determinants share the factor {common}, free of mu")
    if len(f_mu) == 1 and len(g_mu) == 1:
        # Coprime and both free of mu: no common zero.
        return _ExactStage(0, None, None, None)
    d_f, d_g = (max(map(sum, p.integer_form()[1])) for p in (f, g))
    zeros = d_f * d_g
    last = d_f + d_g + zeros + zeros * (zeros - 1) // 2 + 1
    for t in range(last + 1):
        f_t, g_t = _shear(f, t), _shear(g, t)
        if t and not all(p.coeffs_in("mu")[-1].is_constant() for p in (f_t, g_t)):
            continue
        resultant, s1, s0 = first_subresultant(f_t, g_t, "mu")
        if resultant.is_zero():
            raise NonGenericSystemError(
                "resultant vanishes identically (common factor: infinitely many zeros)"
            )
        if resultant.degree() < 1:
            return _ExactStage(t, None, None, None)
        # The square-free part has the same roots without multiplicity, so
        # the simultaneous iteration never stalls on repeated-root clusters.
        square_free = resultant.square_free_part()
        if s1 is not None and square_free.is_coprime(s1):
            return _ExactStage(t, square_free, s1, s0)
    raise NonGenericSystemError(
        f"a common zero is singular on both determinant curves "
        f"(no x = lam + t*mu with t <= {last} separates the common zeros)"
    )


def _float_stage(
    stage: _ExactStage, f: BiPoly, g: BiPoly, tol: float
) -> tuple[SpectrumPoint, ...]:
    """The common zeros of f and g that stage proves, in floats, sorted
    lexicographically: each root x0 of R* with mu0 = -s0(x0)/s1(x0) after
    two Newton steps on f_t(x0, mu) (f itself at t = 0) and lam0 =
    x0 - t*mu0, kept when its residuals against f and g pass."""
    if stage.square_free is None:
        return ()
    t = stage.t
    f_t = _shear(f, t)
    mu_at = _mu_from_subresultant(stage.s1, stage.s0)
    f_t_mu = f_t.coeffs_in("mu")
    scale_t, scale_f, scale_g = (1.0 + p.max_abs_coeff() for p in (f_t, f, g))
    points: list[SpectrumPoint] = []
    for x0 in unipoly_roots(stage.square_free, tol=min(tol, roots.DEFAULT_TOL)):
        mu0 = mu_at(x0)
        if mu0 is None:
            raise OverflowError(f"s1 is proved nonzero at the root x = {x0}, but reads 0 in floats")
        values = [c.eval_complex(x0, 0.0) for c in f_t_mu]
        while values and abs(values[-1]) <= 1e-12 * scale_t:
            values.pop()
        if len(values) >= 2:
            mu0 = newton_steps(values, mu0, 2)
        lam0 = x0 - t * mu0 if t else x0
        res = max(
            abs(f.eval_complex(lam0, mu0)) / scale_f,
            abs(g.eval_complex(lam0, mu0)) / scale_g,
        )
        if res < tol:
            points.append(SpectrumPoint(lam0, mu0, res))
    points.sort(key=lambda p: (p.lam.real, p.lam.imag, p.mu.real, p.mu.imag))
    return tuple(points)


def _shear(p: BiPoly, t: int) -> BiPoly:
    """p(x - t*mu, mu), exactly, with x in the lam slot."""
    if not t:
        return p
    x = BiPoly.lam() - t * BiPoly.mu()
    out = BiPoly.zero()
    for c in reversed(p.coeffs_in("lam")):
        out = out * x + c
    return out


def _mu_from_subresultant(s1: UniPoly, s0: UniPoly):
    """The float map lam -> -s0(lam)/s1(lam), None where s1(lam) reads 0.

    Both numerators are brought over one denominator and scaled by one
    power of two, so that the largest coefficient is near 1 and none
    overflows; the scale cancels in the ratio.
    """
    d1, n1 = s1.integer_form()
    d0, n0 = s0.integer_form()
    n1 = [(re * d0, im * d0) for re, im in n1]
    n0 = [(-re * d1, -im * d1) for re, im in n0]
    bits = max(max(abs(re), abs(im)).bit_length() for re, im in n1 + n0)
    c1, c0 = (gaussint.to_complex(1 << bits, nums) for nums in (n1, n0))

    def at(lam: complex) -> complex | None:
        den = num = 0j
        for c in reversed(c1):
            den = den * lam + c
        for c in reversed(c0):
            num = num * lam + c
        return num / den if den else None

    return at


def _lam_gcd(coeffs: list[BiPoly]) -> UniPoly:
    """The monic gcd of lam-polynomials, not all zero (1 at once for a nonzero constant)."""
    if any(c.is_constant() and not c.is_zero() for c in coeffs):
        return UniPoly([1], var="lam")
    common = UniPoly([], var="lam")
    for c in coeffs:
        common = common.gcd(UniPoly.from_bipoly(c, "lam"))
    return common


def spectrum_quadratic(
    system: QuadSystem2P, tol: float = DEFAULT_SPECTRUM_TOL
) -> SpectrumReport:
    """The spectrum {(lam, mu) : det Q1 = det Q2 = 0} with bound 4*n1*n2.

    Each det Q_i is the quadratic's ``det_poly``, computed once per
    quadratic.
    """
    return _common_zeros(system.q1.det_poly, system.q2.det_poly, system.bezout_bound, tol)


def spectrum_pencil(
    lin: LinearSystem2P, tol: float = DEFAULT_SPECTRUM_TOL
) -> SpectrumReport:
    """The spectrum {(lam, mu) : det L1 = det L2 = 0} with bound m1*m2.

    Each det L_i is read off its certificate where that certificate is a
    verified unimodular pair for L_i itself: F_i L_i E_i = diag(Q_i, I_2n)
    gives det L_i = det Q_i / (det E_i * det F_i), one scaling of the
    n x n determinant of the certificate's own Q_i.  Any other component
    (a pencil paired with a certificate for another pencil, or a det-ratio
    certificate) has its 3n x 3n determinant expanded by exact_det_poly.
    Both routes give the one canonical det L_i.  A certified
    ``verify_spectral_equality`` gets the same report without this call.
    """
    return _common_zeros(
        _pencil_det(lin.l1, lin.cert1), _pencil_det(lin.l2, lin.cert2), lin.l1.m * lin.l2.m, tol
    )


def _pencil_det(pencil: Pencil2P, cert: LinearizationCertificate) -> BiPoly:
    """det L for the pencil L, read off cert when it certifies L as a
    unimodular pair, else expanded."""
    c = _certified_scale(pencil, cert)
    if c is None:
        return exact_det_poly(pencil.as_polymatrix())
    return cert.quadratic.det_poly * c


def _certified_scale(
    pencil: Pencil2P, cert: LinearizationCertificate
) -> Optional[GaussianRational]:
    """c = 1 / (det E * det F), so that det L = c * det Q for cert's
    quadratic Q, when cert is a verified unimodular pair for the pencil L;
    None otherwise."""
    if cert.kind == "unimodular-pair" and cert.verified and cert.pencil == pencil:
        return ONE / (cert.det_e * cert.det_f)
    return None


def _scaled_stage(
    stage: _ExactStage, f: BiPoly, g: BiPoly, c1: GaussianRational, c2: GaussianRational
) -> _ExactStage:
    """``_exact_stage(c1*f, c2*g)`` read off stage = ``_exact_stage(f, g)``
    for nonzero constants c1 and c2, with no ``first_subresultant`` call.

    Every test of the exact stage is unchanged by nonzero constant factors:
    the monic lam-gcd, constant leading mu-coefficients (the shear of c*f is
    c times the shear of f), Res != 0, deg Res >= 1 and gcd(s1, R*) = 1.  So
    the t is the same.  With m = deg_mu f_t and n = deg_mu g_t, the
    Sylvester matrix has n rows of f and m rows of g, so Res scales by
    c1^n * c2^m; each j = 1 minor has one row fewer of each, so s1 and s0
    scale by c1^(n-1) * c2^(m-1), and by c2 when m = n = 1, where they are
    g's own coefficients.  Either route of ``square_free_part`` gives
    p / monic(gcd(p, p')) (p itself when p is square-free), which is
    homogeneous in p, so R* scales as Res.  A stage without finite common
    zeros is the same stage.
    """
    if stage.square_free is None:
        return stage
    m, n = (_shear(p, stage.t).degree_in("mu") for p in (f, g))
    minor = c2 if m == n == 1 else c1 ** (n - 1) * c2 ** (m - 1)
    return _ExactStage(
        stage.t,
        _scaled(stage.square_free, c1**n * c2**m),
        _scaled(stage.s1, minor),
        _scaled(stage.s0, minor),
    )


def _scaled(p: UniPoly, c: GaussianRational) -> UniPoly:
    """c * p, exactly."""
    return UniPoly.from_bipoly(p.to_bipoly() * c, p.var)


class SpectralMatchReport(NamedTuple):
    """Bidirectional matching of the quadratic and pencil spectra."""

    sigma_q: SpectrumReport
    sigma_l: SpectrumReport
    unmatched_q: tuple[SpectrumPoint, ...]
    unmatched_l: tuple[SpectrumPoint, ...]
    equal: bool


def verify_spectral_equality(
    system: QuadSystem2P, lin: LinearSystem2P, tol: float = DEFAULT_SPECTRUM_TOL
) -> SpectralMatchReport:
    """Match the two finite spectra within tolerance 10*tol per coordinate.

    sigma_Q comes from f = det Q1 and g = det Q2 of the system's
    quadratics, sigma_L from det L_i of lin's pencils.  The exact stage
    runs once, on f and g.  Where both certificates are verified unimodular
    pairs for lin's own pencils and certify the system's own quadratics
    (lin built by ``linearize_system`` from this system), F_i L_i E_i =
    diag(Q_i, I) gives det L1 = c1*f and det L2 = c2*g with the constants
    c_i = 1 / (det E_i * det F_i).  sigma_L's stage is then sigma_Q's,
    scaled by homogeneity (``_scaled_stage`` derives it): the t, R* and
    (s1, s0) that ``_exact_stage(c1*f, c2*g)`` proves, so sigma_L is
    ``spectrum_pencil(lin, tol)`` point for point.  Any other lin takes
    ``spectrum_pencil`` and its own exact stage.  The root iteration runs
    once per spectrum either way.  Certified linearizations must leave both
    unmatched lists empty.
    """
    f, g = system.q1.det_poly, system.q2.det_poly
    stage = _exact_stage(f, g)
    sigma_q = SpectrumReport(_float_stage(stage, f, g, tol), system.bezout_bound)
    c1, c2 = _certified_scale(lin.l1, lin.cert1), _certified_scale(lin.l2, lin.cert2)
    if (
        c1 is not None
        and c2 is not None
        and (lin.cert1.quadratic, lin.cert2.quadratic) == (system.q1, system.q2)
    ):
        points = _float_stage(_scaled_stage(stage, f, g, c1, c2), f * c1, g * c2, tol)
        sigma_l = SpectrumReport(points, lin.l1.m * lin.l2.m)
    else:
        sigma_l = spectrum_pencil(lin, tol)

    available = list(sigma_l.points)
    unmatched_q = []
    for point in sigma_q.points:
        near = (max(abs(p.lam - point.lam), abs(p.mu - point.mu)) < 10 * tol for p in available)
        hit = next((k for k, close in enumerate(near) if close), None)
        if hit is None:
            unmatched_q.append(point)
        else:
            available.pop(hit)
    return SpectralMatchReport(
        sigma_q=sigma_q,
        sigma_l=sigma_l,
        unmatched_q=tuple(unmatched_q),
        unmatched_l=tuple(available),
        equal=not unmatched_q and not available,
    )


class ResidualCheck(NamedTuple):
    """One residual of the eigenpair verification.

    For exact rational inputs the computation is exact, so ``exact_zero``
    is decisive; ``norm`` is the float magnitude for display, and ``passed``
    compares it against tol times the check's scale (scale = (1 + largest
    entry of the evaluated operator) * max(1, largest entry of the vector)).
    """

    name: str
    norm: float
    exact_zero: bool
    passed: bool


class EigenpairReport(NamedTuple):
    checks: tuple[ResidualCheck, ...]
    passed: bool


# A column as its integer form: a positive denominator, not necessarily
# reduced, over the (re, im) numerator pairs of its entries.
_Column = tuple[int, list[Pair]]


def _entries(matrices: Sequence[Matrix]) -> tuple[int, list[list[Pair]]]:
    """The entries of each matrix, row after row, as numerators over the lcm
    of the matrices' denominators."""
    den, forms = gaussint.aligned([m.integer_form() for m in matrices])
    return den, [list(chain.from_iterable(rows)) for rows in forms]


def _residual(
    name: str, value: _Column, operands: Callable[[], tuple[_Column, _Column]], tol: float
) -> ResidualCheck:
    """The check of a residual vector, read off its numerators.  Only when
    it is not exactly zero is operands() called, for the operator's entries
    and the vector that give the scale.  An exact zero passes against every
    scale, since a scale is at least 1: 0 < tol * scale exactly when 0 < tol."""
    if not any(re or im for re, im in value[1]):
        return ResidualCheck(name=name, norm=0.0, exact_zero=True, passed=0.0 < tol)
    norm = gaussint.max_abs(*value)
    operator, vector = operands()
    scale = (1.0 + gaussint.max_abs(*operator)) * max(1.0, gaussint.max_abs(*vector))
    return ResidualCheck(name=name, norm=norm, exact_zero=False, passed=norm < tol * scale)


def _coefficients(pencil: Pencil2P) -> tuple[Matrix, Matrix, Matrix]:
    """(A, B, C): the constant, lam and mu coefficients of pencil."""
    return pencil.const, pencil.lam_coeff, pencil.mu_coeff


def _kron_numerators(
    x1: list[Pair], y1: list[Pair], x2: list[Pair], y2: list[Pair]
) -> list[Pair]:
    """The numerators of x1 kron y2 - y1 kron x2 for numerator vectors."""
    out = []
    for (a, b), (c, d) in zip(x1, y1):
        for (e, f), (g, h) in zip(y2, x2):
            out.append((a * e - b * f - c * g + d * h, a * f + b * e - c * h - d * g))
    return out


def _products(matrices: Sequence[Matrix], column: _Column) -> tuple[int, list[list[Pair]]]:
    """The numerators of each matrix @ column over one denominator: each
    product is formed on its matrix's stored form, past its zero
    entries, and only the products are brought to the lcm of the matrices'
    denominators."""
    den, products = gaussint.aligned(
        [(m_den, (matvec(rows, column[1]),)) for m_den, rows in map(Matrix._stored_form, matrices)]
    )
    return den * column[0], [p[0] for p in products]


def verify_eigenpair(
    system: QuadSystem2P,
    lin: LinearSystem2P,
    lam: ScalarLike,
    mu: ScalarLike,
    x1: Matrix,
    x2: Matrix,
    tol: float = DEFAULT_SPECTRUM_TOL,
) -> EigenpairReport:
    """Check a claimed eigenpair through every layer, exactly.

    Verifies Q_i(lam,mu) x_i = 0, L_i(lam,mu) w_i = 0 for w_i the stacked
    (lam x_i, mu x_i, x_i), and the coupled equations
    Delta1 z = lam Delta0 z, Delta2 z = mu Delta0 z for z = w1 kron w2.

    No operator is formed, and no Matrix either: each residual is a vector
    of Gaussian-integer numerators over one denominator, with lam = l/d and
    mu = m/d.  Q_i(lam,mu) x_i is the sum of lam^a mu^b (A_ab x_i) over the
    six n x n coefficients of Q_i.  With A_i, B_i, C_i the constant, lam and
    mu coefficients of L_i, six 3n x 3n products give the rest:
    L_i(lam,mu) w_i = lam B_i w_i + mu C_i w_i + A_i w_i, and, by the
    mixed-product rule (X kron Y)(w1 kron w2) = (X w1) kron (Y w2),
    Delta1 - lam Delta0 = C1 kron (A2 + lam B2) - (A1 + lam B1) kron C2 and
    Delta2 - mu Delta0 = (A1 + mu C1) kron B2 - B1 kron (A2 + mu C2)
    applied to z.  The exact-zero test reads the numerators.  Norm and
    scale are read, off integer forms too, only for a residual that is not
    exactly zero: Q_i(lam,mu) and L_i(lam,mu) are the same sums over the
    coefficients' entries, and the Kronecker differences of the flattened
    coefficients hold exactly the entries of Delta1 and Delta2.
    """
    lam = GaussianRational.coerce(lam)
    mu = GaussianRational.coerce(mu)
    for x, q, label in ((x1, system.q1, "x1"), (x2, system.q2, "x2")):
        if x.cols != 1 or x.rows != q.n:
            raise ShapeError(f"{label} must be a {q.n} x 1 column")
        if x.is_zero():
            raise ValueError(f"{label} must be nonzero")
    # lam = l/d and mu = m/d for Gaussian integers l and m; dd is d in Z[i].
    d, (l, m) = gaussint.from_scalars((lam, mu))
    dd = (d, 0)

    # lam^a mu^b = l^a m^b d^(2-a-b) / d^2, for the coefficients of a quadratic
    weights = [mul(mul(power(l, a), power(m, b)), power(dd, 2 - a - b)) for a, b in COEFF_MONOMIALS]

    def quadratic(den: int, vectors: list[list[Pair]]) -> _Column:
        """sum lam^a mu^b V_ab over the six vectors V_ab, over den."""
        return d * d * den, combine(zip(weights, vectors))

    def linear(den: int, vectors: list[list[Pair]]) -> _Column:
        """A + lam B + mu C for the vectors (A, B, C) over den."""
        return d * den, combine(zip((dd, l, m), vectors))

    def quadratic_check(k: int, q: QuadPoly2P, y: _Column) -> ResidualCheck:
        """Q_k(lam,mu) x_k for y the column form of x_k."""
        value = quadratic(*_products(q.coefficients(), y))
        operands = lambda: (quadratic(*_entries(q.coefficients())), y)
        return _residual(f"Q{k}(lam,mu) x{k}", value, operands, tol)

    def pencil_check(k: int, pencil: Pencil2P, products, w: _Column) -> ResidualCheck:
        """L_k(lam,mu) w_k from the products (A_k w_k, B_k w_k, C_k w_k)."""
        value = linear(*products)
        operands = lambda: (linear(*_entries(_coefficients(pencil))), w)
        return _residual(f"L{k}(lam,mu) w{k}", value, operands, tol)

    def delta_operands(k: int) -> tuple[_Column, _Column]:
        """Delta1 = C1 kron A2 - A1 kron C2 (k = 1) or Delta2 = A1 kron B2 -
        B1 kron A2 (k = 2), and z = w1 kron w2."""
        pencils = (_entries(_coefficients(p)) for p in (lin.l1, lin.l2))
        (e1, (a1, b1, c1)), (e2, (a2, b2, c2)) = pencils
        delta = _kron_numerators(c1, a1, c2, a2) if k == 1 else _kron_numerators(a1, b1, a2, b2)
        return (e1 * e2, delta), (w1[0] * w2[0], gaussint.kron([w1[1]], [w2[1]])[0])

    y1, y2 = ((den, [p for (p,) in rows]) for den, rows in (x1.integer_form(), x2.integer_form()))
    # w_i = (lam x_i, mu x_i, x_i) = (l, m, d) kron x_i over d
    w1, w2 = ((d * y[0], gaussint.kron([(l, m, dd)], [y[1]])[0]) for y in (y1, y2))
    p1, p2 = _products(_coefficients(lin.l1), w1), _products(_coefficients(lin.l2), w2)
    (den1, (a1, b1, c1)), (den2, (a2, b2, c2)) = p1, p2
    # (A_i + lam B_i) w_i and (A_i + mu C_i) w_i, over d * den_i
    lam_a1, lam_a2 = (combine(((dd, a), (l, b))) for a, b in ((a1, b1), (a2, b2)))
    mu_a1, mu_a2 = (combine(((dd, a), (m, c))) for a, c in ((a1, c1), (a2, c2)))
    delta1_z = d * den1 * den2, _kron_numerators(c1, lam_a1, c2, lam_a2)
    delta2_z = d * den1 * den2, _kron_numerators(mu_a1, b1, mu_a2, b2)
    checks = (
        quadratic_check(1, system.q1, y1),
        quadratic_check(2, system.q2, y2),
        pencil_check(1, lin.l1, p1, w1),
        pencil_check(2, lin.l2, p2, w2),
        _residual("Delta1 z - lam Delta0 z", delta1_z, lambda: delta_operands(1), tol),
        _residual("Delta2 z - mu Delta0 z", delta2_z, lambda: delta_operands(2), tol),
    )
    return EigenpairReport(checks=checks, passed=all(c.passed for c in checks))
