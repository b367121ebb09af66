"""Exact polynomials in the two spectral parameters, stored on integers.

A bivariate polynomial is stored in the integer form of ``gaussint``: one
denominator plus a dict mapping exponent pairs (i, j) for the monomial
lam^i * mu^j to the (re, im) numerators of its nonzero coefficients; the
zero polynomial is the empty dict over 1.  ``UniPoly``, the single-variable
carrier used for resultants, is one denominator over an ascending numerator
tuple whose last entry (the leading coefficient) is nonzero unless the
polynomial is zero.

All arithmetic runs on ints.  ``GaussianRational`` appears only where
coefficients come in or go out: the constructors, ``terms``, ``coeffs``,
``constant_value``, ``leading`` and exact ``eval`` at a point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from . import gaussint
from .errors import DegreeError
from .gaussint import _SQRT_MINUS_ONE, SQUARE_FREE_PRIME, Pair, image_mod_p
from .scalars import GaussianRational, ScalarLike

Exponent = Tuple[int, int]

LAM = "lam"
MU = "mu"
_VARS = (LAM, MU)


class BiPoly:
    """A polynomial in (lam, mu) over the Gaussian rationals."""

    __slots__ = ("_den", "_terms", "_floats")

    def __init__(self, terms: Mapping[Exponent, ScalarLike] | None = None):
        items = [
            ((int(i), int(j)), GaussianRational.coerce(c)) for (i, j), c in (terms or {}).items()
        ]
        den, pairs = gaussint.from_scalars(c for _, c in items)
        _init(self, {e: p for (e, _), p in zip(items, pairs) if p != (0, 0)}, den)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return _ZERO

    @staticmethod
    def constant(value: ScalarLike) -> "BiPoly":
        return BiPoly({(0, 0): value})

    @staticmethod
    def lam() -> "BiPoly":
        return _LAM

    @staticmethod
    def mu() -> "BiPoly":
        return _MU

    @staticmethod
    def from_integer_form(den: int, terms: Mapping[Exponent, Pair]) -> "BiPoly":
        """The polynomial sum terms[(i, j)] / den * lam^i mu^j, from (re, im)
        numerator pairs over a positive denominator; the inverse of
        ``integer_form``."""
        return _reduced({e: p for e, p in terms.items() if p != (0, 0)}, den)

    # -- inspection -------------------------------------------------------------

    def integer_form(self) -> tuple[int, Mapping[Exponent, Pair]]:
        """The common denominator and the map from each monomial to the
        (re, im) numerator pair of its nonzero coefficient (read-only)."""
        return self._den, self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise DegreeError("polynomial is not constant")
        return gaussint.to_scalar(self._den, self._terms.get((0, 0), (0, 0)))

    def terms(self) -> Iterator[Tuple[Exponent, GaussianRational]]:
        """Iterate terms in a deterministic (sorted) order."""
        for exponent in sorted(self._terms):
            yield exponent, gaussint.to_scalar(self._den, self._terms[exponent])

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        idx = _axis(var)
        return max((e[idx] for e in self._terms), default=-1)

    def max_abs_coeff(self) -> float:
        """Largest coefficient modulus as a float (for residual scales)."""
        return max((abs(c) for _, c in self._complex_terms()), default=0.0)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        return _combine(self, other, -1)

    def __neg__(self) -> "BiPoly":
        return _wrap({e: (-re, -im) for e, (re, im) in self._terms.items()}, self._den)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            out: Dict[Exponent, Pair] = {}
            for (i1, j1), (a, b) in self._terms.items():
                for (i2, j2), (c, d) in other._terms.items():
                    exp = (i1 + i2, j1 + j2)
                    re, im = a * c - b * d, a * d + b * c
                    acc = out.get(exp)
                    if acc is not None:
                        re, im = acc[0] + re, acc[1] + im
                    if re or im:
                        out[exp] = (re, im)
                    else:
                        out.pop(exp, None)
            return _reduced(out, self._den * other._den)
        if isinstance(other, (int, Fraction, GaussianRational)):
            s_den, (s,) = gaussint.from_scalars([GaussianRational.coerce(other)])
            if s == (0, 0):
                return _ZERO
            terms = {e: gaussint.mul(pair, s) for e, pair in self._terms.items()}
            return _reduced(terms, self._den * s_den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = _ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- evaluation ------------------------------------------------------------------

    def eval(self, lam: ScalarLike, mu: ScalarLike) -> GaussianRational:
        """Exact evaluation at a Gaussian-rational point."""
        lam = GaussianRational.coerce(lam)
        mu = GaussianRational.coerce(mu)
        total = GaussianRational(0)
        for (i, j), coeff in self.terms():
            total = total + coeff * lam**i * mu**j
        return total

    def eval_complex(self, lam: complex, mu: complex) -> complex:
        total = 0j
        for (i, j), coeff in self._complex_terms():
            total += coeff * lam**i * mu**j
        return total

    def _complex_terms(self) -> list[tuple[Exponent, complex]]:
        """(exponent, coefficient as a complex), computed on first use."""
        if self._floats is None:
            floats = gaussint.to_complex(self._den, self._terms.values())
            object.__setattr__(self, "_floats", list(zip(self._terms, floats)))
        return self._floats

    def coeffs_in(self, var: str) -> list["BiPoly"]:
        """Ascending coefficient list with respect to one variable.

        Entry k is the (polynomial) coefficient of var^k; it involves only
        the other variable.  The zero polynomial yields [].
        """
        idx = _axis(var)
        buckets: list[Dict[Exponent, Pair]] = [{} for _ in range(self.degree_in(var) + 1)]
        for e, pair in self._terms.items():
            buckets[e[idx]][(0, e[1]) if idx == 0 else (e[0], 0)] = pair
        return [_reduced(b, self._den) for b in buckets]

    # -- comparisons ---------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), coeff in self.terms():
            mono = "".join(
                (f"{name}^{p}" if p > 1 else name)
                for name, p in (("lam", i), ("mu", j))
                if p > 0
            )
            text = str(coeff)
            if mono:
                text = mono if text == "1" else (f"-{mono}" if text == "-1" else f"({text})*{mono}")
            parts.append(text)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.terms())!r})"


def _init(poly: BiPoly, terms: Dict[Exponent, Pair], den: int) -> None:
    object.__setattr__(poly, "_den", den)
    object.__setattr__(poly, "_terms", terms)
    object.__setattr__(poly, "_floats", None)


def _wrap(terms: Dict[Exponent, Pair], den: int) -> BiPoly:
    """Wrap nonzero numerators already in canonical form over den."""
    poly = BiPoly.__new__(BiPoly)
    _init(poly, terms, den)
    return poly


def _reduced(terms: Dict[Exponent, Pair], den: int) -> BiPoly:
    """The canonical polynomial terms / den (den > 0, no zero pair stored)."""
    g = gaussint.content(den, terms.values())
    if g != 1:
        terms = {e: (re // g, im // g) for e, (re, im) in terms.items()}
        den //= g
    return _wrap(terms, den)


def _combine(a: BiPoly, b: BiPoly, sign: int) -> BiPoly:
    """a + sign * b over the lcm of the two denominators."""
    den = lcm(a._den, b._den)
    fa, fb = den // a._den, sign * (den // b._den)
    out = {e: (re * fa, im * fa) for e, (re, im) in a._terms.items()}
    for e, (re, im) in b._terms.items():
        re, im = re * fb, im * fb
        acc = out.get(e)
        if acc is not None:
            re, im = acc[0] + re, acc[1] + im
        if re or im:
            out[e] = (re, im)
        else:
            out.pop(e, None)
    return _reduced(out, den)


def _axis(var: str) -> int:
    """The exponent position of a variable name: 0 for lam, 1 for mu."""
    if var not in _VARS:
        raise ValueError(f"var must be {LAM!r} or {MU!r}, not {var!r}")
    return _VARS.index(var)


_ZERO = _wrap({}, 1)
_ONE = _wrap({(0, 0): (1, 0)}, 1)
_LAM = _wrap({(1, 0): (1, 0)}, 1)
_MU = _wrap({(0, 1): (1, 0)}, 1)


class UniPoly:
    """A univariate polynomial over the Gaussian rationals.

    Stored as one positive denominator over ascending Gaussian-integer
    numerators, canonical as in ``BiPoly``; ``coeffs`` gives the
    coefficients as GaussianRational values.  ``var``, "lam" or "mu",
    records which spectral parameter the variable stands for.
    """

    __slots__ = ("_den", "_nums", "var")

    def __init__(self, coeffs: Iterable[ScalarLike], var: str = LAM):
        _axis(var)
        den, nums = gaussint.from_scalars(GaussianRational.coerce(c) for c in coeffs)
        _init_uni(self, _stripped(nums), den, var)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def from_bipoly(poly: BiPoly, var: str) -> "UniPoly":
        """Convert a BiPoly involving only ``var`` into a UniPoly."""
        idx = _axis(var)
        other = _VARS[1 - idx]
        if poly.degree_in(other) > 0:
            raise DegreeError(f"polynomial involves {other}, not univariate in {var}")
        den, terms = poly.integer_form()
        nums = [(0, 0)] * (poly.degree_in(var) + 1)
        for exponent, pair in terms.items():
            nums[exponent[idx]] = pair
        return _new_uni(nums, den, var)

    def to_bipoly(self) -> BiPoly:
        idx = _axis(self.var)
        return BiPoly.from_integer_form(
            self._den, {((k, 0) if idx == 0 else (0, k)): c for k, c in enumerate(self._nums)}
        )

    def integer_form(self) -> tuple[int, tuple[Pair, ...]]:
        """The common denominator and the ascending (re, im) numerator pairs,
        the leading one nonzero."""
        return self._den, self._nums

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """The coefficients, ascending, as GaussianRational values."""
        return tuple(gaussint.to_scalar(self._den, c) for c in self._nums)

    def degree(self) -> int:
        return len(self._nums) - 1

    def is_zero(self) -> bool:
        return not self._nums

    def leading(self) -> GaussianRational:
        if not self._nums:
            raise DegreeError("zero polynomial has no leading coefficient")
        return gaussint.to_scalar(self._den, self._nums[-1])

    def eval(self, value: ScalarLike) -> GaussianRational:
        value = GaussianRational.coerce(value)
        total = GaussianRational(0)
        for coeff in reversed(self.coeffs):
            total = total * value + coeff
        return total

    def derivative(self) -> "UniPoly":
        return _reduced_uni(_derivative(self._nums), self._den, self.var)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return _monic(self._nums, self.var)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor, by a subresultant PRS over Z[i].

        The PRS runs on the numerators, which are Gaussian-integer multiples
        of the two inputs; its last nonzero remainder is a Q(i)-multiple of
        the gcd, made monic.  A zero input returns the other input made
        monic; two zero inputs give the zero polynomial.
        """
        if other.is_zero():
            return self.monic()
        if self.is_zero():
            return other.monic()
        return _monic(_subresultant_gcd(self._nums, other._nums), self.var)

    def is_coprime(self, other: "UniPoly") -> bool:
        """Whether gcd(self, other) = 1 exactly: by a proof mod p
        (``_coprime_mod_p``) when it succeeds, by the PRS otherwise."""
        return _coprime_mod_p(self._nums, other._nums) or self.gcd(other).degree() == 0

    def square_free_part(self) -> "UniPoly":
        """The product of distinct irreducible factors (each to power one).

        Dividing out gcd(p, p') keeps the exact root set while dropping
        multiplicities, so float root iteration never sees a cluster that
        exists only through repetition.  A proof of square-freeness mod a
        prime (``_square_free_mod_p``) returns p itself without the PRS.
        Otherwise the PRS gives a multiple c of the gcd, and the quotient
        by the monic gcd is an exact division in Z[i][x].
        """
        nums = self._nums
        if self.degree() < 1 or _square_free_mod_p(nums):
            return self
        common = _subresultant_gcd(nums, _derivative(nums))
        if len(common) < 2:
            return self
        # p / monic(c) = lc(c) p / c, in Z[i][x] by Gauss's lemma.
        lead = common[-1]
        quotient, remainder = _divide([gaussint.mul(x, lead) for x in nums], common)
        if remainder:
            raise DegreeError("square-free reduction failed (inexact division)")
        return _reduced_uni(quotient, self._den, self.var)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums and self.var == other.var

    def __hash__(self) -> int:
        return hash((self._den, self._nums, self.var))

    def __str__(self) -> str:
        return str(self.to_bipoly())

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]}, var={self.var!r})"


def _init_uni(poly: UniPoly, nums: list[Pair], den: int, var: str) -> None:
    object.__setattr__(poly, "_den", den)
    object.__setattr__(poly, "_nums", tuple(nums))
    object.__setattr__(poly, "var", var)


def _new_uni(nums: list[Pair], den: int, var: str) -> UniPoly:
    """Wrap numerators already canonical over den, leading one nonzero."""
    poly = UniPoly.__new__(UniPoly)
    _init_uni(poly, nums, den, var)
    return poly


def _stripped(nums: list[Pair]) -> list[Pair]:
    while nums and nums[-1] == (0, 0):
        nums.pop()
    return nums


def _reduced_uni(nums: list[Pair], den: int, var: str) -> UniPoly:
    """The canonical polynomial nums / den (den > 0)."""
    nums = _stripped(nums)
    g = gaussint.content(den, nums)
    if g != 1:
        nums = [(re // g, im // g) for re, im in nums]
        den //= g
    return _new_uni(nums, den, var)


def _monic(nums: list[Pair], var: str) -> UniPoly:
    """nums / lc(nums) (any denominator cancels): the primitive numerators
    over the positive integer that leads them."""
    nums = _primitive(nums)
    return _new_uni(nums, nums[-1][0], var)


# -- Gaussian-integer polynomial kernels ------------------------------------------


def _derivative(nums: Iterable[Pair]) -> list[Pair]:
    return [(k * re, k * im) for k, (re, im) in enumerate(nums)][1:]


def _subresultant_gcd(a: Iterable[Pair], b: Iterable[Pair]) -> list[Pair]:
    """The last nonzero remainder of the signed subresultant PRS of two
    nonzero Gaussian-integer polynomials (ascending), made primitive: a
    Q(i)-multiple of their gcd.  The last subresultant carries the chain's
    content (2098 bits, of which 26 are its primitive part, for the tests'
    planted degree-36 square); the chain stays subresultant, which keeps
    the remainders before it smallest.
    """
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    return _primitive(_signed_prs(a, b)[-1])


def _primitive(nums: list[Pair]) -> list[Pair]:
    """nums times the conjugate of their leading coefficient, over the gcd
    of all the parts: the numerators of nums made monic, in lowest terms,
    a positive integer leading."""
    l_re, l_im = nums[-1]
    if l_im or l_re < 0:
        nums = [(re * l_re + im * l_im, im * l_re - re * l_im) for re, im in nums]
    g = gaussint.content(0, nums)
    return nums if g == 1 else [(re // g, im // g) for re, im in nums]


def _signed_prs(a: list[Pair], b: list[Pair]) -> list[list[Pair]]:
    """The signed subresultant PRS [a, b, r_1, r_2, ...] of two nonzero
    Gaussian-integer polynomials (ascending, deg a >= deg b), up to the
    last nonzero remainder or one of degree 0.

    Each pseudo-remainder is divided exactly in Z[i] by (-1)^(delta+1) g
    h^delta (Collins, J. ACM 14, 1967; Brown & Traub, J. ACM 18, 1971),
    which keeps coefficient growth polynomial where Euclid over Q(i) does
    not.  With that sign, in a chain whose every remainder is one degree
    below the one before, the remainder of degree j is exactly the j-th
    subresultant S_j of a and b: the determinant polynomial of the rows
    x^(n-j-1) a, ..., a, x^(m-j-1) b, ..., b (m = deg a, n = deg b), whose
    constant for j = 0 is the resultant (``resultants``).
    """
    chain = [a, b]
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        # The pseudo-remainder: b divides lc(b)^(delta+1) a with every
        # quotient coefficient exact (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).
        _, r = _divide(gaussint.times([a], gaussint.power(b[-1], delta + 1))[0], b)
        if not r:
            break
        d_re, d_im = gaussint.mul(g, gaussint.power(h, delta))
        if delta % 2 == 0:
            d_re, d_im = -d_re, -d_im
        a, b = b, gaussint.exact_div(r, (d_re, d_im))
        chain.append(b)
        g = a[-1]
        # h <- g^delta h^(1 - delta); delta >= 1 after the first step.
        if delta:
            h = gaussint.exact_div([gaussint.power(g, delta)], gaussint.power(h, delta - 1))[0]
    return chain


def _divide(a: list[Pair], b: list[Pair]) -> tuple[list[Pair], list[Pair]]:
    """(q, r) with a = q b + r and deg r < deg b, by long division in
    Z[i][x]; r is stripped of trailing zeros, so the zero remainder is [].

    Every leading coefficient on the way must divide exactly by lc(b);
    DegreeError otherwise.  The caller scales a so that it does.
    """
    r = list(a)
    l_re, l_im = b[-1]
    norm = l_re * l_re + l_im * l_im
    deg_b = len(b) - 1
    quotient = [(0, 0)] * (len(r) - deg_b)
    for shift in range(len(r) - 1 - deg_b, -1, -1):
        t_re, t_im = r.pop()
        q_re, rest_re = divmod(t_re * l_re + t_im * l_im, norm)
        q_im, rest_im = divmod(t_im * l_re - t_re * l_im, norm)
        if rest_re or rest_im:
            raise DegreeError("square-free reduction failed (inexact division)")
        quotient[shift] = (q_re, q_im)
        for k in range(deg_b):
            y_re, y_im = b[k]
            x_re, x_im = r[shift + k]
            r[shift + k] = (x_re - (q_re * y_re - q_im * y_im), x_im - (q_re * y_im + q_im * y_re))
    return quotient, _stripped(r)


# -- the mod-p proofs of coprimality and square-freeness ---------------------------

# Both run in the F_p of gaussint.image_mod_p; its prime p and root s of -1
# (SQUARE_FREE_PRIME, _SQRT_MINUS_ONE) stay importable from this module.


def _square_free_mod_p(nums: list[Pair]) -> bool:
    """True when ``_coprime_mod_p`` proves r = sum nums[k] x^k coprime to
    its derivative: then r is square-free over Q(i).  No bound on deg r
    relative to p is needed.  A False answer proves nothing (p may divide
    the discriminant); callers fall back to the subresultant PRS."""
    return _coprime_mod_p(nums, _derivative(nums))


def _coprime_mod_p(r: list[Pair], s: list[Pair]) -> bool:
    """True when the image r~ of r in F_p[x] keeps its degree and
    gcd(r~, s~) = 1 over F_p: then gcd(r, s) = 1 over Q(i).

    Proof: a common factor h of positive degree gives, by Gauss's lemma,
    r = c h* v* and s = c' h* w* with c, c' in Z[i] and h*, v*, w*
    primitive in Z[i][x].  The map keeps lc(r) = c lc(h*) lc(v*), hence
    lc(h*), so the image of h* has degree >= 1 and divides both r~ and s~
    (s~ may be 0), against gcd = 1.  A False answer proves nothing.
    """
    a = image_mod_p(r)
    if not a or not a[-1]:
        return False
    b = image_mod_p(s)
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, _remainder_mod_p(a, b)
    return len(a) == 1


def _remainder_mod_p(a: list[int], b: list[int]) -> list[int]:
    """a mod b in F_p[x] (ascending, b's leading entry nonzero), with
    trailing zeros stripped."""
    r = list(a)
    p = SQUARE_FREE_PRIME
    inv = pow(b[-1], -1, p)
    deg_b = len(b) - 1
    while len(r) > deg_b:
        c = r.pop() * inv % p
        shift = len(r) - deg_b
        for k in range(deg_b):
            r[shift + k] = (r[shift + k] - c * b[k]) % p
        while r and not r[-1]:
            r.pop()
    return r
