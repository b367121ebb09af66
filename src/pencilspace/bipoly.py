"""Exact polynomials in the two spectral parameters.

A bivariate polynomial is a dict mapping exponent pairs (i, j) for the
monomial lam^i * mu^j to nonzero GaussianRational coefficients; the zero
polynomial is the empty dict.  All arithmetic is exact and results stay in
canonical form (no stored zero coefficient).

``UniPoly`` is the single-variable carrier used for resultants: an
ascending coefficient tuple whose last entry (the leading coefficient) is
nonzero unless the polynomial is zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from .errors import DegreeError
from .scalars import GaussianRational, ScalarLike, clear_denominators

Exponent = Tuple[int, int]

LAM = "lam"
MU = "mu"
_VARS = (LAM, MU)


class BiPoly:
    """A polynomial in (lam, mu) over the Gaussian rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, ScalarLike] | None = None):
        canonical: Dict[Exponent, GaussianRational] = {}
        for (i, j), coeff in (terms or {}).items():
            value = GaussianRational.coerce(coeff)
            if value:
                canonical[(int(i), int(j))] = value
        object.__setattr__(self, "_terms", canonical)

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

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise DegreeError("polynomial is not constant")
        return self._terms.get((0, 0), GaussianRational(0))

    def terms(self) -> Iterator[Tuple[Exponent, GaussianRational]]:
        """Iterate terms in a deterministic (sorted) order."""
        for exponent in sorted(self._terms):
            yield exponent, self._terms[exponent]

    def degree_in(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        idx = _VARS.index(var)
        return max(e[idx] for e in self._terms)

    def total_degree(self) -> int:
        """Maximum i + j over stored monomials; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def max_abs_coeff(self) -> float:
        """Largest coefficient modulus as a float (for residual scales)."""
        if not self._terms:
            return 0.0
        return max(abs(c.to_complex()) for c in self._terms.values())

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = out.get(exp)
            acc = coeff if acc is None else acc + coeff
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return _wrap(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = out.get(exp)
            acc = -coeff if acc is None else acc - coeff
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return _wrap(out)

    def __neg__(self) -> "BiPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, BiPoly):
            out: Dict[Exponent, GaussianRational] = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    exp = (i1 + i2, j1 + j2)
                    acc = out.get(exp)
                    prod = c1 * c2
                    acc = prod if acc is None else acc + prod
                    if acc:
                        out[exp] = acc
                    else:
                        out.pop(exp, None)
            return _wrap(out)
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = GaussianRational.coerce(other)
            if not scalar:
                return _ZERO
            return _wrap({e: c * scalar for e, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = BiPoly.constant(1)
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
        lam_pows = _power_table(lam, self.degree_in(LAM))
        mu_pows = _power_table(mu, self.degree_in(MU))
        for (i, j), coeff in self._terms.items():
            total = total + coeff * lam_pows[i] * mu_pows[j]
        return total

    def eval_complex(self, lam: complex, mu: complex) -> complex:
        total = 0j
        for (i, j), coeff in self._terms.items():
            total += coeff.to_complex() * lam**i * mu**j
        return total

    def coeffs_in(self, var: str) -> list["BiPoly"]:
        """Ascending coefficient list with respect to one variable.

        Entry k is the (polynomial) coefficient of var^k; it involves only
        the other variable.  The zero polynomial yields [].
        """
        degree = self.degree_in(var)
        if degree < 0:
            return []
        idx = _VARS.index(var)
        buckets: list[Dict[Exponent, GaussianRational]] = [{} for _ in range(degree + 1)]
        for (i, j), coeff in self._terms.items():
            power = (i, j)[idx]
            rest = (0, j) if idx == 0 else (i, 0)
            buckets[power][rest] = coeff
        return [_wrap(b) for b in buckets]

    # -- comparisons ---------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

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
        return f"BiPoly({dict(sorted(self._terms.items()))!r})"


def _wrap(terms: Dict[Exponent, GaussianRational]) -> BiPoly:
    poly = BiPoly.__new__(BiPoly)
    object.__setattr__(poly, "_terms", terms)
    return poly


def _power_table(base: GaussianRational, degree: int) -> list[GaussianRational]:
    powers = [GaussianRational(1)]
    for _ in range(max(degree, 0)):
        powers.append(powers[-1] * base)
    return powers


_ZERO = _wrap({})
_LAM = BiPoly({(1, 0): 1})
_MU = BiPoly({(0, 1): 1})


class UniPoly:
    """A univariate polynomial with GaussianRational coefficients.

    Coefficients are ascending; the leading (last) coefficient is nonzero
    unless the polynomial is zero (empty tuple).  ``var`` records which
    spectral parameter the variable stands for, for display only.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[ScalarLike], var: str = LAM):
        values = [GaussianRational.coerce(c) for c in coeffs]
        while values and not values[-1]:
            values.pop()
        object.__setattr__(self, "coeffs", tuple(values))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def from_bipoly(poly: BiPoly, var: str) -> "UniPoly":
        """Convert a BiPoly involving only ``var`` into a UniPoly."""
        other = MU if var == LAM else LAM
        if poly.degree_in(other) > 0:
            raise DegreeError(f"polynomial involves {other}, not univariate in {var}")
        coeffs = [c.constant_value() for c in poly.coeffs_in(var)]
        return UniPoly(coeffs, var=var)

    def to_bipoly(self) -> BiPoly:
        idx = _VARS.index(self.var)
        terms = {}
        for k, coeff in enumerate(self.coeffs):
            terms[(k, 0) if idx == 0 else (0, k)] = coeff
        return BiPoly(terms)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise DegreeError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval(self, value: ScalarLike) -> GaussianRational:
        total = GaussianRational(0)
        for coeff in reversed(self.coeffs):
            total = total * GaussianRational.coerce(value) + coeff
        return total

    def derivative(self) -> "UniPoly":
        return UniPoly(
            [k * c for k, c in enumerate(self.coeffs)][1:], var=self.var
        )

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly([c / lead for c in self.coeffs], var=self.var)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact polynomial division over the field: self = q*other + r."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        divisor = other.coeffs
        lead = divisor[-1]
        deg_d = len(divisor) - 1
        quotient = [GaussianRational(0)] * max(len(remainder) - deg_d, 0)
        while len(remainder) - 1 >= deg_d and any(remainder):
            while remainder and not remainder[-1]:
                remainder.pop()
            if len(remainder) - 1 < deg_d:
                break
            shift = len(remainder) - 1 - deg_d
            factor = remainder[-1] / lead
            quotient[shift] = factor
            for k, c in enumerate(divisor):
                remainder[shift + k] = remainder[shift + k] - factor * c
            remainder.pop()
        return UniPoly(quotient, var=self.var), UniPoly(remainder, var=self.var)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor, by a subresultant PRS over Z[i].

        Both inputs are scaled once to Gaussian-integer coefficients.  Each
        pseudo-remainder is then divided exactly in Z[i] by g * h^delta
        (Collins, J. ACM 14, 1967; Brown & Traub, J. ACM 18, 1971), which
        keeps coefficient growth polynomial where Euclid over Q(i) does not.
        The last nonzero remainder is a Q(i)-multiple of the gcd; it is
        converted back and made monic.  A zero input returns the other input
        made monic; two zero inputs give the zero polynomial.
        """
        if other.is_zero():
            return self.monic()
        if self.is_zero():
            return other.monic()
        a = clear_denominators(self.coeffs)[1]
        b = clear_denominators(other.coeffs)[1]
        if len(a) < len(b):
            a, b = b, a
        g = h = (1, 0)
        while len(b) > 1:
            delta = len(a) - len(b)
            r = _pseudo_remainder(a, b)
            if not r:
                break
            divisor = _gi_mul(g, _gi_pow(h, delta))
            a, b = b, _gi_exact_div(r, divisor)
            g = a[-1]
            # h <- g^delta h^(1 - delta); delta >= 1 after the first step.
            if delta:
                h = _gi_exact_div([_gi_pow(g, delta)], _gi_pow(h, delta - 1))[0]
        return UniPoly([GaussianRational(re, im) for re, im in b], var=self.var).monic()

    def square_free_part(self) -> "UniPoly":
        """The product of distinct irreducible factors (each to power one).

        Dividing out gcd(p, p') keeps the exact root set while dropping
        multiplicities, so float root iteration never sees a cluster that
        exists only through repetition.
        """
        if self.degree() < 1:
            return self
        common = self.gcd(self.derivative())
        if common.degree() < 1:
            return self
        quotient, remainder = self.divmod(common)
        if not remainder.is_zero():
            raise DegreeError("square-free reduction failed (inexact division)")
        return quotient

    def to_complex_coeffs(self) -> list[complex]:
        return [c.to_complex() for c in self.coeffs]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.var == other.var

    def __hash__(self) -> int:
        return hash((self.coeffs, self.var))

    def __str__(self) -> str:
        return str(self.to_bipoly()).replace("lam" if self.var == LAM else "mu", self.var)

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]}, var={self.var!r})"


# Gaussian integers as (re, im) int pairs, for the gcd's subresultant PRS.
GaussInt = Tuple[int, int]


def _gi_mul(x: GaussInt, y: GaussInt) -> GaussInt:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gi_pow(x: GaussInt, exponent: int) -> GaussInt:
    result = (1, 0)
    for _ in range(exponent):
        result = _gi_mul(result, x)
    return result


def _gi_exact_div(xs: list[GaussInt], y: GaussInt) -> list[GaussInt]:
    """Each x / y, for a y that divides every x in Z[i]."""
    y_re, y_im = y
    norm = y_re * y_re + y_im * y_im
    return [
        ((x_re * y_re + x_im * y_im) // norm, (x_im * y_re - x_re * y_im) // norm)
        for x_re, x_im in xs
    ]


def _pseudo_remainder(a: list[GaussInt], b: list[GaussInt]) -> list[GaussInt]:
    """lc(b)^(deg a - deg b + 1) * a mod b over Z[i], coefficients ascending.

    Each of the deg a - deg b + 1 reduction steps multiplies the running
    remainder by lc(b) and subtracts its leading coefficient times the
    shifted b, so no division occurs.  Trailing zeros are stripped; the
    zero remainder is [].
    """
    r = list(a)
    l_re, l_im = b[-1]
    deg_b = len(b) - 1
    for top in range(len(r) - 1, deg_b - 1, -1):
        c_re, c_im = r.pop()
        shift = top - deg_b
        for k in range(top):
            x_re, x_im = r[k]
            t_re = x_re * l_re - x_im * l_im
            t_im = x_re * l_im + x_im * l_re
            if k >= shift:
                y_re, y_im = b[k - shift]
                t_re -= c_re * y_re - c_im * y_im
                t_im -= c_re * y_im + c_im * y_re
            r[k] = (t_re, t_im)
    while r and r[-1] == (0, 0):
        r.pop()
    return r
