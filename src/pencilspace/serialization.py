"""JSON file formats with exact rational scalars.

Scalars may be written as JSON numbers (integers, or decimal literals such
as 0.25 which are parsed exactly from their digits, never through a float),
as strings "p/q", or as {"re": ..., "im": ...} pairs for complex values.
NaN and infinities are rejected.  Serialization is canonical -- keys in a
fixed order, every scalar a lowest-terms string, two-space indentation --
so serialize(parse(file)) is byte-identical for canonically written files.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .matrices import Matrix
from .pencil import Pencil2P, QuadPoly2P
from .qep import QuadSystem2P
from .scalars import GaussianRational
from .space import FreeBlocks

COEFF_KEYS = ("A20", "A11", "A02", "A10", "A01", "A00")


# -- scalar grammar ----------------------------------------------------------


# No int of more decimal digits than this can be printed, so no scalar with
# a longer numerator or denominator could be written back.  The integer and
# fractional digits of a mantissa are at most MAX_DIGITS each, so past an
# exponent of 2 * MAX_DIGITS only a zero mantissa is printable: decided
# before Fraction builds 10**exponent.
MAX_DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
_TOO_LONG = 10**MAX_DIGITS
_NESTED_PARTS = re.compile(r"(?:\.re|\.im)+$")
_EXPONENT_FORM = re.compile(r"\s*([-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?\d+)\s*")


def parse_fraction(text: str, location: str) -> Fraction:
    """An exact rational from its text (integer, p/q or decimal, with an
    optional exponent), bounded by MAX_DIGITS; a ParseError at location
    otherwise."""
    exponent_form = _EXPONENT_FORM.fullmatch(text)
    try:
        huge = exponent_form is not None and abs(int(exponent_form[2])) > 2 * MAX_DIGITS
        value = Fraction(exponent_form[1] if huge else text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact rational: {text!r} ({exc})", location)
    if (huge and value) or max(abs(value.numerator), value.denominator) >= _TOO_LONG:
        raise ParseError(
            f"{text!r} has a numerator or denominator of more than {MAX_DIGITS} digits", location
        )
    return value


def parse_scalar(value: Any, location: str) -> GaussianRational:
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars", location)
    if isinstance(value, int):
        return GaussianRational(value)
    if isinstance(value, str):
        return GaussianRational(parse_fraction(value, location))
    if isinstance(value, dict):
        extra = set(value) - {"re", "im"}
        if extra:
            raise ParseError(f"unknown scalar keys {sorted(extra)}", location)
        try:
            re = parse_scalar(value.get("re", 0), f"{location}.re")
            im = parse_scalar(value.get("im", 0), f"{location}.im")
        except RecursionError:
            # Raised where the stack has room, naming the outermost scalar.
            raise ParseError("scalar nested too deeply", _NESTED_PARTS.sub("", location)) from None
        if not re.is_real() or not im.is_real():
            raise ParseError("re/im parts must themselves be rational", location)
        return GaussianRational(re.re, im.re)
    raise ParseError(f"cannot parse scalar from {type(value).__name__}", location)


def format_scalar(value: GaussianRational) -> Any:
    if value.is_real():
        return str(value.re)
    return {"re": str(value.re), "im": str(value.im)}


# -- matrices ------------------------------------------------------------------


def parse_matrix(value: Any, rows: int, cols: int, location: str) -> Matrix:
    if not isinstance(value, list) or not value:
        raise ParseError("expected a non-empty list of rows", location)
    if len(value) != rows:
        raise ParseError(f"expected {rows} rows, found {len(value)}", location)
    entries = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {i} must be a list of {cols} scalars", location)
        entries.append(
            [parse_scalar(v, f"{location}[{i}][{j}]") for j, v in enumerate(row)]
        )
    return Matrix(entries)


def format_matrix(m: Matrix) -> list:
    return [
        [format_scalar(m[i, j]) for j in range(m.cols)] for i in range(m.rows)
    ]


# -- documents --------------------------------------------------------------------


def _loads(text: str, location: str) -> Any:
    def reject_constant(name: str):
        raise ParseError(f"non-finite number {name} is not allowed")

    try:
        # parse_float=str keeps the raw digits so 0.25 becomes Fraction("0.25")
        # exactly instead of round-tripping through a binary float.
        return json.loads(text, parse_float=str, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply", location) from None


def _require_keys(doc: dict, keys: tuple[str, ...], location: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object", location)
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ParseError(f"missing keys {missing}", location)
    extra = sorted(set(doc) - set(keys))
    if extra:
        raise ParseError(f"unknown keys {extra}", location)


def _positive_int(value: Any, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParseError("expected a positive integer", location)
    return value


def parse_problem_dict(doc: Any, location: str = "problem") -> QuadPoly2P:
    _require_keys(doc, ("n", "coefficients"), location)
    n = _positive_int(doc["n"], f"{location}.n")
    coeffs = doc["coefficients"]
    _require_keys(coeffs, COEFF_KEYS, f"{location}.coefficients")
    matrices = {
        key.lower(): parse_matrix(coeffs[key], n, n, f"{location}.coefficients.{key}")
        for key in COEFF_KEYS
    }
    return QuadPoly2P(n, **matrices)


def parse_problem(text: str) -> QuadPoly2P:
    return parse_problem_dict(_loads(text, "problem"))


def problem_to_dict(q: QuadPoly2P) -> dict:
    return {
        "n": q.n,
        "coefficients": {
            key: format_matrix(getattr(q, key.lower())) for key in COEFF_KEYS
        },
    }


def parse_pencil(text: str) -> Pencil2P:
    doc = _loads(text, "pencil")
    _require_keys(doc, ("m", "A1hat", "A2hat", "A3hat"), "pencil")
    m = _positive_int(doc["m"], "pencil.m")
    return Pencil2P(
        m,
        parse_matrix(doc["A1hat"], m, m, "pencil.A1hat"),
        parse_matrix(doc["A2hat"], m, m, "pencil.A2hat"),
        parse_matrix(doc["A3hat"], m, m, "pencil.A3hat"),
    )


def pencil_to_dict(pencil: Pencil2P) -> dict:
    return {
        "m": pencil.m,
        "A1hat": format_matrix(pencil.lam_coeff),
        "A2hat": format_matrix(pencil.mu_coeff),
        "A3hat": format_matrix(pencil.const),
    }


def parse_system(text: str) -> QuadSystem2P:
    doc = _loads(text, "system")
    _require_keys(doc, ("Q1", "Q2"), "system")
    return QuadSystem2P(
        parse_problem_dict(doc["Q1"], "system.Q1"),
        parse_problem_dict(doc["Q2"], "system.Q2"),
    )


def system_to_dict(system: QuadSystem2P) -> dict:
    return {
        "Q1": problem_to_dict(system.q1),
        "Q2": problem_to_dict(system.q2),
    }


def parse_blocks(text: str) -> FreeBlocks:
    doc = _loads(text, "blocks")
    _require_keys(doc, ("n", "Y1", "Z1", "Z2"), "blocks")
    n = _positive_int(doc["n"], "blocks.n")
    return FreeBlocks(
        n,
        parse_matrix(doc["Y1"], 3 * n, n, "blocks.Y1"),
        parse_matrix(doc["Z1"], 3 * n, n, "blocks.Z1"),
        parse_matrix(doc["Z2"], 3 * n, n, "blocks.Z2"),
    )


def blocks_to_dict(blocks: FreeBlocks) -> dict:
    return {
        "n": blocks.n,
        "Y1": format_matrix(blocks.y1),
        "Z1": format_matrix(blocks.z1),
        "Z2": format_matrix(blocks.z2),
    }


def parse_eigenpair(text: str) -> dict:
    """Parse {"lambda", "mu", "x1", "x2"} into exact values.

    Returns a dict with GaussianRational 'lam'/'mu' and column Matrix
    'x1'/'x2'.
    """
    doc = _loads(text, "pair")
    _require_keys(doc, ("lambda", "mu", "x1", "x2"), "pair")
    out = {
        "lam": parse_scalar(doc["lambda"], "pair.lambda"),
        "mu": parse_scalar(doc["mu"], "pair.mu"),
    }
    for key in ("x1", "x2"):
        vec = doc[key]
        if not isinstance(vec, list) or not vec:
            raise ParseError("expected a non-empty list of scalars", f"pair.{key}")
        out[key] = Matrix.column(
            [parse_scalar(v, f"pair.{key}[{i}]") for i, v in enumerate(vec)]
        )
    return out


# -- canonical text form ---------------------------------------------------------


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def serialize_problem(q: QuadPoly2P) -> str:
    return dumps(problem_to_dict(q))


def serialize_pencil(pencil: Pencil2P) -> str:
    return dumps(pencil_to_dict(pencil))


def serialize_system(system: QuadSystem2P) -> str:
    return dumps(system_to_dict(system))


def serialize_blocks(blocks: FreeBlocks) -> str:
    return dumps(blocks_to_dict(blocks))
