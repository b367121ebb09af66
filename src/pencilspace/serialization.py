"""JSON file formats with exact rational scalars.

Scalars may be written as JSON numbers (integers, or decimal literals such
as 0.25 which are parsed exactly from their digits, never through a float),
as strings "p/q", or as {"re": ..., "im": ...} pairs for complex values.
NaN and infinities are rejected.  Serialization is canonical -- keys in a
fixed order, every scalar a lowest-terms string, two-space indentation --
so serialize(parse(file)) is byte-identical for canonically written files.

Matrices are read and written on their integer form (``gaussint``).  A
document whose entries are all as serialize_* writes them is read in one
pass (_canonical_matrices); any other goes to the general reader, entry
by entry through the full literal grammar, which alone raises and names
the first fault.  Each *_to_dict keeps its matrices as Matrix values, and
each serialize_* writes the text of json.dumps(<its *_to_dict>, indent=2,
default=format_matrix) straight from the integer forms, one gcd per
distinct numerator component, with no dict of strings between.  No
Fraction or GaussianRational is built for a canonical entry either way.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import mul
from typing import Any, Optional

from . import gaussint
from .errors import ParseError
from .matrices import Matrix, _new, _stored
from .pencil import Pencil2P, QuadPoly2P, QuadSystem2P
from .scalars import GaussianRational, _format_rational
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
_EXPONENT_FORM = re.compile(r"\s*([-+]?(?:\d+(?:\.\d*)?|\.\d+))[eE]([-+]?\d+)\s*")
# A PEP 515 digit separator: an underscore between two digits.
_SEPARATOR = re.compile(r"(?<=\d)_(?=\d)")
_SCALAR_KEYS = frozenset(("re", "im"))
# Deletes every character a canonical literal may hold (_canonical_matrices).
_CANONICAL_CHARS = str.maketrans("", "", "0123456789-/")
# The deepest {"re": ...} nesting read: the limit problem files have long
# had from the CLI, stated so that it does not move with the caller's stack
# or the reader's frames.  A caller with less stack left gets the same
# ParseError from the RecursionError.
MAX_NESTING = 979


def parse_rational(text: str, location: str) -> tuple[int, int]:
    """The lowest-terms (numerator, denominator) of a rational literal: an
    integer, p/q or decimal, with an optional exponent, bounded by
    MAX_DIGITS; a ParseError at location otherwise.

    Underscores are read as Fraction reads them from Python 3.11 on, on
    every supported Python: when each one sits between two digits they are
    dropped before anything else looks at the literal, so the exponent
    bound sees the digits they separate; otherwise the literal is rejected.
    Messages quote the literal as written.

    Plain ASCII integers and p/q are read with int() and one gcd; every
    other form (decimals, exponents, whitespace, a + sign, Unicode digits,
    and every rejected literal) goes through Fraction.
    """
    literal = _without_separators(text)
    plain = _plain_rational(literal)
    if plain is not None:
        return plain
    exponent_form = _EXPONENT_FORM.fullmatch(literal)
    try:
        huge = exponent_form is not None and abs(int(exponent_form[2])) > 2 * MAX_DIGITS
        value = Fraction(exponent_form[1] if huge else literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not an exact rational: {text!r} ({exc})", location)
    if (huge and value) or max(abs(value.numerator), value.denominator) >= _TOO_LONG:
        raise ParseError(
            f"{text!r} has a numerator or denominator of more than {MAX_DIGITS} digits", location
        )
    return value.numerator, value.denominator


def _plain_rational(text: str) -> tuple[int, int] | None:
    """The lowest-terms (numerator, denominator) of an ASCII integer or p/q
    with q > 0, of at most MAX_DIGITS characters, read with int() and one
    gcd; None for every other literal, which parse_rational reads through
    Fraction."""
    # No int of at most MAX_DIGITS digits raises, and each is below _TOO_LONG.
    if len(text) <= MAX_DIGITS and text.isascii():
        if text.removeprefix("-").isdigit():
            return int(text), 1
        num, slash, den = text.partition("/")
        if slash and num.removeprefix("-").isdigit() and den.isdigit():
            num, den = int(num), int(den)
            if den:
                g = gcd(num, den)
                return num // g, den // g
    return None


def _without_separators(text: str) -> str:
    """text without its digit separators if every underscore in it is one,
    else text unchanged."""
    if "_" not in text:
        return text
    literal = _SEPARATOR.sub("", text)
    return text if "_" in literal else literal


def parse_fraction(text: str, location: str) -> Fraction:
    """An exact rational from its text, as parse_rational reads it."""
    return Fraction(*parse_rational(text, location))


def _scalar_parts(value: Any, location: str, depth: int = 0) -> gaussint.Parts:
    """A scalar as its lowest-terms parts (re numerator, re denominator,
    im numerator, im denominator): a literal, or an {"re", "im"} pair of
    rational scalars, themselves read recursively to MAX_NESTING pairs."""
    if isinstance(value, str):
        return parse_rational(value, location) + (0, 1)
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars", location)
    if isinstance(value, int):
        return value, 1, 0, 1
    if isinstance(value, dict):
        extra = value.keys() - _SCALAR_KEYS
        if extra:
            raise ParseError(f"unknown scalar keys {sorted(extra)}", location)
        try:
            if depth == MAX_NESTING:
                raise RecursionError
            re = _scalar_parts(value.get("re", 0), f"{location}.re", depth + 1)
            im = _scalar_parts(value.get("im", 0), f"{location}.im", depth + 1)
        except RecursionError:
            # Past MAX_NESTING or out of stack: raised where the stack has
            # room, naming the outermost scalar.
            raise ParseError("scalar nested too deeply", _NESTED_PARTS.sub("", location)) from None
        if re[2] or im[2]:
            raise ParseError("re/im parts must themselves be rational", location)
        return re[:2] + im[:2]
    raise ParseError(f"cannot parse scalar from {type(value).__name__}", location)


def parse_scalar(value: Any, location: str) -> GaussianRational:
    den, (pair,) = gaussint.from_parts([_scalar_parts(value, location)])
    return gaussint.to_scalar(den, pair)


def format_scalar(value: GaussianRational) -> Any:
    re, im, den = value._re, value._im, value._den
    if not im:
        return _format_rational(re, den)
    return {"re": _format_rational(re, den), "im": _format_rational(im, den)}


# -- matrices ------------------------------------------------------------------


def parse_matrix(value: Any, rows: int, cols: int, location: str) -> Matrix:
    (matrix,) = _matrices([(value, rows, cols, location)])
    return matrix


def _matrices(specs: list[tuple[Any, Optional[int], int, str]]) -> list[Matrix]:
    """The matrices of one document, each spec (value, rows, cols,
    location), rows None for a column of len(value) scalars: from the
    document pass when it reads them all, else each from the general
    reader in turn, which raises at the first fault and names it."""
    return _canonical_matrices(specs) or [_read_matrix(*spec) for spec in specs]


def _read_matrix(value: Any, rows: Optional[int], cols: int, location: str) -> Matrix:
    """The general reader: shapes checked and every entry read by
    _scalar_parts, each fault a ParseError at its location."""
    if not isinstance(value, list) or not value:
        raise ParseError(f"expected a non-empty list of {'scalars' if rows is None else 'rows'}", location)
    if rows is None:
        parts = [_scalar_parts(v, f"{location}[{i}]") for i, v in enumerate(value)]
    elif len(value) != rows:
        raise ParseError(f"expected {rows} rows, found {len(value)}", location)
    else:
        parts = []
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(f"row {i} must be a list of {cols} scalars", location)
            parts += [_scalar_parts(v, f"{location}[{i}][{j}]") for j, v in enumerate(row)]
    # gaussint.from_parts builds the canonical form: no content to scan.
    den, pairs = gaussint.from_parts(parts)
    return _new(tuple(zip(*[iter(pairs)] * cols)), den)


def _canonical_matrices(specs: list[tuple[Any, Optional[int], int, str]]) -> Optional[list[Matrix]]:
    """The document pass: the matrices of specs, as _matrices reads them,
    when each has its shape and every entry is an ASCII "p" or "p/q" string
    (q > 0, at most MAX_DIGITS characters) or an {"re", "im"} pair of two;
    else None, raising nothing.  The distinct literals are screened at once
    (a translate deletes every character they may hold), read by int()
    through C-level maps and put over the lcm of the denominators written,
    and every matrix keeps that lcm, not reduced: "2/4" reads as "1/2"
    does once a matrix is compared or its canonical form read."""
    entries, shapes = [], []
    for value, rows, cols, _ in specs:
        if type(value) is not list or not value or rows is not None and len(value) != rows:
            return None
        for row in [value] if rows is None else value:
            if type(row) is not list or rows is not None and len(row) != cols:
                return None
            entries += row
        shapes.append((len(value), cols))
    res, ims = [], []
    for entry in entries:
        if type(entry) is str:
            res.append(entry)
            ims.append("0")
        elif type(entry) is dict and len(entry) == 2:
            re, im = entry.get("re"), entry.get("im")
            if type(re) is not str or type(im) is not str:
                return None
            res.append(re)
            ims.append(im)
        else:
            return None
    literals = list(set(res).union(ims))
    if "".join(literals).translate(_CANONICAL_CHARS) or max(map(len, literals)) > MAX_DIGITS:
        return None
    nums, slashes, dens = zip(*map(str.partition, literals, repeat("/")))
    try:
        values = list(map(int, nums))
        written = {d: int(d) for d in set(dens) if d}
    except ValueError:
        return None
    if slashes.count("/") != len(dens) - dens.count("") or min(written.values(), default=1) < 1:
        return None
    den = lcm(*written.values())
    if den != 1:
        factor = {d: den // q for d, q in written.items()}
        factor[""] = den
        values = map(mul, values, map(factor.__getitem__, dens))
    value = dict(zip(literals, values)).__getitem__
    pairs = zip(map(value, res), map(value, ims))
    # zip(*[it] * cols) groups it into rows of cols entries.
    return [_stored(tuple(zip(*[islice(pairs, rows * cols)] * cols)), den) for rows, cols in shapes]


def format_matrix(m: Matrix) -> list:
    """Each entry as format_scalar prints it, read off the stored form."""
    den, data = m._stored_form()
    return [
        [
            {"re": _format_rational(re, den), "im": _format_rational(im, den)}
            if im
            else _format_rational(re, den)
            for re, im in row
        ]
        for row in data
    ]


# -- documents --------------------------------------------------------------------


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} is not allowed")


# One decoder for every document (json.loads with keyword arguments builds a
# new decoder and scanner per call).  parse_float=str keeps the raw digits so
# 0.25 becomes Fraction("0.25") exactly instead of round-tripping through a
# binary float.
_DECODER = json.JSONDecoder(parse_float=str, parse_constant=_reject_constant)


def _loads(text: str, location: str) -> Any:
    try:
        # json.loads's own input checks: bytes are decoded, a leading
        # byte-order mark in text is refused.
        if isinstance(text, (bytes, bytearray)):
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        elif text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply", location) from None
    except ParseError:
        raise
    except ValueError as exc:
        # int() refuses a JSON integer of more digits than the interpreter
        # allows; any other ValueError (bytes that are not UTF-8) is raised
        # as it is.
        if "integer string conversion" not in str(exc):
            raise
        raise ParseError(f"a JSON integer has more than {MAX_DIGITS} digits", location) from None


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


def _problem_layout(doc: Any, location: str) -> tuple[int, list]:
    """n and the coefficient specs of a problem, its keys and n checked."""
    _require_keys(doc, ("n", "coefficients"), location)
    n = _positive_int(doc["n"], f"{location}.n")
    coeffs = doc["coefficients"]
    _require_keys(coeffs, COEFF_KEYS, f"{location}.coefficients")
    return n, [(coeffs[key], n, n, f"{location}.coefficients.{key}") for key in COEFF_KEYS]


def parse_problem_dict(doc: Any, location: str = "problem") -> QuadPoly2P:
    n, specs = _problem_layout(doc, location)
    return QuadPoly2P(n, *_matrices(specs))


def parse_problem(text: str) -> QuadPoly2P:
    return parse_problem_dict(_loads(text, "problem"))


def problem_to_dict(q: QuadPoly2P) -> dict:
    """The problem document, each coefficient kept as its Matrix."""
    return {
        "n": q.n,
        "coefficients": {key: getattr(q, key.lower()) for key in COEFF_KEYS},
    }


def parse_pencil(text: str) -> Pencil2P:
    doc = _loads(text, "pencil")
    _require_keys(doc, ("m", "A1hat", "A2hat", "A3hat"), "pencil")
    m = _positive_int(doc["m"], "pencil.m")
    return Pencil2P(m, *_matrices([(doc[key], m, m, f"pencil.{key}") for key in ("A1hat", "A2hat", "A3hat")]))


def pencil_to_dict(pencil: Pencil2P) -> dict:
    return {
        "m": pencil.m,
        "A1hat": pencil.lam_coeff,
        "A2hat": pencil.mu_coeff,
        "A3hat": pencil.const,
    }


def parse_system(text: str) -> QuadSystem2P:
    doc = _loads(text, "system")
    _require_keys(doc, ("Q1", "Q2"), "system")
    n1, specs = _problem_layout(doc["Q1"], "system.Q1")
    try:
        n2, more = _problem_layout(doc["Q2"], "system.Q2")
    except ParseError:
        _matrices(specs)  # a fault in Q1's entries is named before Q2's layout
        raise
    matrices = _matrices(specs + more)
    return QuadSystem2P(QuadPoly2P(n1, *matrices[:6]), QuadPoly2P(n2, *matrices[6:]))


def system_to_dict(system: QuadSystem2P) -> dict:
    return {
        "Q1": problem_to_dict(system.q1),
        "Q2": problem_to_dict(system.q2),
    }


def parse_blocks(text: str) -> FreeBlocks:
    doc = _loads(text, "blocks")
    _require_keys(doc, ("n", "Y1", "Z1", "Z2"), "blocks")
    n = _positive_int(doc["n"], "blocks.n")
    return FreeBlocks(n, *_matrices([(doc[key], 3 * n, n, f"blocks.{key}") for key in ("Y1", "Z1", "Z2")]))


def blocks_to_dict(blocks: FreeBlocks) -> dict:
    return {
        "n": blocks.n,
        "Y1": blocks.y1,
        "Z1": blocks.z1,
        "Z2": blocks.z2,
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
    out["x1"], out["x2"] = _matrices([(doc[key], None, 1, f"pair.{key}") for key in ("x1", "x2")])
    return out


# -- canonical text form ---------------------------------------------------------
#
# *_to_dict lays each document out once, each Matrix kept as it is.
# serialize_* writes the text of json.dumps(<its *_to_dict>, indent=2,
# default=format_matrix) plus a newline from that layout, each Matrix
# printed off its integer form.
# Every key is an ASCII name and every scalar string ASCII digits, "-" and
# "/", so nothing needs escaping.


def _text(value: Any, newline: str) -> str:
    """The json.dumps(..., indent=2) text of a document of dicts, ints and
    matrices, each matrix printed as format_matrix lays it out, for a value
    starting on a line of indentation newline[1:]."""
    if isinstance(value, Matrix):
        return _matrix_text(value, newline)
    if isinstance(value, dict):
        inner = newline + "  "
        fields = ("," + inner).join(f'"{key}": {_text(v, inner)}' for key, v in value.items())
        return "{" + inner + fields + newline + "}"
    return str(value)


def _matrix_text(m: Matrix, newline: str) -> str:
    """format_matrix(m) as json.dumps prints it, read off the stored form:
    one gcd per distinct numerator component."""
    den, data = m._stored_form()
    row_break = newline + "  "
    entry_break = row_break + "  "
    part_break = entry_break + "  "
    re_head = "{" + part_break + '"re": "'
    im_head = '",' + part_break + '"im": "'
    im_tail = '"' + entry_break + "}"
    components = set(chain.from_iterable(chain.from_iterable(data)))
    text = {c: _format_rational(c, den) for c in components}
    rows = []
    for row in data:
        entries = [
            f"{re_head}{text[re]}{im_head}{text[im]}{im_tail}" if im else f'"{text[re]}"'
            for re, im in row
        ]
        rows.append("[" + entry_break + ("," + entry_break).join(entries) + row_break + "]")
    return "[" + row_break + ("," + row_break).join(rows) + newline + "]"


def serialize_problem(q: QuadPoly2P) -> str:
    return _text(problem_to_dict(q), "\n") + "\n"


def serialize_pencil(pencil: Pencil2P) -> str:
    return _text(pencil_to_dict(pencil), "\n") + "\n"


def serialize_system(system: QuadSystem2P) -> str:
    return _text(system_to_dict(system), "\n") + "\n"


def serialize_blocks(blocks: FreeBlocks) -> str:
    return _text(blocks_to_dict(blocks), "\n") + "\n"
