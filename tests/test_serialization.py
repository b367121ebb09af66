import functools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilspace import Matrix, QuadPoly2P, standard_linearization
from pencilspace.cli import main
from pencilspace.errors import ParseError
from pencilspace.scalars import GaussianRational
from pencilspace import serialization as ser

from conftest import rand_quad

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_scalar_int():
    assert ser.parse_scalar(7, "t") == GaussianRational(7)


def test_scalar_decimal_literal_is_exact():
    # 0.25 arrives as the raw string via the parse_float hook; directly it
    # must also parse from its digits, never through a binary float.
    assert ser.parse_scalar("0.25", "t") == GaussianRational(Fraction(1, 4))
    assert ser.parse_scalar("1e-3", "t") == GaussianRational(Fraction(1, 1000))
    assert ser.parse_scalar("0.1", "t") == GaussianRational(Fraction(1, 10))


def test_scalar_fraction_string():
    assert ser.parse_scalar("-3/7", "t") == GaussianRational(Fraction(-3, 7))


def test_scalar_complex_pair():
    value = ser.parse_scalar({"re": "1/2", "im": -2}, "t")
    assert value == GaussianRational(Fraction(1, 2), -2)


def test_scalar_rejects_garbage():
    with pytest.raises(ParseError):
        ser.parse_scalar("one half", "t")
    with pytest.raises(ParseError):
        ser.parse_scalar(True, "t")
    with pytest.raises(ParseError):
        ser.parse_scalar([1], "t")
    with pytest.raises(ParseError):
        ser.parse_scalar({"re": 1, "imag": 2}, "t")


def test_rejects_non_finite_numbers():
    with pytest.raises(ParseError):
        ser.parse_problem('{"n": 1, "coefficients": {"A20": [[NaN]], "A11": [[0]], "A02": [[0]], "A10": [[0]], "A01": [[0]], "A00": [[0]]}}')


def test_format_scalar_round_trip():
    for value in (
        GaussianRational(3),
        GaussianRational(Fraction(-5, 4)),
        GaussianRational(Fraction(1, 2), Fraction(7, 3)),
        GaussianRational(0, -1),
    ):
        assert ser.parse_scalar(ser.format_scalar(value), "t") == value


def test_problem_round_trip(rng):
    q = rand_quad(rng, 2)
    assert ser.parse_problem(ser.serialize_problem(q)) == q


def test_pencil_round_trip(rng):
    pencil = standard_linearization(rand_quad(rng, 2))
    assert ser.parse_pencil(ser.serialize_pencil(pencil)) == pencil


def test_serialize_parse_byte_identity_on_corpus():
    cases = {
        "q_circle.json": (ser.parse_problem, ser.serialize_problem),
        "q_worked.json": (ser.parse_problem, ser.serialize_problem),
        "l_worked.json": (ser.parse_pencil, ser.serialize_pencil),
        "blocks_worked.json": (ser.parse_blocks, ser.serialize_blocks),
        "blocks_standard_circle.json": (ser.parse_blocks, ser.serialize_blocks),
        "sys_circle_line.json": (ser.parse_system, ser.serialize_system),
        "sys_rational_eig.json": (ser.parse_system, ser.serialize_system),
    }
    for name, (parse, serialize) in cases.items():
        text = (CORPUS / name).read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, name


CORPUS_READERS = {
    "q": (ser.parse_problem, ser.serialize_problem),
    "l": (ser.parse_pencil, ser.serialize_pencil),
    "blocks": (ser.parse_blocks, ser.serialize_blocks),
    "sys": (ser.parse_system, ser.serialize_system),
}
NON_CANONICAL_CORPUS = {
    "l_complex.json",
    "q_complex.json",
    "blocks_complex.json",
    "sys_complex.json",
}
_I = GaussianRational(0, 1)
_PLANTED_X2 = [GaussianRational(Fraction(-1, 3), Fraction(1, 2)), Fraction(3, 2)]
PAIRS = {
    "pair_rational_eig.json": (1, 3, [1], [1]),
    "pair_rational_wrong.json": (2, 7, [1], [1]),
    "pair_planted_2x2.json": (_I - 2, _I * 2 - 2, [2, 2 - _I], _PLANTED_X2),
    "pair_planted_2x2_wrong.json": (_I - 2, _I * 2 - 2, [3, 2 - _I], _PLANTED_X2),
}


@pytest.mark.parametrize("name", sorted(path.name for path in CORPUS.glob("*.json")))
def test_every_corpus_file_round_trips(name):
    # Canonical files come back byte for byte; the others reach a fixed point
    # after one round, with the values they were read as; pairs, which have
    # no writer, read as pinned; q_bad_literal keeps its error.
    text = (CORPUS / name).read_text(encoding="utf-8")
    if name == "q_bad_literal.json":
        with pytest.raises(ParseError) as info:
            ser.parse_problem(text)
        assert str(info.value) == (
            "problem.coefficients.A02[0][0].im: not an exact rational: '1/0' (Fraction(1, 0))"
        )
    elif name in PAIRS:
        lam, mu, x1, x2 = PAIRS[name]
        assert ser.parse_eigenpair(text) == {
            "lam": GaussianRational.coerce(lam),
            "mu": GaussianRational.coerce(mu),
            "x1": Matrix.column(x1),
            "x2": Matrix.column(x2),
        }
    else:
        parse, serialize = CORPUS_READERS[name.split("_")[0]]
        value = parse(text)
        once = serialize(value)
        assert parse(once) == value
        assert serialize(parse(once)) == once
        assert (once == text) is (name not in NON_CANONICAL_CORPUS)


def test_non_canonical_input_normalizes():
    # floats and reordered keys parse fine, and re-serialization is canonical
    text = (
        '{"coefficients": {"A00": [[-1]], "A20": [[1.0]], "A11": [[0]],'
        ' "A02": [[1]], "A10": [[0]], "A01": [[0]]}, "n": 1}'
    )
    q = ser.parse_problem(text)
    assert q == QuadPoly2P.scalar(a20=1, a02=1, a00=-1)
    canonical = ser.serialize_problem(q)
    assert ser.serialize_problem(ser.parse_problem(canonical)) == canonical


def test_problem_missing_and_extra_keys():
    with pytest.raises(ParseError):
        ser.parse_problem('{"n": 1}')
    with pytest.raises(ParseError):
        ser.parse_problem(
            '{"n": 1, "extra": 0, "coefficients": {"A20": [[1]], "A11": [[0]],'
            ' "A02": [[0]], "A10": [[0]], "A01": [[0]], "A00": [[0]]}}'
        )


def test_problem_shape_mismatch():
    with pytest.raises(ParseError) as info:
        ser.parse_problem(
            '{"n": 2, "coefficients": {"A20": [[1]], "A11": [[0]],'
            ' "A02": [[0]], "A10": [[0]], "A01": [[0]], "A00": [[0]]}}'
        )
    assert "A20" in str(info.value)


def test_pencil_requires_square():
    with pytest.raises(ParseError):
        ser.parse_pencil('{"m": 2, "A1hat": [[1, 0]], "A2hat": [[0, 0]], "A3hat": [[0, 0]]}')


def test_eigenpair_file():
    pair = ser.parse_eigenpair((CORPUS / "pair_rational_eig.json").read_text())
    assert pair["lam"] == GaussianRational(1)
    assert pair["mu"] == GaussianRational(3)
    assert pair["x1"] == Matrix.column([1])


def test_invalid_json_reports_location():
    with pytest.raises(ParseError) as info:
        ser.parse_problem("{not json")
    assert "line" in str(info.value)


def test_complex_matrix_round_trip():
    q = QuadPoly2P(
        1,
        Matrix([[GaussianRational(1, 1)]]),
        Matrix([[0]]),
        Matrix([[GaussianRational(0, Fraction(-2, 3))]]),
        Matrix([[1]]),
        Matrix([[0]]),
        Matrix([[-1]]),
    )
    assert ser.parse_problem(ser.serialize_problem(q)) == q


def _circle_with_a20(tmp_path, entry_json: str) -> str:
    """corpus/q_circle.json with A20 replaced by a raw JSON token."""
    doc = json.loads((CORPUS / "q_circle.json").read_text(encoding="utf-8"))
    doc["coefficients"]["A20"] = [["__A20__"]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc).replace('"__A20__"', entry_json), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("form", ["number", "string"])
@pytest.mark.parametrize("literal", ["1e10000000", "-1e-10000000", "1e5000", "1e-5000"])
def test_literal_too_long_to_print_exits_2_at_parse(tmp_path, capsys, literal, form):
    problem = _circle_with_a20(tmp_path, literal if form == "number" else json.dumps(literal))
    for command in ("standard", "dimension"):
        start = time.perf_counter()
        code = main([command, "-q", problem])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 1.0, (command, elapsed)
        assert "problem.coefficients.A20[0][0]" in err
        assert "more than" in err


@pytest.mark.parametrize("literal", ["1e1_000_000_000", "-1.5e-1_000_000_000"])
def test_huge_exponent_with_digit_separators_is_bounded(literal):
    # A regression would build a 10**1_000_000_000 (about 415 MB) before
    # failing, so the check runs in a child process with a timeout.
    script = (
        "import sys\n"
        "from pencilspace import serialization as ser\n"
        "ser.parse_rational(sys.argv[1], 't')"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, literal], capture_output=True, text=True, timeout=30
    )
    assert result.returncode == 1
    assert result.stderr.rstrip().endswith(
        f"t: {literal!r} has a numerator or denominator of more than {ser.MAX_DIGITS} digits"
    )


@pytest.mark.parametrize("count", [8601, 20_000])
def test_long_digit_run_is_rejected_without_backtracking(count):
    # A mantissa pattern that can split a digit run at every position takes
    # seconds on 20,000 nines before Fraction rejects the literal.
    literal = "9" * count
    with pytest.raises(ValueError) as reason:
        Fraction(literal)
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        ser.parse_rational(literal, "t")
    assert time.perf_counter() - start < 0.2
    assert str(info.value) == f"t: not an exact rational: {literal!r} ({reason.value})"


def test_zero_mantissa_with_huge_exponent_is_zero():
    assert ser.parse_scalar("0e10000000", "t") == GaussianRational(0)
    assert ser.parse_scalar("-0.0E-99999999", "t") == GaussianRational(0)


def test_literal_at_the_digit_limit_parses():
    limit = ser.MAX_DIGITS
    assert ser.parse_scalar(f"1e{limit - 1}", "t") == GaussianRational(10 ** (limit - 1))
    tiny = GaussianRational(Fraction(1, 10 ** (limit - 1)))
    assert ser.parse_scalar(f"1e-{limit - 1}", "t") == tiny
    with pytest.raises(ParseError):
        ser.parse_scalar(f"1e{limit}", "t")


@pytest.mark.parametrize("form", ["number", "string"])
def test_4000_digit_entry_round_trips_through_standard(tmp_path, capsys, form):
    digits = "7" * 4000
    problem = _circle_with_a20(tmp_path, digits if form == "number" else json.dumps(digits))
    code = main(["standard", "-q", problem])
    out = capsys.readouterr().out
    assert code == 0
    pencil = ser.parse_pencil(out.split("\n", 1)[1])
    assert pencil.lam_coeff[0, 0] == GaussianRational(int(digits))


# -- the integer-form matrix codec -----------------------------------------------

# Parts with large numerators and denominators, negative, zero and (as the
# imaginary part of a zero real part) pure-imaginary entries.
_parts = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**25)),
)
_entries = st.one_of(
    st.builds(GaussianRational, _parts, _parts),
    st.builds(GaussianRational, st.just(0), _parts),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matrix_codec_matches_the_per_entry_reference(data):
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    row = st.lists(_entries, min_size=cols, max_size=cols)
    m = Matrix(data.draw(st.lists(row, min_size=rows, max_size=rows)))
    printed = ser.format_matrix(m)
    assert printed == [[ser.format_scalar(m[i, j]) for j in range(cols)] for i in range(rows)]
    assert ser.parse_matrix(printed, rows, cols, "t") == m
    assert ser.parse_matrix(json.loads(json.dumps(printed)), rows, cols, "t") == m


_LIMIT = ser.MAX_DIGITS
ACCEPTED_LITERALS = [
    "0", "-0", "7", "-12", "007", "2/4", "-4/6", "0/5", "1_000", " 1/2 ", "+3",
    "1.5", "-0.25", "1e-3", "2.5E1", "١٢", "١/٢", "１２", "1_2/3_4", "1_0.2_5e-1_0",
    "9" * _LIMIT, "-" + "9" * _LIMIT, "1/" + "9" * _LIMIT,
]


@pytest.mark.parametrize(
    "text", ACCEPTED_LITERALS, ids=lambda text: text if len(text) < 20 else f"{len(text)} chars"
)
def test_literal_reads_as_fraction_does(text):
    # Fraction reads underscores between digits only from Python 3.11 on.
    value = Fraction(text.replace("_", ""))
    assert ser.parse_rational(text, "t") == (value.numerator, value.denominator)
    assert ser.parse_fraction(text, "t") == value
    assert ser.parse_scalar(text, "t") == GaussianRational(value)
    assert ser.parse_matrix([[text, {"re": text, "im": text}]], 1, 2, "t") == Matrix(
        [[value, GaussianRational(value, value)]]
    )


def _fraction_error(text: str) -> str:
    """The message of a literal Fraction rejects, as the parser words it."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"not an exact rational: {text!r} ({exc})"
    raise AssertionError(f"Fraction accepts {text!r}")


# (scalar, location suffix, message), the messages as earlier releases wrote them.
REJECTED_SCALARS = [
    ("1/0", "", "not an exact rational: '1/0' (Fraction(1, 0))"),
    ("1/-2", "", "not an exact rational: '1/-2' (Invalid literal for Fraction: '1/-2')"),
    ("", "", "not an exact rational: '' (Invalid literal for Fraction: '')"),
    ("²", "", "not an exact rational: '²' (Invalid literal for Fraction: '²')"),
    ("١/٠", "", _fraction_error("١/٠")),
    ("9" * (_LIMIT + 1), "", _fraction_error("9" * (_LIMIT + 1))),
    ("1__0", "", "not an exact rational: '1__0' (Invalid literal for Fraction: '1__0')"),
    ("_1", "", "not an exact rational: '_1' (Invalid literal for Fraction: '_1')"),
    ("1_", "", "not an exact rational: '1_' (Invalid literal for Fraction: '1_')"),
    ("1_.5", "", "not an exact rational: '1_.5' (Invalid literal for Fraction: '1_.5')"),
    ("1_/2", "", "not an exact rational: '1_/2' (Invalid literal for Fraction: '1_/2')"),
    (
        f"1e{_LIMIT}",
        "",
        f"'1e{_LIMIT}' has a numerator or denominator of more than {_LIMIT} digits",
    ),
    (True, "", "booleans are not scalars"),
    ([1], "", "cannot parse scalar from list"),
    ({"re": 1, "imag": 2}, "", "unknown scalar keys ['imag']"),
    ({"re": "1/0"}, ".re", "not an exact rational: '1/0' (Fraction(1, 0))"),
    ({"re": 1, "im": False}, ".im", "booleans are not scalars"),
    ({"re": {"im": 1}}, "", "re/im parts must themselves be rational"),
    ({"re": {"re": "x"}}, ".re.re", _fraction_error("x")),
]


@pytest.mark.parametrize(
    "value, suffix, message",
    REJECTED_SCALARS,
    ids=[repr(v) if len(repr(v)) < 30 else "long" for v, _, _ in REJECTED_SCALARS],
)
def test_rejected_scalar_keeps_its_message_and_location(value, suffix, message):
    with pytest.raises(ParseError) as info:
        ser.parse_scalar(value, "t")
    assert str(info.value) == f"t{suffix}: {message}"
    with pytest.raises(ParseError) as info:
        ser.parse_matrix([[0, value]], 1, 2, "m")
    assert str(info.value) == f"m[0][1]{suffix}: {message}"
    if isinstance(value, str):
        with pytest.raises(ParseError) as info:
            ser.parse_fraction(value, "-v")
        assert str(info.value) == f"-v: {message}"


# Canonical entries: a JSON int, "p", "p/q" and an {"re", "im"} pair of those.
_CANONICAL = [3, "-1/2", {"re": "2/3", "im": -1}, "0", "5", {"re": 0, "im": "7"}]


def _canonical_matrix(rows: int, cols: int, start: int = 0) -> list:
    return [[_CANONICAL[(start + i * cols + j) % 6] for j in range(cols)] for i in range(rows)]


def _document(kind: str, value, i: int, j: int) -> tuple[dict, str, Callable]:
    """A canonical document of kind with value at entry (i, j) of one of its
    matrices (entry i of a vector for a pair), the location of that entry
    and a reader of its value from the parsed document."""
    if kind == "pencil":
        keys = ("A1hat", "A2hat", "A3hat")
        doc = {"m": 3, **{key: _canonical_matrix(3, 3, k) for k, key in enumerate(keys)}}
        doc["A2hat"][i][j] = value
        return doc, f"pencil.A2hat[{i}][{j}]", lambda p: p.mu_coeff[i, j]
    if kind in ("problem", "system"):
        coefficients = {key: _canonical_matrix(3, 3, k) for k, key in enumerate(ser.COEFF_KEYS)}
        coefficients["A01"][i][j] = value
        problem = {"n": 3, "coefficients": coefficients}
        if kind == "problem":
            return problem, f"problem.coefficients.A01[{i}][{j}]", lambda q: q.a01[i, j]
        first = {"n": 3, "coefficients": {key: _canonical_matrix(3, 3) for key in ser.COEFF_KEYS}}
        doc = {"Q1": first, "Q2": problem}
        return doc, f"system.Q2.coefficients.A01[{i}][{j}]", lambda s: s.q2.a01[i, j]
    if kind == "blocks":
        keys = ("Y1", "Z1", "Z2")
        doc = {"n": 2, **{key: _canonical_matrix(6, 2, k) for k, key in enumerate(keys)}}
        doc["Z1"][i][j] = value
        return doc, f"blocks.Z1[{i}][{j}]", lambda b: b.z1[i, j]
    doc = {"lambda": "1/2", "mu": -3, "x1": _CANONICAL[:4], "x2": _CANONICAL[1:5]}
    doc["x2"][i] = value
    return doc, f"pair.x2[{i}]", lambda pair: pair["x2"][i, 0]


_READERS = {
    "pencil": ser.parse_pencil,
    "problem": ser.parse_problem,
    "system": ser.parse_system,
    "blocks": ser.parse_blocks,
    "pair": ser.parse_eigenpair,
}
# (i, j) after canonical entries in the same row and in earlier rows.
_POSITIONS = {
    "pencil": [(1, 1), (2, 2)],
    "problem": [(1, 1), (2, 2)],
    "system": [(1, 2), (2, 1)],
    "blocks": [(1, 1), (4, 1)],
    "pair": [(1, 0), (3, 0)],
}
_KIND_POSITIONS = [(kind, i, j) for kind, positions in _POSITIONS.items() for i, j in positions]


@pytest.mark.parametrize("kind, i, j", _KIND_POSITIONS)
@pytest.mark.parametrize(
    "value, suffix, message",
    [
        ("1/0", "", "not an exact rational: '1/0' (Fraction(1, 0))"),
        ("1_", "", "not an exact rational: '1_' (Invalid literal for Fraction: '1_')"),
        (True, "", "booleans are not scalars"),
        ({"re": "1/0"}, ".re", "not an exact rational: '1/0' (Fraction(1, 0))"),
    ],
    ids=["1/0", "1_", "True", "re-1/0"],
)
def test_rejected_entry_after_canonical_ones_keeps_its_message_and_location(
    kind, i, j, value, suffix, message
):
    doc, location, _ = _document(kind, value, i, j)
    with pytest.raises(ParseError) as info:
        _READERS[kind](json.dumps(doc))
    assert str(info.value) == f"{location}{suffix}: {message}"


@pytest.mark.parametrize("kind, i, j", _KIND_POSITIONS)
@pytest.mark.parametrize("text", ["007", " 1/2 ", "1_000"])
def test_accepted_entry_after_canonical_ones_reads_as_fraction_does(kind, i, j, text):
    doc, _, entry = _document(kind, text, i, j)
    value = Fraction(text.replace("_", ""))
    assert entry(_READERS[kind](json.dumps(doc))) == GaussianRational(value)


@pytest.mark.parametrize(
    "first, second, message",
    [
        (1, True, "booleans are not scalars"),
        (0, False, "booleans are not scalars"),
        (1, 1.0, "cannot parse scalar from float"),
        ({"re": 1, "im": 0}, {"re": True, "im": 0}, "booleans are not scalars"),
    ],
    ids=["1-True", "0-False", "1-float", "pair-True"],
)
def test_an_entry_equal_to_an_earlier_one_of_another_type_is_read_apart(first, second, message):
    # True == 1 == 1.0, yet a bool or float after an equal int is rejected.
    suffix = ".re" if isinstance(second, dict) else ""
    with pytest.raises(ParseError) as info:
        ser.parse_matrix([[first, second]], 1, 2, "m")
    assert str(info.value) == f"m[0][1]{suffix}: {message}"
    if not isinstance(second, float):
        doc, _, _ = _document("problem", second, 2, 2)
        doc["coefficients"]["A20"][0][0] = first
        with pytest.raises(ParseError) as info:
            ser.parse_problem(json.dumps(doc))
        assert str(info.value) == f"problem.coefficients.A01[2][2]{suffix}: {message}"


@pytest.mark.parametrize("value, suffix", [("x", ""), ({"re": "x", "im": 1}, ".re"), ([1], "")])
def test_a_rejected_entry_that_repeats_is_named_where_it_first_appears(value, suffix):
    with pytest.raises(ParseError) as info:
        ser.parse_matrix([["1", "2/3"], [value, value]], 2, 2, "m")
    assert str(info.value).startswith(f"m[1][0]{suffix}: ")


def test_the_first_fault_in_document_order_is_reported():
    # A rejected entry before a malformed row, matrix or vector is reported
    # first, and a malformed one before a later rejected entry.
    with pytest.raises(ParseError) as info:
        ser.parse_matrix([["1", "1/0"], "row"], 2, 2, "m")
    assert str(info.value).startswith("m[0][1]: not an exact rational")
    with pytest.raises(ParseError) as info:
        ser.parse_matrix([["1", "2"], ["x", "3"], ["4"]], 3, 2, "m")
    assert str(info.value).startswith("m[1][0]: not an exact rational")
    with pytest.raises(ParseError) as info:
        ser.parse_matrix([["1", "2"], ["3"], ["x", "y"]], 3, 2, "m")
    assert str(info.value) == "m: row 1 must be a list of 2 scalars"
    doc, _, _ = _document("problem", "1/0", 2, 2)
    doc["coefficients"]["A00"] = [["1"]]
    with pytest.raises(ParseError) as info:
        ser.parse_problem(json.dumps(doc))
    assert str(info.value).startswith("problem.coefficients.A01[2][2]: not an exact rational")
    doc["coefficients"]["A01"], doc["coefficients"]["A00"][0][0] = [["1"]], "1/0"
    with pytest.raises(ParseError) as info:
        ser.parse_problem(json.dumps(doc))
    assert str(info.value) == "problem.coefficients.A01: expected 3 rows, found 1"
    doc, _, _ = _document("pair", "x", 1, 0)
    doc["x1"], doc["x2"] = doc["x2"], "x"
    with pytest.raises(ParseError) as info:
        ser.parse_eigenpair(json.dumps(doc))
    assert str(info.value).startswith("pair.x1[1]: not an exact rational")


@pytest.mark.parametrize("kind", list(_READERS))
@pytest.mark.parametrize("value", [5, None, True, {}], ids=["5", "null", "true", "object"])
def test_a_matrix_that_is_not_a_list_is_a_parse_error(kind, value):
    doc, location, _ = _document(kind, 0, 0, 0)
    if kind == "pencil":
        doc["A2hat"] = value
    elif kind == "problem":
        doc["coefficients"]["A01"] = value
    elif kind == "system":
        doc["Q2"]["coefficients"]["A01"] = value
    elif kind == "blocks":
        doc["Z1"] = value
    else:
        doc["x2"] = value
    with pytest.raises(ParseError) as info:
        _READERS[kind](json.dumps(doc))
    noun = "scalars" if kind == "pair" else "rows"
    assert str(info.value) == f"{location.partition('[')[0]}: expected a non-empty list of {noun}"


def test_bytes_that_are_not_utf8_keep_their_decode_error():
    # json.loads also reads bytes; only the digit limit's ValueError is
    # named as such.
    with pytest.raises(UnicodeDecodeError):
        ser.parse_pencil(b'{"m": 1, "A1hat": [["\x80"]]}')


_DIGITS = "1" * 5000


@pytest.mark.parametrize("kind", list(_READERS))
@pytest.mark.parametrize("sign", ["", "-"])
def test_json_integer_past_the_digit_limit_is_a_parse_error(kind, sign, tmp_path, capsys):
    doc, _, _ = _document(kind, "__BIG__", 1, 0)
    text = json.dumps(doc).replace('"__BIG__"', sign + _DIGITS)
    with pytest.raises(ParseError) as info:
        _READERS[kind](text)
    assert str(info.value) == f"{kind}: a JSON integer has more than {ser.MAX_DIGITS} digits"
    if kind == "problem":
        path = tmp_path / "problem.json"
        path.write_text(text, encoding="utf-8")
        assert main(["standard", "-q", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {info.value}\n"


@pytest.mark.parametrize("kind", list(_READERS))
@pytest.mark.parametrize("sign", ["", "-"])
def test_json_integer_at_the_digit_limit_parses(kind, sign):
    digits = "7" * ser.MAX_DIGITS
    doc, _, entry = _document(kind, "__BIG__", 1, 0)
    text = json.dumps(doc).replace('"__BIG__"', sign + digits)
    assert entry(_READERS[kind](text)) == GaussianRational(int(sign + digits))


def test_flat_matrix_codec_builds_no_fraction_or_gaussian_rational():
    doc = [["1", "-2/4", {"re": "1/3", "im": -1}], [0, {"im": "5/6"}, "7"]]
    m = ser.parse_matrix(doc, 2, 3, "t")
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(("fractions.py", "scalars.py")):
            seen.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        ser.parse_matrix(doc, 2, 3, "t")
        ser.format_matrix(m)
    finally:
        sys.setprofile(None)
    assert seen == set()


def test_pencil_document_codec_builds_no_fraction_or_gaussian_rational(rng):
    # A whole canonical n = 3 pencil document: "p/q" strings, JSON ints and
    # {"re", "im"} pairs, read and written back.
    pencil = standard_linearization(rand_quad(rng, 3))
    text = ser.serialize_pencil(pencil)
    doc = json.loads(text)
    doc["A1hat"] = [
        [int(v) if type(v) is str and "/" not in v else v for v in row] for row in doc["A1hat"]
    ]
    integer_text = json.dumps(doc)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(("fractions.py", "scalars.py")):
            seen.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        parsed = ser.parse_pencil(text)
        ser.parse_pencil(integer_text)
        written = ser.serialize_pencil(parsed)
    finally:
        sys.setprofile(None)
    assert seen == set()
    assert parsed == pencil and written == text


def test_nesting_past_the_bound_names_the_outermost_scalar(monkeypatch):
    monkeypatch.setattr(ser, "MAX_NESTING", 3)
    assert ser.parse_scalar({"re": {"re": {"re": "1/2"}}}, "t") == GaussianRational(Fraction(1, 2))
    assert ser.parse_scalar({"im": {"re": {"re": -2}}}, "t") == GaussianRational(0, -2)
    for value in ({"re": {"re": {"re": {"re": 1}}}}, {"im": {"re": {"im": {"re": 1}}}}):
        with pytest.raises(ParseError) as info:
            ser.parse_matrix([[value]], 1, 1, "m")
        assert str(info.value) == "m[0][0]: scalar nested too deeply"


# -- the document pass against the general reader -------------------------------------

# Literals the document pass declines, each read or rejected by the general
# reader: non-ASCII digits, a sign or separator, decimals, exponents, "p/",
# a negative or zero denominator, over-long digit strings.
_ODD_LITERALS = [
    "3/", "1/-2", "1/0", "0/0", "٣", "+2", " 4", "1_0", "0.5", "-1e3", "", "-", "/3",
    "1/2/3", "--1", "9" * (_LIMIT + 1), "-" + "9" * _LIMIT, "1/" + "0" * _LIMIT + "7",
]
# Canonical literals, with unreduced "p/q" among them.
_CANONICAL_LITERALS = [str(Fraction(p, q)) for p in range(-9, 10) for q in (1, 2, 3, 7)] + ["2/4", "-6/9", "0/5", "12/12"]
_ODD_SCALARS = [
    *_ODD_LITERALS, 0, -3, 5, 0.25, -1.5, True, False, None, [1], {},
    {"re": "1/0", "im": "1"}, {"re": "٣", "im": "0"}, {"re": "2/3"}, {"im": "-1"},
    {"re": {"re": "1"}, "im": "0"}, {"re": "1", "im": "2", "x": "3"}, {"re": 1, "im": "1/2"},
]


def _canonical_scalar(rng) -> Any:
    re = rng.choice(_CANONICAL_LITERALS)
    return {"re": re, "im": rng.choice(_CANONICAL_LITERALS)} if rng.random() < 0.3 else re


def _drawn_matrix(data, rng, odd: bool, rows: int, cols: Optional[int]) -> Any:
    """A matrix (a vector when cols is None) of canonical entries; when odd,
    now and then a few odd entries or a bad shape."""
    width = 1 if cols is None else cols
    grid = [[_canonical_scalar(rng) for _ in range(width)] for _ in range(rows)]
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2])) if odd else 0):
        grid[rng.randrange(rows)][rng.randrange(width)] = data.draw(st.sampled_from(_ODD_SCALARS))
    value = [row[0] for row in grid] if cols is None else grid
    fault = data.draw(st.integers(0, 24)) if odd else None
    if fault == 0:
        value = value[:-1]
    elif fault == 1 and cols is not None:
        value[-1] = value[-1][:-1]
    elif fault == 2 and cols is not None:
        value[0] = "row"
    elif fault == 3:
        value = {}
    return value


def _drawn_document(data, rng, odd: bool, kind: str) -> dict:
    n = data.draw(st.integers(1, 2))
    if kind == "problem":
        return {"n": n, "coefficients": {key: _drawn_matrix(data, rng, odd, n, n) for key in ser.COEFF_KEYS}}
    if kind == "system":
        return {"Q1": _drawn_document(data, rng, odd, "problem"), "Q2": _drawn_document(data, rng, odd, "problem")}
    if kind == "pencil":
        m = 3 * n
        return {"m": m, **{key: _drawn_matrix(data, rng, odd, m, m) for key in ("A1hat", "A2hat", "A3hat")}}
    if kind == "blocks":
        return {"n": n, **{key: _drawn_matrix(data, rng, odd, 3 * n, n) for key in ("Y1", "Z1", "Z2")}}
    return {
        "lambda": _canonical_scalar(rng),
        "mu": _canonical_scalar(rng),
        "x1": _drawn_matrix(data, rng, odd, n + 1, None),
        "x2": _drawn_matrix(data, rng, odd, n, None),
    }


def _read_forms(read: Callable, text: str) -> Any:
    """The integer form of every matrix and scalar read, or the ParseError text."""
    try:
        value = read(text)
    except ParseError as exc:
        return str(exc)
    values = value.values() if isinstance(value, dict) else value
    forms = []
    for v in values:
        if isinstance(v, QuadPoly2P):
            forms += [c.integer_form() for c in v[1:]]
        elif isinstance(v, Matrix):
            forms.append(v.integer_form())
        elif isinstance(v, GaussianRational):
            forms.append((v.re, v.im))
        else:
            forms.append(v)
    return forms


def _general_reader(monkeypatch) -> None:
    monkeypatch.setattr(ser, "_canonical_matrices", lambda specs: None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_document_pass_reads_as_the_general_reader_does(data):
    # Canonical documents, and documents with odd entries or bad shapes:
    # the document pass and the general reader give the same integer forms
    # or the same ParseError, message and location.
    kind = data.draw(st.sampled_from(sorted(_READERS)))
    rng = data.draw(st.randoms(use_true_random=False))
    text = json.dumps(_drawn_document(data, rng, data.draw(st.booleans()), kind))
    read = _READERS[kind]
    through_pass = _read_forms(read, text)
    with pytest.MonkeyPatch.context() as patch:
        _general_reader(patch)
        assert _read_forms(read, text) == through_pass


@pytest.mark.parametrize("name", sorted(path.name for path in CORPUS.glob("*.json")))
def test_every_corpus_file_reads_as_the_general_reader_reads_it(name, monkeypatch):
    read = _READERS[{"q": "problem", "l": "pencil", "sys": "system"}.get(name.split("_")[0], name.split("_")[0])]
    text = (CORPUS / name).read_text(encoding="utf-8")
    through_pass = _read_forms(read, text)
    _general_reader(monkeypatch)
    assert _read_forms(read, text) == through_pass



@functools.cache
def _canonical_documents() -> dict:
    """One document of each kind as serialize_* writes it (a pair as JSON of
    canonical strings), and where one of its entries sits."""
    from pencilspace import FreeBlocks, QuadSystem2P

    rng = random.Random(48)
    q = rand_quad(rng, 2)
    blocks = FreeBlocks(2, *(Matrix([[GaussianRational(i - j, k) for j in range(2)] for i in range(6)]) for k in range(3)))
    pair = {"lambda": "1/2", "mu": {"re": "0", "im": "-3"}, "x1": ["1", {"re": "2/3", "im": "1"}], "x2": ["-4", "5/7"]}
    return {
        "problem": (ser.serialize_problem(q), ("coefficients", "A01", 1, 0)),
        "pencil": (ser.serialize_pencil(standard_linearization(q)), ("A2hat", 2, 1)),
        "system": (ser.serialize_system(QuadSystem2P(q, rand_quad(rng, 1))), ("Q2", "coefficients", "A00", 0, 0)),
        "blocks": (ser.serialize_blocks(blocks), ("Z1", 3, 1)),
        "pair": (json.dumps(pair), ("x2", 1)),
    }


_UNREDUCED = ["2/4", "-0/3", "6/3"]


@pytest.mark.parametrize("kind", sorted(_READERS))
@pytest.mark.parametrize("literal", _UNREDUCED)
def test_unreduced_literals_read_as_the_general_reader_reads_them(kind, literal, monkeypatch):
    # The document pass keeps each matrix over the document's denominator,
    # not reduced; an entry written "2/4", "-0/3" or "6/3", alone or as a
    # complex part, still reads as the general reader reads it: the same
    # canonical integer forms, and values that compare equal.
    text, path = _canonical_documents()[kind]
    doc = json.loads(text)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = literal
    target[path[-1] - 1] = {"re": "1/3", "im": literal}
    text = json.dumps(doc)
    read = ser._canonical_matrices
    passes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ser, "_canonical_matrices", lambda specs: passes.append(read(specs)) or passes[-1])
        through_pass = _read_forms(_READERS[kind], text)
        value = _READERS[kind](text)
    assert passes and all(p is not None for p in passes)
    _general_reader(monkeypatch)
    assert _read_forms(_READERS[kind], text) == through_pass
    assert _READERS[kind](text) == value


# The general reader takes about 0.2 s on each over-long literal, so those
# go into one kind of document only.
_KIND_ODD_SCALARS = [
    (kind, value)
    for kind in sorted(_READERS)
    for value in _ODD_SCALARS
    if kind == "problem" or not isinstance(value, str) or len(value) <= _LIMIT
]


@pytest.mark.parametrize(
    "kind, value", _KIND_ODD_SCALARS, ids=[f"{k}-{v!r}" if len(repr(v)) < 20 else f"{k}-long" for k, v in _KIND_ODD_SCALARS]
)
def test_one_odd_entry_in_a_canonical_document_reads_as_the_general_reader_reads_it(kind, value, monkeypatch):
    text, path = _canonical_documents()[kind]
    doc = json.loads(text)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    text = json.dumps(doc)
    through_pass = _read_forms(_READERS[kind], text)
    _general_reader(monkeypatch)
    assert _read_forms(_READERS[kind], text) == through_pass

def test_a_canonical_document_makes_no_scalar_parts_call(monkeypatch):
    # Every entry of a document serialize_* writes is read by the document
    # pass; only a pair's lambda and mu are read as scalars.
    calls = []
    scalar_parts = ser._scalar_parts
    monkeypatch.setattr(ser, "_scalar_parts", lambda value, location, depth=0: calls.append(location) or scalar_parts(value, location, depth))
    for kind, (text, _) in _canonical_documents().items():
        _READERS[kind](text)
    assert {location.split(".")[1] for location in calls} == {"lambda", "mu"}


# -- the indented printer --------------------------------------------------------------


def _block_matrix(data, rows, cols):
    """A random matrix, or now and then the zero matrix."""
    if data.draw(st.integers(0, 4)) == 0:
        return Matrix.zeros(rows, cols)
    row = st.lists(_entries, min_size=cols, max_size=cols)
    return Matrix(data.draw(st.lists(row, min_size=rows, max_size=rows)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_serializers_print_what_json_dumps_indent_2_prints(data):
    # n = 1-3; zero matrices, pure-imaginary entries, denominators above 1
    # and numerators up to 10**40 (from _entries).
    from pencilspace import FreeBlocks, Pencil2P, QuadSystem2P

    n = data.draw(st.integers(1, 3))
    q1, q2 = (QuadPoly2P(n, *(_block_matrix(data, n, n) for _ in range(6))) for _ in range(2))
    pencil = Pencil2P(n, *(_block_matrix(data, n, n) for _ in range(3)))
    blocks = FreeBlocks(n, *(_block_matrix(data, 3 * n, n) for _ in range(3)))
    for value, to_dict, serialize in (
        (q1, ser.problem_to_dict, ser.serialize_problem),
        (pencil, ser.pencil_to_dict, ser.serialize_pencil),
        (QuadSystem2P(q1, q2), ser.system_to_dict, ser.serialize_system),
        (blocks, ser.blocks_to_dict, ser.serialize_blocks),
    ):
        assert serialize(value) == json.dumps(to_dict(value), indent=2, default=ser.format_matrix) + "\n"
