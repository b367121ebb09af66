"""Golden CLI transcript: stdout, stderr and exit code.

Each entry of ``golden/cli_transcript.json`` is one in-process run of
``pencilspace.cli.main`` on the shipped ``corpus/`` files, with paths
relative to the repository root, and every one of the twelve subcommands
has entries.  The test replays every command and compares exit code and
stderr byte for byte, and stdout byte for byte too except for ``spectrum``
and ``compare``: they print float roots, whose last digits may move with
the BLAS, so their stdout must match with every coordinate pair and
residual masked, and each coordinate within COORD_TOL relative to
max(1, |recorded value|) -- the rule the benchmark harness applies to the
same commands.  A refactor that changes any exact value, verdict or exit
code fails here.

To record the commands of COMMANDS that the transcript does not hold yet,
keeping every recorded entry byte for byte:

    PYTHONPATH=src python tests/test_cli_golden.py

To re-record everything after a deliberate output change (say so in
CHANGES.md), delete the transcript first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from pencilspace import cli
from pencilspace.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli_transcript.json"

Q_CIRCLE = "corpus/q_circle.json"
Q_WORKED = "corpus/q_worked.json"
L_WORKED = "corpus/l_worked.json"
L_STANDARD = "corpus/l_standard_worked.json"
L_ALIGNED = "corpus/l_aligned_worked.json"
B_WORKED = "corpus/blocks_worked.json"
B_CIRCLE = "corpus/blocks_standard_circle.json"
SYS_CL = "corpus/sys_circle_line.json"
SYS_RE = "corpus/sys_rational_eig.json"
# Complex {"re", "im"} entries and non-canonical literals: decimals,
# exponents, unreduced p/q, "+" signs, whitespace, underscores, Unicode digits.
Q_COMPLEX = "corpus/q_complex.json"
L_COMPLEX = "corpus/l_complex.json"
B_COMPLEX = "corpus/blocks_complex.json"
SYS_COMPLEX = "corpus/sys_complex.json"
Q_BAD = "corpus/q_bad_literal.json"
PAIR_RE = "corpus/pair_rational_eig.json"
# A pair that is no eigenpair: every residual is nonzero, so each norm and
# each scale-dependent verdict is printed.
PAIR_WRONG = "corpus/pair_rational_wrong.json"
# A (2,2) system with a planted complex eigenpair, so that the operators are
# 36 x 36, and the same pair with x1[0] changed from 2 to 3.
SYS_PLANTED = "corpus/sys_planted_2x2.json"
PAIR_PLANTED = "corpus/pair_planted_2x2.json"
PAIR_PLANTED_WRONG = "corpus/pair_planted_2x2_wrong.json"
# l_worked with its last A3hat entry changed from 4 to 5: the ansatz identity
# fails at the last entry that membership and certify compare.
L_BUMPED = "corpus/l_worked_bumped.json"

COMMANDS = [
    ["standard", "-q", Q_CIRCLE],
    ["standard", "-q", Q_WORKED],
    ["member", "-q", Q_WORKED, "-l", L_WORKED],
    ["member", "-q", Q_WORKED, "-l", L_STANDARD],
    ["member", "-q", Q_WORKED, "-l", L_ALIGNED],
    ["member", "-q", Q_CIRCLE, "-l", L_WORKED],
    ["generate", "-q", Q_WORKED, "-v", "1,1,2", "--blocks", B_WORKED],
    ["generate", "-q", Q_WORKED, "-v", "-1/2,3,0", "--blocks", B_WORKED],
    ["generate", "-q", Q_WORKED, "-v", "0,0,0", "--blocks", B_WORKED],
    ["generate", "-q", Q_CIRCLE, "-v", "1,0,0", "--blocks", B_CIRCLE],
    ["generate", "-q", Q_CIRCLE, "-v", "1,0,0", "--blocks", B_WORKED],
    ["kernel", "--blocks", B_WORKED],
    ["kernel", "--blocks", B_CIRCLE],
    ["dimension", "-q", Q_CIRCLE],
    ["dimension", "-q", Q_WORKED],
    ["procedure", "-q", Q_CIRCLE, "-v", "1,1,2", "--alpha", "1", "--seed", "7"],
    ["procedure", "-q", Q_CIRCLE, "-v", "0,2,3", "--alpha", "2", "--seed", "99"],
    ["procedure", "-q", Q_WORKED, "-v", "1,1,2", "--alpha", "3/2", "--seed", "4"],
    ["procedure", "-q", Q_WORKED, "-v", "0,1,-1", "--seed", "1"],
    ["procedure", "-q", Q_WORKED, "-v", "0,0,5", "--alpha", "-2", "--seed", "2"],
    ["procedure", "-q", Q_WORKED, "-v", "2,0,1", "--seed", "3"],
    ["procedure", "-q", Q_WORKED, "-v", "-1,0,0", "--blocks", B_WORKED, "--seed", "5"],
    ["procedure", "-q", Q_WORKED, "-v", "1,1,0", "--seed", "6"],
    ["procedure", "-q", Q_WORKED, "-v", "0,1/3,0", "--seed", "7"],
    ["procedure", "-q", Q_CIRCLE, "-v", "0,0,0", "--seed", "0"],
    ["certify", "-q", Q_WORKED, "-l", L_WORKED],
    ["certify", "-q", Q_WORKED, "-l", L_STANDARD],
    ["certify", "-q", Q_WORKED, "-l", L_ALIGNED],
    ["certify", "-q", Q_CIRCLE, "-l", L_WORKED],
    ["qep-linearize", "-s", SYS_CL],
    ["qep-linearize", "-s", SYS_RE],
    ["qep-linearize", "-s", SYS_CL, "--seed", "3"],
    ["qep-linearize", "-s", SYS_RE, "--alpha1", "-1/2", "--alpha2", "3"],
    ["delta", "-s", SYS_CL],
    ["delta", "-s", SYS_RE],
    ["delta", "-s", SYS_CL, "--seed", "5"],
    ["delta", "-s", SYS_RE, "--alpha1", "2", "--alpha2", "-1/3", "--seed", "8"],
    ["standard", "-q", Q_COMPLEX],
    ["standard", "-q", Q_BAD],
    ["member", "-q", Q_COMPLEX, "-l", L_COMPLEX],
    ["member", "-q", Q_WORKED, "-l", L_COMPLEX],
    ["generate", "-q", Q_COMPLEX, "-v", "1,0,0", "--blocks", B_COMPLEX],
    ["generate", "-q", Q_COMPLEX, "-v", " +1/2,1_0,1e-1", "--blocks", B_COMPLEX],
    ["generate", "-q", Q_COMPLEX, "-v", "1/-2,0,0", "--blocks", B_COMPLEX],
    ["kernel", "--blocks", B_COMPLEX],
    ["procedure", "-q", Q_COMPLEX, "-v", "0,2/4,-1", "--alpha", "0.5", "--seed", "3"],
    ["certify", "-q", Q_COMPLEX, "-l", L_COMPLEX],
    ["certify", "-q", Q_WORKED, "-l", L_COMPLEX],
    ["qep-linearize", "-s", SYS_COMPLEX],
    ["qep-linearize", "-s", SYS_COMPLEX, "--seed", "2", "--alpha1", "2/6", "--alpha2", "-1.5"],
    ["spectrum", "-s", SYS_CL],
    ["spectrum", "-s", SYS_RE],
    ["spectrum", "-s", SYS_COMPLEX],
    ["compare", "-s", SYS_CL],
    ["compare", "-s", SYS_RE],
    ["compare", "-s", SYS_COMPLEX],
    ["compare", "-s", SYS_CL, "--seed", "3"],
    ["compare", "-s", SYS_RE, "--seed", "4", "--alpha1", "-1/2", "--alpha2", "3"],
    ["compare", "-s", SYS_COMPLEX, "--seed", "2"],
    ["verify-pair", "-s", SYS_RE, "--pair", PAIR_RE],
    ["verify-pair", "-s", SYS_RE, "--pair", PAIR_WRONG],
    ["verify-pair", "-s", SYS_RE, "--pair", PAIR_WRONG, "--tol", "0.5"],
    ["delta", "-s", SYS_COMPLEX, "--seed", "3"],
    ["procedure", "-q", Q_CIRCLE, "-v", "1,1,2", "--blocks", B_WORKED],
    ["procedure", "-q", Q_WORKED, "-v", "1,1,2", "--blocks", B_CIRCLE],
    ["delta", "-s", SYS_PLANTED, "--seed", "3"],
    ["verify-pair", "-s", SYS_PLANTED, "--pair", PAIR_PLANTED],
    ["verify-pair", "-s", SYS_PLANTED, "--pair", PAIR_PLANTED, "--seed", "3"],
    ["verify-pair", "-s", SYS_PLANTED, "--pair", PAIR_PLANTED_WRONG, "--seed", "3"],
    # Verdicts that the (2,2) scales decide: Delta1 ok and Delta2 FAIL, then
    # Q1 FAIL and L1 ok at equal norms.
    ["verify-pair", "-s", SYS_PLANTED, "--pair", PAIR_PLANTED_WRONG, "--tol", "0.02"],
    ["verify-pair", "-s", SYS_PLANTED, "--pair", PAIR_PLANTED_WRONG, "--seed", "3", "--tol", "0.1"],
    ["member", "-q", Q_WORKED, "-l", L_BUMPED],
    ["certify", "-q", Q_WORKED, "-l", L_BUMPED],
]


FLOAT_COMMANDS = frozenset({"spectrum", "compare"})
COORD_TOL = 1e-7
_NUMBER = r"(-?(?:\d+\.?\d*(?:e[+-]?\d+)?|nan|inf))"
_PAIR = re.compile(rf"\({_NUMBER}, {_NUMBER}\)")
_RESIDUAL = re.compile(r"residual = \S+")


def _masked(stdout: str) -> tuple[str, list[float]]:
    """stdout with coordinate pairs and residuals masked, and the coordinates."""
    coords = [float(x) for match in _PAIR.finditer(stdout) for x in match.groups()]
    return _RESIDUAL.sub("residual = #", _PAIR.sub("(#)", stdout)), coords


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def record() -> None:
    """Write the transcript in COMMANDS order: the entries it holds, as they
    are, and a new run of each command it does not hold."""
    os.chdir(ROOT)
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    recorded = {tuple(e["argv"]): e for e in _entries()} if TRANSCRIPT.exists() else {}
    entries = [recorded.get(tuple(argv)) or _run(argv) for argv in COMMANDS]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def _entries() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


def test_transcript_covers_the_command_list():
    assert [entry["argv"] for entry in _entries()] == COMMANDS


def _assert_matches(actual: dict, expected: dict) -> None:
    if expected["argv"][0] not in FLOAT_COMMANDS:
        assert actual == expected
        return
    assert (actual["exit"], actual["stderr"]) == (expected["exit"], expected["stderr"])
    text, coords = _masked(actual["stdout"])
    want_text, want_coords = _masked(expected["stdout"])
    assert text == want_text
    assert len(coords) == len(want_coords)
    for got, want in zip(coords, want_coords):
        assert abs(got - want) <= COORD_TOL * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize(
    "index", range(len(COMMANDS)), ids=[" ".join(a).replace("corpus/", "") for a in COMMANDS]
)
def test_cli_output_is_byte_identical(index, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = _entries()[index]
    _assert_matches(_run(expected["argv"]), expected)


def _argparse_exit(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


def test_no_state_crosses_calls(monkeypatch):
    """Argparse exits interleaved with the whole transcript, in reverse
    order, in one process: every entry still matches, and every exit
    prints what it printed the first time."""
    monkeypatch.chdir(ROOT)
    entries = _entries()[::-1]
    # Reversed, the seeded compare runs before the unseeded one on the same
    # system, whose --seed must be back at its default None.
    argvs = [entry["argv"] for entry in entries]
    assert argvs.index(["compare", "-s", SYS_CL, "--seed", "3"]) < argvs.index(["compare", "-s", SYS_CL])
    probes = [
        ["spectrum", "-s", SYS_CL, "--tol", "nan"],
        ["certify", "-h"],
        ["standard"],
        [],
    ]
    first = {}
    for i, entry in enumerate(entries):
        result = _argparse_exit(probes[i % len(probes)])
        assert first.setdefault(i % len(probes), result) == result
        _assert_matches(_run(entry["argv"]), entry)
    tol, help_text, no_problem, empty = (first[k] for k in range(len(probes)))
    assert tol[0] == 2 and "argument --tol: must be a finite positive number, not 'nan'" in tol[2]
    assert help_text[0] == 0 and help_text[1].startswith("usage: pencilspace certify") and not help_text[2]
    assert no_problem[0] == 2 and "required: -q/--problem" in no_problem[2]
    assert empty[0] == 2 and "required: command" in empty[2]


# Argument lists main hands straight to a subparser, and every kind it must
# leave to the full parser: help, no command, an unknown command, left-over
# arguments, and each error a subparser raises.
ARGPARSE_PROBES = [
    ["-h"],
    ["--help"],
    ["certify", "-h"],
    [],
    ["nope", "-q", Q_WORKED],
    ["cert", "-q", Q_WORKED, "-l", L_WORKED],
    ["-q", Q_WORKED],
    ["certify", "-q", Q_WORKED, "-l", L_WORKED, "--extra"],
    ["certify", "-q", Q_WORKED, "-l", L_WORKED, "extra"],
    ["certify", "-q", Q_WORKED],
    ["procedure", "-q", Q_WORKED, "-v", "1,1,2", "--seed", "x"],
    ["compare", "-s", SYS_CL, "--tol", "nan"],
    ["certify", "--prob", Q_WORKED, "-l", L_WORKED],
    ["certify", "--", "-q", Q_WORKED],
    ["procedure", "-q", Q_WORKED, "-v", "-1,1,2"],
]


def _parse_outcome(parse, argv: list[str]) -> tuple:
    """(Namespace without its handler, or the SystemExit code), stdout and
    stderr of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(list(argv)))
            args = {key: value for key, value in args.items() if key != "handler"}
        except SystemExit as exc:
            args = exc.code
    return args, out.getvalue(), err.getvalue()


def test_main_parses_as_the_full_parser_does(monkeypatch):
    # main hands argv[1:] to the subparser; what it passes each handler,
    # and every usage, help and error it prints, must be the full parser's.
    parser, commands = cli._build_parser()
    seen = []
    for sub in commands.values():
        sub.set_defaults(handler=lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli, "_parser", lambda: (parser, commands))

    def through_main(argv):
        assert main(argv) == 0
        return seen.pop()

    argvs = [entry["argv"] for entry in _entries()] + ARGPARSE_PROBES
    for argv in argvs:
        assert _parse_outcome(through_main, argv) == _parse_outcome(cli.build_parser().parse_args, argv), argv
    # A command with nothing left over never reaches the top-level parser.
    monkeypatch.setattr(parser, "parse_args", None)
    for argv in argvs[:3]:
        _parse_outcome(through_main, argv)


if __name__ == "__main__":
    record()
