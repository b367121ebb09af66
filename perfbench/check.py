"""Task outcomes and their comparison with the stored reference.

Exact commands are compared byte for byte (through a SHA-256 of stdout)
together with the exit code.  ``spectrum`` and ``compare`` print floating
point roots: their text with every coordinate pair and residual masked must
match exactly, the number of coordinates must match, and each coordinate
must agree within COORD_TOL relative to max(1, |reference value|).
Residuals are not compared; the program only prints points whose residual
passed its own filter.
"""

from __future__ import annotations

import hashlib
import re

TOLERANT_COMMANDS = frozenset({"spectrum", "compare"})
COORD_TOL = 1e-7
_NUMBER = r"(-?(?:\d+\.?\d*(?:e[+-]?\d+)?|nan|inf))"
_PAIR = re.compile(rf"\({_NUMBER}, {_NUMBER}\)")
_RESIDUAL = re.compile(r"residual = \S+")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(command: str, exit_code, stdout: str) -> dict:
    """The comparable summary of one task's result.

    ``exit_code`` is the int returned by ``cli.main``, or a string naming
    an uncaught exception or SystemExit.
    """
    if command in TOLERANT_COMMANDS:
        coords = [float(x) for match in _PAIR.finditer(stdout) for x in match.groups()]
        masked = _RESIDUAL.sub("residual = #", _PAIR.sub("(#)", stdout))
        return {"exit": exit_code, "masked_sha256": _sha(masked), "coords": coords}
    return {"exit": exit_code, "stdout_sha256": _sha(stdout)}


def is_failure(exit_code) -> bool:
    """Exit 3 (numeric non-convergence) or anything that is not an exit code."""
    return not isinstance(exit_code, int) or exit_code == 3


def mismatch(expected: dict | None, input_digest: str, actual: dict) -> str | None:
    """Why ``actual`` differs from the stored reference, or None if it matches."""
    if expected is None:
        return "no stored reference"
    if expected["input"] != input_digest:
        return "input differs from the one the reference was made from"
    if expected["exit"] != actual["exit"]:
        return f"exit {actual['exit']!r}, reference {expected['exit']!r}"
    if "stdout_sha256" in expected:
        if expected["stdout_sha256"] != actual.get("stdout_sha256"):
            return "stdout differs"
        return None
    if expected["masked_sha256"] != actual.get("masked_sha256"):
        return "non-numeric output differs"
    if len(expected["coords"]) != len(actual["coords"]):
        return f"{len(actual['coords']) // 2} points, reference {len(expected['coords']) // 2}"
    for want, got in zip(expected["coords"], actual["coords"]):
        if not abs(got - want) <= COORD_TOL * max(1.0, abs(want)):
            return f"coordinate {got!r}, reference {want!r}"
    return None
