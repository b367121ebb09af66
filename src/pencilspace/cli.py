"""Command-line interface.

Twelve subcommands cover the library surface: standard, member, generate,
kernel, dimension, procedure, certify, qep-linearize, delta, spectrum,
compare, verify-pair.  Every verdict prints together with its evidence
(the exact gamma, certificate determinants, or residuals), and seeded runs
are bit-reproducible.

Exit codes: 0 success/verified, 1 negative verdict, 2 input error,
3 numeric non-convergence or overflow (an exact value too large for a
float in the root iteration, or with too many digits to print), 4
non-generic system.  A command's report is written to stdout only when
the command completes, so a failure leaves none of it there.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import random
import re
import sys
from pathlib import Path
from typing import Optional

from . import pencil as pen
from . import serialization as ser
from .construct import _random_rows, best_certificate, procedure_linearize
from .errors import (
    ConditionUnsatisfiableError,
    ConvergenceError,
    DegreeError,
    HypothesisViolatedError,
    NonGenericSystemError,
    ParseError,
)
from .matrices import Matrix
from .qep import (
    DEFAULT_SPECTRUM_TOL,
    LinearSystem2P,
    QuadSystem2P,
    delta0_singularity,
    linearize_system,
    spectrum_quadratic,
    verify_eigenpair,
    verify_spectral_equality,
)
from .space import (
    FreeBlocks,
    generate_member,
    kernel_member,
    membership,
    space_dimension,
    standard_linearization,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_NONGENERIC = 4

_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _read(path: str) -> str:
    """The text of Path(path).read_text(encoding="utf-8"): the bytes decoded
    as strict UTF-8 in one call, with universal newlines applied only when a
    carriage return occurs."""
    try:
        # open() itself: reading through a Path made the median certify
        # task about 4% slower over ten alternating benchmark pairs.
        with open(path, "rb") as file:
            data = file.read()
    except OSError:
        # Through pathlib, which opens "x.json/" as x.json and names the
        # path its own way in every error.
        data = Path(path).read_bytes()
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _emit_pencil(pencil, out: Optional[str]) -> None:
    text = ser.serialize_pencil(pencil)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _parse_vector(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("ansatz vector must be three comma-separated rationals", "-v")
    return tuple(ser.parse_fraction(p, "-v") for p in parts)


def _tolerance(text: str) -> float:
    """A --tol value: finite and positive, or argparse exits 2."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite positive number, not {text!r}")


def _fmt_complex(z: complex) -> str:
    return f"({z.real:.12g}, {z.imag:.12g})"


def _print_spectrum(tag: str, report) -> None:
    print(f"{tag}: {len(report.points)} point(s), bound {report.bezout_bound}")
    for p in report.points:
        print(f"  lam = {_fmt_complex(p.lam)}  mu = {_fmt_complex(p.mu)}  residual = {p.residual:.3e}")


def _print_certificate(label: str, cert) -> None:
    if cert.kind == "unimodular-pair":
        print(
            f"{label}: unimodular-pair certificate, F*L*E = diag(Q, I) exact; "
            f"det E = {cert.det_e}, det F = {cert.det_f}"
        )
    else:
        status = "verified" if cert.verified else f"FAILED ({cert.detail})"
        gamma = f", gamma = {cert.gamma}" if cert.gamma is not None else ""
        print(f"{label}: det-ratio certificate {status}{gamma}")


def _build_linear_system(args, system: QuadSystem2P) -> LinearSystem2P:
    """Linearize a system for the delta/compare/verify-pair commands.

    Uses the standard blocks unless --seed asks for random admissible
    blocks (small integers, redrawn until the Z condition holds).
    """
    blocks1 = blocks2 = None
    if args.seed is not None:
        rng = random.Random(args.seed)
        blocks1 = _random_component_blocks(rng, system.q1.n)
        blocks2 = _random_component_blocks(rng, system.q2.n)
    alpha1 = ser.parse_fraction(args.alpha1, "--alpha1")
    alpha2 = ser.parse_fraction(args.alpha2, "--alpha2")
    return linearize_system(system, alpha1, alpha2, blocks1, blocks2)


def _random_component_blocks(rng: random.Random, n: int) -> FreeBlocks:
    """Y1 = [Y11; 0; 0], Z1 and Z2 of small integers, drawn in that order
    until the lower Z block is nonsingular; Y1 is written as one integer
    form.  The det that accepts a draw is the blocks' kept _lower_z_det,
    which linearize_system hands to the component's certificate: the
    constant of the member is [Z1 | Z2 | P00], P00 in block column 3, so
    its lower-left 2n x 2n block is exactly lower_z_block(Z1, Z2), and the
    certificate eliminates no Z block again."""
    zero = [((0, 0),) * n] * (2 * n)
    for _ in range(64):
        y11 = _random_rows(rng, n, n)
        z1 = Matrix.from_integer_form(1, _random_rows(rng, 3 * n, n))
        z2 = Matrix.from_integer_form(1, _random_rows(rng, 3 * n, n))
        blocks = FreeBlocks(n, Matrix.from_integer_form(1, y11 + zero), z1, z2)
        if blocks._lower_z_det:
            return blocks
    raise ConditionUnsatisfiableError("could not draw admissible blocks")


# -- handlers -------------------------------------------------------------------


def _cmd_standard(args) -> int:
    q = ser.parse_problem(_read(args.problem))
    pencil = standard_linearization(q)
    print(f"standard linearization: n = {q.n}, pencil size m = {pencil.m}")
    _emit_pencil(pencil, args.out)
    return EXIT_OK


def _cmd_member(args) -> int:
    q = ser.parse_problem(_read(args.problem))
    pencil = ser.parse_pencil(_read(args.pencil))
    result = membership(pencil, q)
    if result:
        a, b, c = result.v
        note = "  (ambiguous: zero quadratic)" if result.ambiguous else ""
        print(f"v = ({a}, {b}, {c}){note}")
        return EXIT_OK
    print("NOT-MEMBER")
    return EXIT_NEGATIVE


def _cmd_generate(args) -> int:
    q = ser.parse_problem(_read(args.problem))
    blocks = ser.parse_blocks(_read(args.blocks))
    v = _parse_vector(args.vector)
    pencil = generate_member(q, v, blocks)
    result = membership(pencil, q)
    ansatz = "ambiguous" if result.ambiguous else f"({result.v[0]}, {result.v[1]}, {result.v[2]})"
    print(f"generated member with ansatz {ansatz}")
    _emit_pencil(pencil, args.out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    blocks = ser.parse_blocks(_read(args.blocks))
    pencil = kernel_member(blocks.n, blocks)
    # The six box-addition blocks are the coefficients of L(lam,mu) *
    # (Lambda kron I_n), so one test of their rows decides both printed
    # verdicts.
    _, rows = pen._box_blocks(pencil.lam_coeff, pencil.mu_coeff, pencil.const)
    vanishes = not any(re or im for row in rows for re, im in row)
    print(f"kernel member: box-add vanishes = {vanishes}, lambda-product vanishes = {vanishes}")
    _emit_pencil(pencil, args.out)
    return EXIT_OK if vanishes else EXIT_NEGATIVE


def _cmd_dimension(args) -> int:
    q = ser.parse_problem(_read(args.problem))
    summary = space_dimension(q)
    if summary.degenerate:
        print(f"zero quadratic: space degenerates to the kernel, dimension = {summary.dimension}")
    else:
        print(f"dimension = 9*{q.n}^2 + 3 = {summary.dimension}")
    verdict = "verified" if summary.verified else "FAILED"
    print(f"rank witness: exact rank {summary.witness_rank} ({verdict})")
    return EXIT_OK if summary.verified else EXIT_NEGATIVE


def _cmd_procedure(args) -> int:
    q = ser.parse_problem(_read(args.problem))
    v = _parse_vector(args.vector)
    alpha = ser.parse_fraction(args.alpha, "--alpha")
    blocks = ser.parse_blocks(_read(args.blocks)) if args.blocks else None
    rng = random.Random(args.seed)
    result = procedure_linearize(q, v, alpha, blocks=blocks, rng=rng)
    m = result.transform.matrix
    print(f"case {result.transform.case}: M =")
    for i in range(3):
        print("  [" + "  ".join(str(m[i, j]) for j in range(3)) + "]")
    print(f"det M = {result.transform.det}, draws used = {result.draws_used}")
    print(f"aligned ansatz = ({result.transform.alpha}, 0, 0)")
    _print_certificate("certificate", result.certificate)
    _emit_pencil(result.pencil, args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    q = ser.parse_problem(_read(args.problem))
    pencil = ser.parse_pencil(_read(args.pencil))
    cert = best_certificate(pencil, q)
    _print_certificate("certificate", cert)
    return EXIT_OK if cert.verified else EXIT_NEGATIVE


def _cmd_qep_linearize(args) -> int:
    system = ser.parse_system(_read(args.system))
    lin = _build_linear_system(args, system)
    _print_certificate("L1", lin.cert1)
    _print_certificate("L2", lin.cert2)
    for tag, pencil in (("L1", lin.l1), ("L2", lin.l2)):
        _emit_pencil(pencil, args.out and f"{args.out}_{tag}.json")
    return EXIT_OK


def _cmd_delta(args) -> int:
    system = ser.parse_system(_read(args.system))
    lin = _build_linear_system(args, system)
    report = delta0_singularity(lin)
    size = lin.l1.m * lin.l2.m
    print(f"delta operators: {size} x {size}")
    print(f"det Delta0 = {report.det0} (exact)")
    print("verdict: singular" if report.singular else "verdict: nonsingular")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    system = ser.parse_system(_read(args.system))
    report = spectrum_quadratic(system, tol=args.tol)
    _print_spectrum("sigma_Q", report)
    return EXIT_OK


def _cmd_compare(args) -> int:
    system = ser.parse_system(_read(args.system))
    lin = _build_linear_system(args, system)
    report = verify_spectral_equality(system, lin, tol=args.tol)
    _print_spectrum("sigma_Q", report.sigma_q)
    _print_spectrum("sigma_L", report.sigma_l)
    if report.equal:
        print("spectra agree")
        return EXIT_OK
    for p in report.unmatched_q:
        print(f"unmatched in sigma_Q: lam = {_fmt_complex(p.lam)} mu = {_fmt_complex(p.mu)}")
    for p in report.unmatched_l:
        print(f"unmatched in sigma_L: lam = {_fmt_complex(p.lam)} mu = {_fmt_complex(p.mu)}")
    print("spectra differ")
    return EXIT_NEGATIVE


def _cmd_verify_pair(args) -> int:
    system = ser.parse_system(_read(args.system))
    pair = ser.parse_eigenpair(_read(args.pair))
    lin = _build_linear_system(args, system)
    report = verify_eigenpair(
        system, lin, pair["lam"], pair["mu"], pair["x1"], pair["x2"], tol=args.tol
    )
    for check in report.checks:
        state = "exact zero" if check.exact_zero else f"norm = {check.norm:.3e}"
        verdict = "ok" if check.passed else "FAIL"
        print(f"{check.name}: {state} [{verdict}]")
    print("eigenpair verified" if report.passed else "eigenpair rejected")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    return _build_parser()[0]


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="pencilspace",
        description="Exact linearizations of quadratic two-parameter matrix polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        # argparse takes "-1,1,2" or "-1/2" after an option for another
        # option; no option here starts with "-<digit>", so such a token
        # is always a value.
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(handler=handler)
        return p

    p = add("standard", _cmd_standard, "standard linearization of a problem file")
    p.add_argument("-q", "--problem", required=True)
    p.add_argument("-o", "--out")

    p = add("member", _cmd_member, "recover the ansatz vector of a pencil")
    p.add_argument("-q", "--problem", required=True)
    p.add_argument("-l", "--pencil", required=True)

    p = add("generate", _cmd_generate, "generate a member from an ansatz and blocks")
    p.add_argument("-q", "--problem", required=True)
    p.add_argument("-v", "--vector", required=True, metavar="a,b,c")
    p.add_argument("--blocks", required=True)
    p.add_argument("-o", "--out")

    p = add("kernel", _cmd_kernel, "generate a kernel member from blocks")
    p.add_argument("--blocks", required=True)
    p.add_argument("-o", "--out")

    p = add("dimension", _cmd_dimension, "certified dimension of the space")
    p.add_argument("-q", "--problem", required=True)

    p = add("procedure", _cmd_procedure, "align a general ansatz to alpha*e1 and certify")
    p.add_argument("-q", "--problem", required=True)
    p.add_argument("-v", "--vector", required=True, metavar="a,b,c")
    p.add_argument("--alpha", default="1")
    p.add_argument("--blocks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out")

    p = add("certify", _cmd_certify, "certify a pencil against a problem")
    p.add_argument("-q", "--problem", required=True)
    p.add_argument("-l", "--pencil", required=True)

    for name, handler, help_text in (
        ("qep-linearize", _cmd_qep_linearize, "linearize a two-polynomial system"),
        ("delta", _cmd_delta, "operator determinants and the Delta0 singularity verdict"),
        ("compare", _cmd_compare, "compare the quadratic and pencil spectra"),
        ("verify-pair", _cmd_verify_pair, "verify a claimed eigenpair through all layers"),
    ):
        p = add(name, handler, help_text)
        p.add_argument("-s", "--system", required=True)
        p.add_argument("--alpha1", default="1")
        p.add_argument("--alpha2", default="1")
        p.add_argument("--seed", type=int, default=None)
        if name == "qep-linearize":
            p.add_argument("-o", "--out", help="prefix for the two pencil files")
        if name in ("compare", "verify-pair"):
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_SPECTRUM_TOL)
        if name == "verify-pair":
            p.add_argument("--pair", required=True)

    p = add("spectrum", _cmd_spectrum, "finite spectrum of a system")
    p.add_argument("-s", "--system", required=True)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_SPECTRUM_TOL)

    return parser, sub.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    return _build_parser()


def main(argv=None) -> int:
    """Run one command; return its exit code (argparse exits 0 or 2 itself).

    The parser is built at the first call and reused by every later call
    in the process, so a process that runs many commands builds it once
    (``build_parser`` still returns a fresh one).  Reuse carries no
    state from one call to the next: ``parse_args`` fills a fresh
    ``Namespace`` each time, every default is immutable (strings, None, a
    float, the handlers), usage and error text go to ``sys.stdout`` or
    ``sys.stderr`` as looked up when printed, and each help formatter is
    built when it formats.  The ``_cmd_*`` handlers are bound when the
    parser is built, so replacing one after the first call has no effect.

    The top-level parser only hands argv[1:] to the command's subparser,
    so argv[1:] goes there directly; with no argv, no command name first or
    arguments left over, the full parser reads argv and prints its usage.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extra:
        args = parser.parse_args(argv)
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            code = args.handler(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (HypothesisViolatedError, ConditionUnsatisfiableError) as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ConvergenceError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as exc:
        print(f"numeric overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NonGenericSystemError, DegreeError) as exc:
        print(f"non-generic system: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            # A derived exact value, such as det E = alpha^-n, too long to print.
            message = f"a value to print has more than {ser.MAX_DIGITS} digits"
            print(f"numeric overflow: {message}", file=sys.stderr)
            return EXIT_NUMERIC
        # ShapeError, ZeroAnsatzError, zero eigenvectors, bad scalars.
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(report.getvalue())
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
