"""The exact commands and checks, run without numpy.

CI runs this script before numpy and pytest are installed, from the
repository root:

    PYTHONPATH=src python tests/exact_without_numpy.py

It prints a count per check and exits nonzero naming every mismatch.  Its
name does not start with test_, so pytest does not collect it.

Every golden-transcript entry other than spectrum and compare (the commands that iterate roots) is
replayed in process with numpy and dataclasses blocked, and must
match its stdout, stderr and exit code byte for byte, so the exact
commands never need numpy, and nothing below, records included,
needs dataclasses (whose import loads inspect, ast and dis).  The
entries run forward and then in reverse order in the
same process, which reuses one parser, so any state a call leaves
behind shows as a mismatch.  README's one ```python block, the quick
session, then runs the same way and must not raise.  The three
corpus unimodular pairs (l_standard_worked and l_aligned_worked
against q_worked, l_complex against q_complex) are certified by
best_certificate, and F * L * E must equal diag(Q, I_2n) exactly, so
the Z^-1 Z = I_2n check that reading F makes, and W * Z^-1, run on
every Python version without numpy or sympy.  Last, every
corpus file is read with the reader its prefix names, each q_, l_,
blocks_ and sys_ file is written back and must be a fixed point after
one round, and q_bad_literal.json must end in its ParseError, so the
JSON codec runs on every Python version before numpy is installed.
Then the exact stage of the spectrum (qep._exact_stage) runs on the
det_poly pair (f, g) of each sys_ file and must not raise, so the
proved half of a spectrum needs no numpy either; and the stage that
compare reads off it for det L_i = c_i * det Q_i (qep._scaled_stage)
must equal the exact stage of (2*f, -3/2*g), so the homogeneity
argument is checked on every Python version.  Last, the determinant
of every corpus q_ and sys_ quadratic (its det_poly) and of every l_
pencil (exact_det_poly, one evaluation at a Kronecker point) must
equal a Laplace expansion on BiPoly, each minor expanded once, so the
exact determinant kernel is checked on every Python version without
sympy.  So is the det-ratio test (polymatrix.det_ratio, a screen in
F_p at two integer points, then both Kronecker expansions): its ratio of
each l_*_worked pencil to q_worked, and of l_complex to q_complex,
must be the one the two Laplace determinants give, and the known
value (None, -639/8, 12, 1 and 103+10i).  [[lam*mu]] against [[1]]
passes the screen but is not proportional, so it must give None on
the expansion branch.  Last, each sys_ system is linearized with its
standard blocks and with blocks drawn from random.Random(5), as
--seed 5 draws them: the Delta0 verdict that delta0_singularity reads
off the zero lower-left blocks must equal singularity_check of the
formed Delta0, and a Bareiss elimination of Delta0's numerators, with
no structural test first, must reach the same verdict; and each
component's det F must be 1 / det of its pencil's constant lower-left
2n x 2n block, the Z block whose det accepted the draw.  Last, for
every corpus l_ pencil and q_ quadratic of matching size, the ansatz
identity decided on integer forms must give the verdict of
box_add_pencil(L) == kron(Matrix.column(v), q.coefficient_row()),
both in membership (v read off the first nonzero coefficient) and in
the certificate's check with v = (alpha, 0, 0).  Last, for the same
12 corpus pairs (l_worked_bumped among them), det_ratio's verdict and
gamma must be the proportionality read off both exact_det_poly
expansions; and procedure_linearize on each q_ quadratic, in each
case of the alignment table (v = (2, -3, 1/3) with the case's zero
pattern, alpha = 1 + 2i, Z blocks drawn from random.Random(5)), and
again with each corpus blocks_ file of matching size as the caller's
blocks (Y11 kept in case a), must give the pencil of the kron(M, I_n)
route, applied to the source member that generate_member builds from
v and the blocks used, and det F = 1 / det Z of its transformed
lower Z block, so M kron I_n applied by block rows, and the aligned
pencil laid out from the transformed blocks, are checked on every
Python version.  Last, the dimension witness of each corpus q_
quadratic, whose ansatz rows are counted with no elimination, must be
9n^2 plus Matrix.rank (Bareiss) of the three vectorized ansatz parts
that generate_member builds with zero free blocks.  Last, main hands
argv[1:] straight to the command's subparser: every transcript argv,
and probes for help, no command, an unknown command, left-over and
missing arguments and bad values, must give through main the
Namespace, exit code, stdout and stderr of build_parser().parse_args;
and every corpus file must read to the same values, or the same
ParseError, through the document pass and through the general reader
alone.
"""


def run_checks() -> None:
    import contextlib, io, json, re, sys
    sys.modules["numpy"] = None
    sys.modules["dataclasses"] = None
    from pencilspace.cli import main
    with open("tests/golden/cli_transcript.json", encoding="utf-8") as f:
        exact = [e for e in json.load(f) if e["argv"][0] not in ("spectrum", "compare")]
    bad = []
    for entry in exact + exact[::-1]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(entry["argv"]))
        if (out.getvalue(), err.getvalue(), code) != (entry["stdout"], entry["stderr"], entry["exit"]):
            bad.append(" ".join(entry["argv"]))
    print(f"{2 * len(exact) - len(bad)} of {2 * len(exact)} exact replays match")
    with open("README.md", encoding="utf-8") as f:
        (session,) = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    exec(session, {})
    print("README quick session runs")
    from pathlib import Path
    from pencilspace import serialization as ser
    from pencilspace.construct import best_certificate
    from pencilspace.polymatrix import PolyMatrix
    unimodular = [("l_standard_worked", "q_worked"), ("l_aligned_worked", "q_worked"), ("l_complex", "q_complex")]
    for l_name, q_name in unimodular:
        pencil = ser.parse_pencil(Path("corpus", f"{l_name}.json").read_text(encoding="utf-8"))
        q = ser.parse_problem(Path("corpus", f"{q_name}.json").read_text(encoding="utf-8"))
        cert, n = best_certificate(pencil, q), q.n
        rhs = PolyMatrix.from_blocks(
            [[q.as_polymatrix(), PolyMatrix.zeros(n, 2 * n)], [PolyMatrix.zeros(2 * n, n), PolyMatrix.identity(2 * n)]]
        )
        if cert.kind != "unimodular-pair" or cert.f @ pencil.as_polymatrix() @ cert.e != rhs:
            bad.append(f"{l_name}: F * L * E is not diag(Q, I_2n) against {q_name}")
    print(f"F * L * E = diag(Q, I_2n) for {len(unimodular)} corpus unimodular pairs")
    from pencilspace.errors import ParseError
    codecs = {
        "q": (ser.parse_problem, ser.serialize_problem),
        "l": (ser.parse_pencil, ser.serialize_pencil),
        "blocks": (ser.parse_blocks, ser.serialize_blocks),
        "sys": (ser.parse_system, ser.serialize_system),
        "pair": (ser.parse_eigenpair, None),
    }
    bad_literal = "problem.coefficients.A02[0][0].im: not an exact rational: '1/0' (Fraction(1, 0))"
    paths = sorted(Path("corpus").glob("*.json"))
    for path in paths:
        parse, serialize = codecs[path.name.split("_")[0]]
        text = path.read_text(encoding="utf-8")
        if path.name == "q_bad_literal.json":
            try:
                parse(text)
            except ParseError as exc:
                if str(exc) != bad_literal:
                    bad.append(f"{path.name}: {exc}")
            else:
                bad.append(f"{path.name} parsed")
            continue
        value = parse(text)
        if serialize is not None:
            once = serialize(value)
            if serialize(parse(once)) != once:
                bad.append(f"{path.name} is not a fixed point after one round")
    print(f"{len(paths)} corpus files read; every one written back is a fixed point")
    from fractions import Fraction
    from pencilspace import qep
    from pencilspace.scalars import GaussianRational
    c1, c2 = GaussianRational(2), GaussianRational(Fraction(-3, 2))
    systems = sorted(Path("corpus").glob("sys_*.json"))
    for path in systems:
        system = ser.parse_system(path.read_text(encoding="utf-8"))
        f, g = system.q1.det_poly, system.q2.det_poly
        try:
            stage = qep._exact_stage(f, g)
        except Exception as exc:
            bad.append(f"{path.name}: the exact stage raised {exc!r}")
            continue
        if qep._scaled_stage(stage, f, g, c1, c2) != qep._exact_stage(f * c1, g * c2):
            bad.append(f"{path.name}: the scaled stage is not the exact stage of 2*f, -3/2*g")
    print(f"exact stage run on {len(systems)} corpus systems, and scaled by (2, -3/2)")
    from functools import lru_cache
    from pencilspace.bipoly import BiPoly
    from pencilspace.polymatrix import exact_det_poly

    def laplace_det(m):
        # Along the rows: the minor on the last len(cols) rows and the
        # columns cols, each expanded once.
        rows = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]

        @lru_cache(maxsize=None)
        def minor(cols):
            if not cols:
                return BiPoly.constant(1)
            row, total = rows[m.rows - len(cols)], BiPoly.zero()
            for k, c in enumerate(cols):
                if not row[c].is_zero():
                    term = row[c] * minor(cols[:k] + cols[k + 1 :])
                    total = total - term if k % 2 else total + term
            return total

        return minor(tuple(range(m.cols)))

    checked = 0
    for path in paths:
        prefix = path.name.split("_")[0]
        if prefix not in ("q", "l", "sys") or path.name == "q_bad_literal.json":
            continue
        value = codecs[prefix][0](path.read_text(encoding="utf-8"))
        if prefix == "l":
            pairs = [(exact_det_poly(value.as_polymatrix()), value)]
        else:
            quads = [value] if prefix == "q" else [value.q1, value.q2]
            pairs = [(q.det_poly, q) for q in quads]
        for det, matrix in pairs:
            checked += 1
            if det != laplace_det(matrix.as_polymatrix()):
                bad.append(f"{path.name}: the determinant is not its Laplace expansion")
    print(f"{checked} corpus determinants match their Laplace expansion")
    from pencilspace import polymatrix

    ratios = {
        ("l_worked.json", "q_worked.json"): None,
        ("l_aligned_worked.json", "q_worked.json"): GaussianRational(Fraction(-639, 8)),
        ("l_source_worked.json", "q_worked.json"): GaussianRational(12),
        ("l_standard_worked.json", "q_worked.json"): GaussianRational(1),
        ("l_complex.json", "q_complex.json"): GaussianRational(103, 10),
    }
    for (l_name, q_name), expected in ratios.items():
        pencil = ser.parse_pencil(Path("corpus", l_name).read_text(encoding="utf-8"))
        problem = ser.parse_problem(Path("corpus", q_name).read_text(encoding="utf-8"))
        l_poly, q_poly = pencil.as_polymatrix(), problem.as_polymatrix()
        det_l, det_q = laplace_det(l_poly), laplace_det(q_poly)
        # the only constant det_l / det_q can be: the ratio at one term of det_q
        mono, c = next(det_q.terms())
        gamma = dict(det_l.terms()).get(mono, GaussianRational(0)) / c
        laplace_ratio = gamma if det_l == det_q * gamma else None
        if not polymatrix.det_ratio(l_poly, q_poly) == laplace_ratio == expected:
            bad.append(f"{l_name}: det_ratio against {q_name} is not the Laplace ratio {expected}")
    print(f"det_ratio of {len(ratios)} corpus pairs matches the Laplace determinants")
    lam_mu = polymatrix.PolyMatrix([[BiPoly.lam() * BiPoly.mu()]])
    if polymatrix.det_ratio(lam_mu, polymatrix.PolyMatrix([[BiPoly.constant(1)]])) is not None:
        bad.append("det_ratio of [[lam*mu]] against [[1]] is not None")
    import random
    from pencilspace.cli import _random_component_blocks
    from pencilspace.matrices import bareiss_det_int

    verdicts = 0
    for path in systems:
        system = ser.parse_system(path.read_text(encoding="utf-8"))
        rng = random.Random(5)
        drawn = [_random_component_blocks(rng, q.n) for q in (system.q1, system.q2)]
        for blocks in ([None, None], drawn):
            lin = qep.linearize_system(system, 1, 1, *blocks)
            delta0 = qep.delta0_operator(lin)
            report = qep.delta0_singularity(lin)
            bareiss = bareiss_det_int([list(row) for row in delta0.integer_form()[1]])
            verdicts += 1
            if report != qep.singularity_check(delta0) or report.singular != (bareiss == (0, 0)):
                bad.append(f"{path.name}: the Delta0 verdict is not the formed operator's")
            for pencil, cert in ((lin.l1, lin.cert1), (lin.l2, lin.cert2)):
                n = pencil.m // 3
                if cert.det_f != 1 / pencil.const.submatrix(range(n, 3 * n), range(2 * n)).det():
                    bad.append(f"{path.name}: det F is not 1 / det of the lower Z block")
    print(f"the Delta0 verdict and det F of {verdicts} corpus linearizations match the formed operator and Z block")
    from pencilspace import box_add_pencil, kron, membership
    from pencilspace.construct import _has_ansatz
    from pencilspace.matrices import Matrix

    verdicts = 0
    problems = [p for p in paths if p.name.startswith("q_") and p.name != "q_bad_literal.json"]
    for l_path in (p for p in paths if p.name.startswith("l_")):
        pencil = ser.parse_pencil(l_path.read_text(encoding="utf-8"))
        for q_path in problems:
            q = ser.parse_problem(q_path.read_text(encoding="utf-8"))
            if pencil.m != 3 * q.n:
                continue
            n, b, row = q.n, box_add_pencil(pencil), q.coefficient_row()
            pivot = next(((r, c) for r in range(n) for c in range(6 * n) if row[r, c]), None)
            zero = GaussianRational(0)
            v = tuple(b[i * n + pivot[0], pivot[1]] / row[pivot] for i in range(3)) if pivot else (zero,) * 3
            member = b == kron(Matrix.column(v), row)
            result = membership(pencil, q)
            alpha = v[0] or GaussianRational(1)
            verdicts += 2
            if result.is_member != member or (member and result.v != v):
                bad.append(f"{l_path.name}: membership against {q_path.name} is not the kron verdict")
            if _has_ansatz(pencil, q, alpha) != (b == kron(Matrix.column([alpha, 0, 0]), row)):
                bad.append(f"{l_path.name}: the ({alpha}, 0, 0) identity against {q_path.name} is not the kron verdict")
    print(f"{verdicts} integer-form ansatz verdicts on corpus pairs match box_add_pencil and kron")
    from pencilspace import Pencil2P, generate_member, procedure_linearize
    from pencilspace.construct import ALL_CASES
    from pencilspace.space import lower_z_block

    pairs = 0
    for l_path in (p for p in paths if p.name.startswith("l_")):
        pencil = ser.parse_pencil(l_path.read_text(encoding="utf-8"))
        for q_path in problems:
            q = ser.parse_problem(q_path.read_text(encoding="utf-8"))
            if pencil.m != 3 * q.n:
                continue
            det_l, det_q = exact_det_poly(pencil.as_polymatrix()), q.det_poly
            # the only constant det_l / det_q can be: the ratio at one term of det_q
            mono, c = next(det_q.terms())
            gamma = dict(det_l.terms()).get(mono, GaussianRational(0)) / c
            pairs += 1
            if polymatrix.det_ratio(pencil.as_polymatrix(), q.as_polymatrix()) != (gamma if det_l == det_q * gamma else None):
                bad.append(f"{l_path.name}: det_ratio against {q_path.name} is not the ratio of the two expansions")
    print(f"det_ratio of {pairs} corpus pairs matches the ratio of their exact_det_poly expansions")
    runs = 0
    corpus_blocks = [ser.parse_blocks(p.read_text(encoding="utf-8")) for p in paths if p.name.startswith("blocks_")]
    for q_path in problems:
        q = ser.parse_problem(q_path.read_text(encoding="utf-8"))
        for blocks in [None] + [b for b in corpus_blocks if b.n == q.n]:
            for case in ALL_CASES:
                pattern = case.removesuffix("-alt")
                v = [x if name in pattern else 0 for name, x in zip("abc", (2, -3, Fraction(1, 3)))]
                result = procedure_linearize(q, v, GaussianRational(1, 2), blocks, random.Random(5), case)
                op = kron(result.transform.matrix, Matrix.identity(q.n))
                # the source member is not kept by the procedure; it is rebuilt here
                source = generate_member(q, result.transform.v, result.blocks)
                kron_route = Pencil2P(result.pencil.m, *(op @ coeff for coeff in source[1:]))
                det_z = lower_z_block(op @ result.blocks.z1, op @ result.blocks.z2).det()
                runs += 1
                if result.pencil != kron_route or result.certificate.det_f != 1 / det_z:
                    bad.append(f"{q_path.name}: procedure_linearize, case {case}, is not the kron route")
    print(f"{runs} procedure_linearize runs on corpus quadratics match the kron route")
    from pencilspace import FreeBlocks, space_dimension

    for q_path in problems:
        q = ser.parse_problem(q_path.read_text(encoding="utf-8"))
        parts = [generate_member(q, e, FreeBlocks.zero(q.n)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        rows = [[c[i, j] for c in p[1:] for i in range(p.m) for j in range(p.m)] for p in parts]
        if space_dimension(q).witness_rank != 9 * q.n**2 + Matrix(rows).rank():
            bad.append(f"{q_path.name}: the witness rank is not 9n^2 plus the Bareiss rank of the ansatz parts")
    print(f"the dimension witness of {len(problems)} corpus quadratics matches the Bareiss rank")
    from pencilspace import cli

    def parsed(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = {k: v for k, v in vars(parse(list(argv))).items() if k != "handler"}
            except SystemExit as exc:
                args = exc.code
        return args, out.getvalue(), err.getvalue()

    parser, commands = cli._build_parser()
    seen = []
    for sub in commands.values():
        sub.set_defaults(handler=seen.append)
    cached, cli._parser = cli._parser, lambda: (parser, commands)
    q, l = "corpus/q_worked.json", "corpus/l_worked.json"
    probes = [
        ["-h"], ["certify", "-h"], [], ["nope", "-q", q], ["-q", q],
        ["certify", "-q", q, "-l", l, "--extra"], ["certify", "-q", q],
        ["procedure", "-q", q, "-v", "1,1,2", "--seed", "x"],
        ["compare", "-s", "corpus/sys_circle_line.json", "--tol", "nan"],
        ["certify", "--prob", q, "-l", l], ["certify", "--", "-q", q],
    ]
    with open("tests/golden/cli_transcript.json", encoding="utf-8") as f:
        argvs = [e["argv"] for e in json.load(f)] + probes
    for argv in argvs:
        if parsed(lambda a: cli.main(a) or seen.pop(), argv) != parsed(cli.build_parser().parse_args, argv):
            bad.append(f"main parses {argv} unlike build_parser()")
    cli._parser = cached
    print(f"{len(argvs)} argument lists parse through main as through build_parser()")

    def read(parse, text):
        try:
            return parse(text)
        except ParseError as exc:
            return str(exc)

    document_pass = ser._canonical_matrices
    for path in paths:
        parse, text = codecs[path.name.split("_")[0]][0], path.read_text(encoding="utf-8")
        value = read(parse, text)
        ser._canonical_matrices = lambda specs: None
        if read(parse, text) != value:
            bad.append(f"{path.name} reads apart through the document pass and the general reader")
        ser._canonical_matrices = document_pass
    print(f"{len(paths)} corpus files read alike through the document pass and the general reader")
    sys.exit(f"mismatch: {'; '.join(bad)}" if bad else 0)


if __name__ == "__main__":
    run_checks()
