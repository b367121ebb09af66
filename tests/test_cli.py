"""End-to-end CLI coverage: all twelve subcommands against the shipped corpus."""

import shutil
from pathlib import Path

import pytest

from pencilspace.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

Q_CIRCLE = str(CORPUS / "q_circle.json")
Q_WORKED = str(CORPUS / "q_worked.json")
L_WORKED = str(CORPUS / "l_worked.json")
L_SOURCE = str(CORPUS / "l_source_worked.json")
BLOCKS_WORKED = str(CORPUS / "blocks_worked.json")
BLOCKS_STANDARD = str(CORPUS / "blocks_standard_circle.json")
SYS_CIRCLE_LINE = str(CORPUS / "sys_circle_line.json")
SYS_RATIONAL = str(CORPUS / "sys_rational_eig.json")
PAIR_RATIONAL = str(CORPUS / "pair_rational_eig.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_standard(capsys, tmp_path):
    from pencilspace import QuadPoly2P, standard_linearization
    from pencilspace import serialization as ser

    out_file = tmp_path / "pencil.json"
    code, out, _ = run(capsys, "standard", "-q", Q_CIRCLE, "-o", str(out_file))
    assert code == 0
    assert "m = 3" in out
    written = ser.parse_pencil(out_file.read_text())
    circle = QuadPoly2P.scalar(a20=1, a02=1, a00=-1)
    assert written == standard_linearization(circle)


def test_standard_stdout_contains_blocks(capsys):
    code, out, _ = run(capsys, "standard", "-q", Q_CIRCLE)
    assert code == 0
    assert '"m": 3' in out


def test_member_recovers_worked_ansatz(capsys):
    code, out, _ = run(capsys, "member", "-q", Q_WORKED, "-l", L_WORKED)
    assert code == 0
    assert "v = (1, 1, 2)" in out


def test_member_negative_verdict(capsys, tmp_path):
    import json

    # Perturb one entry of the worked pencil so membership must fail.
    doc = json.loads(Path(L_WORKED).read_text())
    doc["A1hat"][3][0] = "99"
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "member", "-q", Q_WORKED, "-l", str(tmp_path / "broken.json"))
    assert code == 1
    assert "NOT-MEMBER" in out


def test_generate_reproduces_worked_pencil(capsys, tmp_path):
    out_file = tmp_path / "generated.json"
    code, out, _ = run(
        capsys,
        "generate",
        "-q",
        Q_WORKED,
        "-v",
        "1,1,2",
        "--blocks",
        BLOCKS_WORKED,
        "-o",
        str(out_file),
    )
    assert code == 0
    assert "ansatz (1, 1, 2)" in out
    assert out_file.read_text() == Path(L_WORKED).read_text()


def test_kernel(capsys):
    code, out, _ = run(capsys, "kernel", "--blocks", BLOCKS_WORKED)
    assert code == 0
    assert "box-add vanishes = True" in out
    assert "lambda-product vanishes = True" in out


@pytest.mark.parametrize("name", ["blocks_worked", "blocks_standard_circle", "blocks_complex"])
def test_kernel_forms_no_polynomial_product(capsys, polymatrix_products, name):
    code, out, _ = run(capsys, "kernel", "--blocks", str(CORPUS / f"{name}.json"))
    assert code == 0
    assert "lambda-product vanishes = True" in out
    assert polymatrix_products == []


@pytest.mark.parametrize("name", ["blocks_worked", "blocks_standard_circle", "blocks_complex"])
def test_kernel_forms_the_box_blocks_once(capsys, monkeypatch, name):
    from pencilspace import pencil

    real, calls = pencil._box_blocks, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pencil, "_box_blocks", counting)
    code, out, _ = run(capsys, "kernel", "--blocks", str(CORPUS / f"{name}.json"))
    assert code == 0
    assert "box-add vanishes = True, lambda-product vanishes = True" in out
    assert len(calls) == 1


def test_dimension_n2(capsys):
    code, out, _ = run(capsys, "dimension", "-q", Q_WORKED)
    assert code == 0
    assert "dimension = 9*2^2 + 3 = 39" in out
    assert "exact rank 39 (verified)" in out


def test_dimension_n1(capsys):
    code, out, _ = run(capsys, "dimension", "-q", Q_CIRCLE)
    assert code == 0
    assert "= 12" in out


def test_procedure_seeded_and_reproducible(capsys):
    args = ("procedure", "-q", Q_CIRCLE, "-v", "1,1,2", "--alpha", "1", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "case abc" in out1
    assert "unimodular-pair" in out1


def test_procedure_rejects_blocks_sized_for_another_n(capsys, tmp_path):
    import json

    # Z1 = Z2 = 0 fails the Z condition, which once let the procedure redraw
    # blocks of the right size and certify without a word.
    zero = [["0"]] * 3
    (tmp_path / "b.json").write_text(json.dumps({"n": 1, "Y1": zero, "Z1": zero, "Z2": zero}))
    for q, blocks, v, sizes in (
        (Q_WORKED, str(tmp_path / "b.json"), "1,1,2", (1, 2)),
        (Q_WORKED, str(tmp_path / "b.json"), "1,0,0", (1, 2)),
        (Q_CIRCLE, BLOCKS_WORKED, "1,1,2", (2, 1)),
    ):
        code, out, err = run(capsys, "procedure", "-q", q, "-v", v, "--blocks", blocks)
        assert (code, out) == (2, "")
        assert err == f"input error: blocks sized for n = {sizes[0]}, quadratic has n = {sizes[1]}\n"


def test_certify_standard_pencil(capsys, tmp_path):
    out_file = tmp_path / "std.json"
    run(capsys, "standard", "-q", Q_WORKED, "-o", str(out_file))
    code, out, _ = run(capsys, "certify", "-q", Q_WORKED, "-l", str(out_file))
    assert code == 0
    assert "unimodular-pair" in out


def test_certify_worked_pencil_det_ratio(capsys):
    # The (1,1,2)-ansatz member falls back to the determinant ratio.
    code, out, _ = run(capsys, "certify", "-q", Q_WORKED, "-l", L_WORKED)
    assert "det-ratio" in out
    assert code in (0, 1)


# The det-ratio line, byte for byte, for a verified ratio, a degenerate one
# and det Q = 0.
def test_certify_det_ratio_verified_prints_gamma(capsys):
    from pencilspace import generate_member, procedure_linearize
    from pencilspace import serialization as ser

    # The source pencil of the procedure, (M kron I)^-1 times the aligned
    # member it certifies: a general ansatz, so only the ratio applies.
    q = ser.parse_problem(Path(Q_WORKED).read_text())
    blocks = ser.parse_blocks(Path(BLOCKS_WORKED).read_text())
    result = procedure_linearize(q, (1, 1, 2), blocks=blocks)
    source = generate_member(q, result.transform.v, result.blocks)
    assert ser.parse_pencil(Path(L_SOURCE).read_text()) == source
    code, out, _ = run(capsys, "certify", "-q", Q_WORKED, "-l", L_SOURCE)
    assert (code, out) == (0, "certificate: det-ratio certificate verified, gamma = 12\n")


def test_certify_det_ratio_degenerate(capsys, tmp_path):
    kernel = str(tmp_path / "kernel.json")
    run(capsys, "kernel", "--blocks", BLOCKS_WORKED, "-o", kernel)
    code, out, _ = run(capsys, "certify", "-q", Q_WORKED, "-l", kernel)
    assert (code, out) == (
        1,
        "certificate: det-ratio certificate FAILED "
        "(det L is identically zero (degenerate ratio)), gamma = 0\n",
    )


def test_certify_det_ratio_singular_q(capsys, tmp_path):
    import json

    doc = json.loads(Path(Q_WORKED).read_text())
    for coeff in doc["coefficients"].values():
        coeff[1] = ["0", "0"]
    problem = tmp_path / "q_zero_row.json"
    problem.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", "-q", str(problem), "-l", L_WORKED)
    assert (code, out) == (
        1,
        "certificate: det-ratio certificate FAILED (det Q is identically zero)\n",
    )


def test_qep_linearize(capsys, tmp_path):
    prefix = str(tmp_path / "sys")
    code, out, _ = run(capsys, "qep-linearize", "-s", SYS_CIRCLE_LINE, "-o", prefix)
    assert code == 0
    assert "L1: unimodular-pair" in out
    assert Path(prefix + "_L1.json").exists()
    assert Path(prefix + "_L2.json").exists()


@pytest.mark.parametrize("seed", [(), ("--seed", "3")], ids=["standard", "seeded"])
def test_qep_linearize_file_mode_writes_the_stdout_pencils(capsys, tmp_path, seed):
    args = ("qep-linearize", "-s", SYS_CIRCLE_LINE, *seed)
    code, printed, _ = run(capsys, *args)
    assert code == 0
    certificates = "".join(printed.splitlines(keepends=True)[:2])
    assert certificates.startswith("L1: ") and "\nL2: " in certificates
    prefix = str(tmp_path / "sys")
    code, out, _ = run(capsys, *args, "-o", prefix)
    assert code == 0
    assert out == certificates + f"wrote {prefix}_L1.json\nwrote {prefix}_L2.json\n"
    written = Path(prefix + "_L1.json").read_text() + Path(prefix + "_L2.json").read_text()
    assert written == printed[len(certificates):]


def test_qep_linearize_seeded_reproducible(capsys):
    args = ("qep-linearize", "-s", SYS_CIRCLE_LINE, "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def matrix_route_draw(rng, n):
    """The seeded component draw built from Matrix blocks, the oracle of
    cli._random_component_blocks: Y11, Z1 and Z2 drawn in that order, each
    a Matrix, the lower Z block as an hstack of two submatrices and Y1 as a
    vstack with a zero block.  Also returns the number of rejected draws and
    the det that accepted the draw."""
    from pencilspace import FreeBlocks, Matrix

    def block(rows, cols):
        return Matrix.from_integer_form(1, [[(rng.randint(-3, 3), 0) for _ in range(cols)] for _ in range(rows)])

    lower, left = range(n, 3 * n), range(n)
    for rejected in range(64):
        y11, z1, z2 = block(n, n), block(3 * n, n), block(3 * n, n)
        det = Matrix.hstack([z1.submatrix(lower, left), z2.submatrix(lower, left)]).det()
        if det:
            return FreeBlocks(n, Matrix.vstack([y11, Matrix.zeros(2 * n, n)]), z1, z2), rejected, det
    raise AssertionError("no admissible draw")


def test_seeded_draws_equal_the_matrix_route():
    # --seed draws integer rows: the same randint calls in the same order
    # as the Matrix route, so the same blocks and the same rng state after,
    # and the det the blocks keep for their certificate is the oracle's.
    import random

    from pencilspace.cli import _random_component_blocks

    redrawn = 0
    for n in (1, 2, 3):
        for seed in range(200):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            expected, rejected, det = matrix_route_draw(oracle_rng, n)
            blocks = _random_component_blocks(rng, n)
            assert blocks == expected
            assert rng.getstate() == oracle_rng.getstate()
            assert blocks._lower_z_det == det
            redrawn += n == 1 and rejected > 0
    # Some seeds' first n = 1 draw is singular, so the redraw path is covered.
    assert redrawn


def test_seeded_certificates_read_det_f_off_the_drawn_z_block():
    # det F = 1 / det Z for Z the pencil's constant lower-left 2n x 2n block,
    # the block the draw was accepted on.
    import random

    from pencilspace import QuadSystem2P, linearize_system
    from pencilspace.cli import _random_component_blocks

    from conftest import rand_quad

    for n in (1, 2, 3):
        system = QuadSystem2P(rand_quad(random.Random(n), n), rand_quad(random.Random(n + 10), n))
        for seed in range(200):
            rng = random.Random(seed)
            blocks = [_random_component_blocks(rng, n) for _ in range(2)]
            lin = linearize_system(system, 1, 1, *blocks)
            for pencil, cert in ((lin.l1, lin.cert1), (lin.l2, lin.cert2)):
                lower = pencil.const.submatrix(range(n, 3 * n), range(2 * n))
                assert cert.det_f == 1 / lower.det()


@pytest.mark.parametrize("n1, n2, seed", [(1, 2, 5), (3, 3, 5)])
def test_seeded_qep_linearize_eliminates_each_z_block_once(capsys, tmp_path, bareiss_calls, n1, n2, seed):
    # The det that accepts each draw is the certificate's: one Bareiss run
    # of 2n_i rows per component, none in linearize_system.
    import random

    from pencilspace import QuadSystem2P
    from pencilspace import serialization as ser

    from conftest import rand_quad

    rng = random.Random(n1 + n2)
    path = tmp_path / "system.json"
    path.write_text(ser.serialize_system(QuadSystem2P(rand_quad(rng, n1), rand_quad(rng, n2))))
    oracle_rng = random.Random(seed)
    # The seed's first draws are accepted, so no rejected draw adds a run.
    assert [matrix_route_draw(oracle_rng, n)[1] for n in (n1, n2)] == [0, 0]
    bareiss_calls.clear()
    code, out, _ = run(capsys, "qep-linearize", "-s", str(path), "--seed", str(seed))
    assert code == 0 and out.startswith("L1: unimodular-pair certificate")
    assert [rows for rows, _ in bareiss_calls] == [2 * n1, 2 * n2]


def test_delta(capsys):
    code, out, _ = run(capsys, "delta", "-s", SYS_CIRCLE_LINE)
    assert code == 0
    assert "9 x 9" in out
    assert "det Delta0 = 0 (exact)" in out
    assert "verdict: singular" in out


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "-s", SYS_CIRCLE_LINE)
    assert code == 0
    assert "2 point(s), bound 4" in out
    assert "0.707106781187" in out


def test_spectrum_non_generic_exit_code(capsys, tmp_path):
    text = Path(SYS_CIRCLE_LINE).read_text()
    doc = text.replace('"Q2"', '"QX"')  # force same component twice
    import json

    parsed = json.loads(text)
    parsed["Q2"] = parsed["Q1"]
    (tmp_path / "dup.json").write_text(json.dumps(parsed))
    code, out, err = run(capsys, "spectrum", "-s", str(tmp_path / "dup.json"))
    assert code == 4
    assert "non-generic" in err


CODEC_FUNCTIONS = (
    "parse_problem",
    "parse_pencil",
    "parse_system",
    "parse_blocks",
    "parse_eigenpair",
    "serialize_pencil",
)


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["certify", "-q", Q_WORKED, "-l", L_SOURCE], ["parse_problem", "parse_pencil"]),
        (["standard", "-q", Q_CIRCLE], ["parse_problem", "serialize_pencil"]),
        (["compare", "-s", SYS_CIRCLE_LINE], ["parse_system"]),
    ],
    ids=["certify", "standard", "compare"],
)
def test_commands_read_and_write_through_the_codec_functions(capsys, monkeypatch, argv, calls):
    # The benchmark's serialization spans wrap these names in
    # pencilspace.serialization, and the CLI reaches them through that
    # module; a command that renamed or bypassed one would leave its span
    # reading 0.
    from pencilspace import serialization as ser

    seen = []
    for name in CODEC_FUNCTIONS:

        def spy(*args, _name=name, _call=getattr(ser, name)):
            seen.append(_name)
            return _call(*args)

        monkeypatch.setattr(ser, name, spy)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert seen == calls


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "-s", SYS_CIRCLE_LINE)
    assert code == 0
    assert "spectra agree" in out


def test_compare_seeded(capsys):
    code, out, _ = run(capsys, "compare", "-s", SYS_CIRCLE_LINE, "--seed", "5")
    assert code == 0
    assert "spectra agree" in out


def test_compare_expands_no_pencil_determinant(capsys, tmp_path, monkeypatch):
    # compare expands one n_i x n_i determinant per quadratic and reads each
    # det L_i off its unimodular-pair certificate: exact_det_poly never sees
    # a 3n x 3n pencil, with the standard blocks or with seeded ones.
    import random
    import sys

    from pencilspace import QuadSystem2P, polymatrix
    from pencilspace import serialization as ser

    from conftest import rand_quad

    rng = random.Random(29)
    system12 = tmp_path / "system12.json"
    system12.write_text(ser.serialize_system(QuadSystem2P(rand_quad(rng, 1), rand_quad(rng, 2))))
    real = polymatrix.exact_det_poly
    sizes = []

    def recording(a):
        sizes.append((a.rows, a.cols))
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pencilspace" and getattr(module, "exact_det_poly", None) is real:
            monkeypatch.setattr(module, "exact_det_poly", recording)
    systems = {SYS_CIRCLE_LINE: (1, 1), str(CORPUS / "sys_complex.json"): (1, 1), SYS_RATIONAL: (1, 1)}
    systems[str(system12)] = (1, 2)
    for path, (n1, n2) in systems.items():
        for seed in ([], ["--seed", "5"]):
            sizes.clear()
            code, out, _ = run(capsys, "compare", "-s", path, *seed)
            assert code == 0 and "spectra agree" in out
            assert sorted(sizes) == [(n1, n1), (n2, n2)]


def _scalar_quadratic(**coefficients):
    names = ("A20", "A11", "A02", "A10", "A01", "A00")
    return {"n": 1, "coefficients": {k: [[str(coefficients.get(k, 0))]] for k in names}}


@pytest.mark.parametrize("command", ["spectrum", "compare"])
@pytest.mark.parametrize("swap", [False, True], ids=["free-first", "free-second"])
def test_determinant_free_of_mu_still_has_a_finite_spectrum(capsys, tmp_path, command, swap):
    import json

    # det Q1 = lam - 1 has degree 0 in mu; with det Q2 = mu^2 - 1 the
    # common zeros are (1, 1) and (1, -1), in either order of the pair.
    pair = [_scalar_quadratic(A10=1, A00=-1), _scalar_quadratic(A02=1, A00=-1)]
    if swap:
        pair.reverse()
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"Q1": pair[0], "Q2": pair[1]}))
    code, out, err = run(capsys, command, "-s", str(system))
    assert code == 0, err
    assert "sigma_Q: 2 point(s), bound 4" in out
    assert "lam = (1, 0)  mu = (-1," in out and "lam = (1, 0)  mu = (1," in out
    if command == "compare":
        assert "spectra agree" in out


# det Q1 and det Q2 share a factor in lam alone, so every (lam, mu) on it is
# a common zero although the resultant in mu is nonzero.
SHARED_LAM_FACTOR = [
    # lam (mu - 1) and lam (lam + mu)
    (dict(A11=1, A10=-1), dict(A20=1, A11=1), "lam"),
    # lam (mu - 1) and lam (mu + 1)
    (dict(A11=1, A10=-1), dict(A11=1, A10=1), "lam"),
    # lam^2 - 1 and lam - 1, both free of mu
    (dict(A20=1, A00=-1), dict(A10=1, A00=-1), "-1 + lam"),
]


@pytest.mark.parametrize("command", ["spectrum", "compare"])
@pytest.mark.parametrize(
    "q1, q2, factor", SHARED_LAM_FACTOR, ids=["lam+mu", "mu+1", "free-of-mu"]
)
def test_shared_factor_in_lam_is_non_generic(capsys, tmp_path, command, q1, q2, factor):
    import json

    system = tmp_path / "system.json"
    system.write_text(json.dumps({"Q1": _scalar_quadratic(**q1), "Q2": _scalar_quadratic(**q2)}))
    code, out, err = run(capsys, command, "-s", str(system))
    assert (code, out) == (4, "")
    assert err == f"non-generic system: determinants share the factor {factor}, free of mu\n"


@pytest.mark.parametrize("command", ["spectrum", "compare"])
def test_coprime_determinants_free_of_mu_have_no_common_zero(capsys, tmp_path, command):
    import json

    # lam^2 - 1 and lam - 3 share no zero.
    pair = {"Q1": _scalar_quadratic(A20=1, A00=-1), "Q2": _scalar_quadratic(A10=1, A00=-3)}
    system = tmp_path / "system.json"
    system.write_text(json.dumps(pair))
    code, out, err = run(capsys, command, "-s", str(system))
    assert (code, err) == (0, "")
    assert out.startswith("sigma_Q: 0 point(s), bound 4\n")
    if command == "compare":
        assert out.endswith("spectra agree\n")


def test_zero_singular_on_both_curves_exits_4(capsys, tmp_path):
    import json

    # mu^2 - lam^2 and mu^2 - 4 lam^2: (0, 0) is singular on both curves,
    # so no shear of lam pairs it with one mu.
    pair = {"Q1": _scalar_quadratic(A02=1, A20=-1), "Q2": _scalar_quadratic(A02=1, A20=-4)}
    system = tmp_path / "system.json"
    system.write_text(json.dumps(pair))
    code, out, err = run(capsys, "spectrum", "-s", str(system))
    assert (code, out) == (4, "")
    assert err.startswith("non-generic system: a common zero is singular on both")
    assert "Traceback" not in err and err.count("\n") == 1


def test_proved_s1_reading_zero_in_floats_exits_3(capsys, monkeypatch):
    from pencilspace import qep

    monkeypatch.setattr(qep, "_mu_from_subresultant", lambda s1, s0: lambda x: None)
    code, out, err = run(capsys, "spectrum", "-s", SYS_CIRCLE_LINE)
    assert (code, out) == (3, "")
    assert err.startswith("numeric overflow: s1 is proved nonzero at the root")


def test_verify_pair(capsys):
    code, out, _ = run(
        capsys, "verify-pair", "-s", SYS_RATIONAL, "--pair", PAIR_RATIONAL
    )
    assert code == 0
    assert out.count("exact zero") == 6
    assert "eigenpair verified" in out


def test_verify_pair_evaluates_no_quadratic_at_an_exact_pair(capsys, monkeypatch):
    # Q_i(lam, mu) x_i comes from six n x n products; Q_i(lam, mu) itself
    # would only scale a residual that is not exactly zero.
    from pencilspace.polymatrix import PolyMatrix

    real = PolyMatrix.eval
    calls = []

    def counting(m, lam, mu):
        calls.append(m.shape)
        return real(m, lam, mu)

    monkeypatch.setattr(PolyMatrix, "eval", counting)
    code, out, _ = run(capsys, "verify-pair", "-s", SYS_RATIONAL, "--pair", PAIR_RATIONAL)
    assert code == 0 and out.count("exact zero") == 6
    assert calls == []


def test_delta_and_verify_pair_form_no_kronecker_operator(capsys, tmp_path, monkeypatch):
    import json
    import random

    from pencilspace import QuadSystem2P, qep
    from pencilspace import serialization as ser

    from conftest import plant_eigenvector, rand_gr, rand_quad

    rng = random.Random(20)
    system33 = tmp_path / "system33.json"
    system33.write_text(
        ser.serialize_system(QuadSystem2P(rand_quad(rng, 3), rand_quad(rng, 3)))
    )
    lam, mu = rand_gr(rng), rand_gr(rng)
    q1, x1 = plant_eigenvector(rng, rand_quad(rng, 2), lam, mu)
    q2, x2 = plant_eigenvector(rng, rand_quad(rng, 2), lam, mu)
    system22 = tmp_path / "system22.json"
    system22.write_text(ser.serialize_system(QuadSystem2P(q1, q2)))
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {
                "lambda": ser.format_scalar(lam),
                "mu": ser.format_scalar(mu),
                "x1": [ser.format_scalar(x1[i, 0]) for i in range(2)],
                "x2": [ser.format_scalar(x2[i, 0]) for i in range(2)],
            }
        )
    )

    def forbidden(*args):
        raise AssertionError("a 9 n1 n2 x 9 n1 n2 operator was formed")

    monkeypatch.setattr(qep, "delta0_operator", forbidden)
    monkeypatch.setattr(qep, "delta_operators", forbidden)
    for seed in ([], ["--seed", "5"]):
        assert run(capsys, "delta", "-s", str(system33), *seed) == (
            0,
            "delta operators: 81 x 81\ndet Delta0 = 0 (exact)\nverdict: singular\n",
            "",
        )
    names = ("Q1(lam,mu) x1", "Q2(lam,mu) x2", "L1(lam,mu) w1", "L2(lam,mu) w2",
             "Delta1 z - lam Delta0 z", "Delta2 z - mu Delta0 z")
    for seed in ([], ["--seed", "5"]):
        assert run(capsys, "verify-pair", "-s", str(system22), "--pair", str(pair), *seed) == (
            0,
            "".join(f"{name}: exact zero [ok]\n" for name in names) + "eigenpair verified\n",
            "",
        )


def test_certifying_commands_form_no_polynomial_product(capsys, monkeypatch, polymatrix_products):
    # Every certificate these commands build is a unimodular pair whose E
    # and F nobody reads, so W Z^-1 is never formed.
    import json

    from pencilspace import construct

    real = construct._unimodular_pair
    pairs = []
    monkeypatch.setattr(construct, "_unimodular_pair", lambda *args: pairs.append(args) or real(*args))
    monkeypatch.chdir(CORPUS.parent)
    transcript = json.loads((Path(__file__).parent / "golden" / "cli_transcript.json").read_text())
    commands = {"certify", "procedure", "qep-linearize", "delta", "verify-pair"}
    entries = [entry for entry in transcript if entry["argv"][0] in commands]
    assert {entry["argv"][0] for entry in entries} == commands
    for entry in entries:
        assert run(capsys, *entry["argv"]) == (entry["exit"], entry["stdout"], entry["stderr"])
    assert len(pairs) >= len(entries) and polymatrix_products == []


def test_verify_pair_rejects_bad_point(capsys, tmp_path):
    bad = tmp_path / "pair.json"
    bad.write_text('{"lambda": "2", "mu": "7", "x1": ["1"], "x2": ["1"]}')
    code, out, _ = run(
        capsys, "verify-pair", "-s", SYS_RATIONAL, "--pair", str(bad)
    )
    assert code == 1
    assert "eigenpair rejected" in out


@pytest.mark.parametrize(
    "argv, spaced, joined",
    [
        (
            ("generate", "-q", Q_WORKED, "--blocks", BLOCKS_WORKED),
            ("-v", "-1,1,2"),
            "--vector=-1,1,2",
        ),
        (("qep-linearize", "-s", SYS_CIRCLE_LINE), ("--alpha1", "-1/2"), "--alpha1=-1/2"),
        (("qep-linearize", "-s", SYS_CIRCLE_LINE), ("--alpha2", "-3/4"), "--alpha2=-3/4"),
    ],
    ids=["vector", "alpha1", "alpha2"],
)
def test_negative_value_after_space_matches_equals_form(capsys, argv, spaced, joined):
    code_spaced, out_spaced, _ = run(capsys, *argv, *spaced)
    code_joined, out_joined, _ = run(capsys, *argv, joined)
    assert code_spaced == code_joined == 0
    assert out_spaced == out_joined


@pytest.mark.parametrize("command", ["spectrum", "compare"])
def test_float_overflow_is_numeric_exit_without_traceback(tmp_path, command):
    import json
    import subprocess
    import sys

    # 10^400 is exact in the input but overflows a float in the root iteration.
    doc = json.loads(Path(SYS_CIRCLE_LINE).read_text())
    doc["Q1"]["coefficients"]["A20"] = [[10**400]]
    system = tmp_path / "huge.json"
    system.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", command, "-s", str(system)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3
    assert "numeric overflow" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["procedure", "-q", Q_WORKED, "-v", "1,0,0", "--alpha", "1e2500"],
        ["qep-linearize", "-s", str(CORPUS / "sys_planted_2x2.json"), "--alpha1", "1e2500"],
    ],
    ids=["procedure", "qep-linearize"],
)
def test_value_too_long_to_print_is_a_numeric_overflow(capsys, argv):
    # alpha = 10^2500 parses, but det E = alpha^-2 has 5001 digits: the
    # command exits 3 on one line, with none of its report on stdout.
    from pencilspace import serialization as ser

    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"numeric overflow: a value to print has more than {ser.MAX_DIGITS} digits\n"


def test_exact_eigenpair_verifies_beyond_the_float_range(capsys, tmp_path):
    import json

    # Both quadratics times 10^200: the Delta operators hold entries near
    # 10^400, beyond a float, but only a residual that is not exactly zero
    # needs its operator's scale.  The exact pair verifies; the wrong one
    # needs a norm and a scale, and overflows.
    doc = json.loads(Path(SYS_RATIONAL).read_text())
    for q in ("Q1", "Q2"):
        for block in doc[q]["coefficients"].values():
            block[0][0] = str(int(block[0][0]) * 10**200)
    system = tmp_path / "huge.json"
    system.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-pair", "-s", str(system), "--pair", PAIR_RATIONAL)
    assert (code, err) == (0, "")
    assert out.count("exact zero [ok]") == 6 and out.endswith("eigenpair verified\n")
    wrong = str(CORPUS / "pair_rational_wrong.json")
    code, out, err = run(capsys, "verify-pair", "-s", str(system), "--pair", wrong)
    assert code == 3 and err.startswith("numeric overflow")


def test_non_finite_root_iterate_is_numeric_exit_without_warnings(tmp_path):
    import json
    import subprocess
    import sys

    # A tiny leading coefficient puts the first iterates near 1e200, whose
    # powers overflow in the first sweep.
    doc = json.loads(Path(SYS_RATIONAL).read_text())
    doc["Q1"]["coefficients"]["A20"] = [["1e-200"]]
    system = tmp_path / "tiny.json"
    system.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", "spectrum", "-s", str(system)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3
    assert "non-finite" in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert result.stderr.count("\n") == 1


def test_underflowing_leading_coefficient_is_not_read_as_zero(tmp_path):
    import json
    import subprocess
    import sys

    # The exact resultant is generic, but its leading coefficient (about
    # 1e-8000) is below the float range; the spectrum's roots lie beyond it.
    def problem(**coeffs):
        return {"n": 1, "coefficients": {key: [[value]] for key, value in coeffs.items()}}

    doc = {
        "Q1": problem(A20="0", A11="-3e-4000", A02="0", A10="-2", A01="-1", A00="2"),
        "Q2": problem(A20="2", A11="1", A02="0", A10="-3", A01="1", A00="-3"),
    }
    system = tmp_path / "underflow.json"
    system.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", "spectrum", "-s", str(system)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3
    assert result.stderr.startswith("numeric overflow")
    assert "non-generic" not in result.stderr


# One run of every subcommand that never reaches the root iteration.
EXACT_COMMANDS = [
    ["standard", "-q", Q_CIRCLE],
    ["member", "-q", Q_WORKED, "-l", L_WORKED],
    ["generate", "-q", Q_WORKED, "-v", "1,1,2", "--blocks", BLOCKS_WORKED],
    ["kernel", "--blocks", BLOCKS_WORKED],
    ["dimension", "-q", Q_CIRCLE],
    ["procedure", "-q", Q_CIRCLE, "-v", "1,1,2", "--seed", "7"],
    ["certify", "-q", Q_WORKED, "-l", str(CORPUS / "l_aligned_worked.json")],
    ["qep-linearize", "-s", SYS_CIRCLE_LINE],
    ["delta", "-s", SYS_CIRCLE_LINE],
    ["verify-pair", "-s", SYS_RATIONAL, "--pair", PAIR_RATIONAL],
]

# After the import and after each exact command: which of numpy,
# dataclasses and inspect are loaded.
_COLD_START = """
import contextlib, io, json, sys
from pencilspace import cli
heavy = lambda: [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
codes, loaded = [], [heavy()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append(heavy())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["spectrum", "-s", sys.argv[2]])
json.dump([codes, loaded, code, "numpy" in sys.modules, out.getvalue()], sys.stdout)
"""


def test_exact_commands_never_load_numpy(capsys):
    # This process has numpy loaded already, so the check runs in a fresh
    # interpreter.
    import json
    import os
    import subprocess
    import sys

    src = str(CORPUS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(EXACT_COMMANDS), SYS_CIRCLE_LINE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    codes, loaded, code, spectrum_loaded, stdout = json.loads(result.stdout)
    assert codes == [0] * len(EXACT_COMMANDS)
    assert loaded == [[]] * (len(EXACT_COMMANDS) + 1)
    assert code == 0 and spectrum_loaded
    assert (code, stdout) == run(capsys, "spectrum", "-s", SYS_CIRCLE_LINE)[:2]


# Counts every ArgumentParser built: at import, then over three commands.
_PARSERS_BUILT = """
import argparse, contextlib, io, json, sys
built = 0
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
from pencilspace import cli
at_import = built
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
json.dump([at_import, built, codes], sys.stdout)
"""


def test_parser_is_built_once_per_process():
    import json
    import os
    import subprocess
    import sys

    src = str(CORPUS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _PARSERS_BUILT, json.dumps(EXACT_COMMANDS[:3])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    at_import, built, codes = json.loads(result.stdout)
    assert codes == [0, 0, 0]
    # The top-level parser and one subparser for each of the 12 commands.
    assert (at_import, built) == (0, 13)


@pytest.mark.parametrize(
    "argv, quadratics",
    [
        (["member", "-q", Q_WORKED, "-l", L_WORKED], 1),
        (["certify", "-q", Q_WORKED, "-l", str(CORPUS / "l_standard_worked.json")], 1),
        (["procedure", "-q", Q_WORKED, "-v", "1,1,2", "--seed", "4"], 1),
        (["procedure", "-q", Q_WORKED, "-v", "-1,0,0", "--blocks", BLOCKS_WORKED], 1),
        (["qep-linearize", "-s", SYS_CIRCLE_LINE, "--seed", "3"], 2),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else str(value),
)
def test_each_quadratic_is_aligned_once_per_command(capsys, monkeypatch, argv, quadratics):
    # Membership, the ansatz identity of a certificate and each member laid
    # out read one quadratic's six coefficients over one denominator, kept on
    # the quadratic once aligned.
    from functools import cached_property

    from pencilspace.pencil import QuadPoly2P

    aligned = []
    forms = QuadPoly2P._coefficient_forms.func
    spy = cached_property(lambda q: aligned.append(q) or forms(q))
    spy.__set_name__(QuadPoly2P, "_coefficient_forms")
    monkeypatch.setattr(QuadPoly2P, "_coefficient_forms", spy)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(aligned) == len({id(q) for q in aligned}) == quadratics


@pytest.mark.parametrize(
    "argv, documents, layouts",
    [
        (["qep-linearize", "-s", SYS_CIRCLE_LINE, "--seed", "3"], 1, 2),
        (["certify", "-q", Q_WORKED, "-l", str(CORPUS / "l_standard_worked.json")], 2, 0),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else str(value),
)
def test_parsed_documents_and_laid_out_members_are_not_reduced(capsys, monkeypatch, argv, documents, layouts):
    # The spy on gaussint.content, the one reduction primitive: the document
    # pass and _lay_out keep the forms they build as they are, and each
    # parsed quadratic's six coefficients, stored over its document's one
    # denominator, align with factor 1 (their own rows, not copies).
    from functools import cached_property

    from pencilspace import construct, gaussint, space
    from pencilspace import serialization as ser
    from pencilspace.pencil import QuadPoly2P

    inside, reductions, calls = [], [], []

    def watch(module, name):
        real = getattr(module, name)

        def watched(*args):
            calls.append(name)
            inside.append(name)
            try:
                return real(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, watched)

    watch(ser, "_canonical_matrices")
    for module in (space, construct):
        watch(module, "_lay_out")
    content = gaussint.content
    monkeypatch.setattr(gaussint, "content", lambda den, pairs: reductions.append(tuple(inside)) or content(den, pairs))
    unaligned = []
    forms = QuadPoly2P._coefficient_forms.func

    def aligned_once(q):
        den, rows = forms(q)
        stored = [c._stored_form() for c in q.coefficients()]
        unaligned.extend(d != den or r is not s for (d, s), r in zip(stored, rows))
        return den, rows

    spy = cached_property(aligned_once)
    spy.__set_name__(QuadPoly2P, "_coefficient_forms")
    monkeypatch.setattr(QuadPoly2P, "_coefficient_forms", spy)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls.count("_canonical_matrices") == documents and calls.count("_lay_out") == layouts
    assert not [r for r in reductions if r]
    assert unaligned and not any(unaligned)


# A denominator of 1000 decimal digits.
LONG_DEN = 10**999 + 7


@pytest.mark.parametrize("kind", ["standard", "source", "perturbed"])
def test_one_long_denominator_reads_as_each_matrix_read_alone(capsys, tmp_path, kind):
    # A canonical pencil document with a 1000-digit denominator in one entry
    # (in three for the (1, 1, 2) member): the document pass puts every
    # matrix over it, yet member and certify print what they print when the
    # general reader reads each matrix on its own, and no Bareiss run takes
    # a larger operand, since every elimination reads the canonical form.
    from fractions import Fraction

    from pencilspace import Matrix, generate_member, matrices, polymatrix, standard_linearization
    from pencilspace import serialization as ser
    from pencilspace.space import free_blocks

    q = ser.parse_problem(Path(Q_WORKED).read_text(encoding="utf-8"))
    tiny = Matrix([[Fraction(1, LONG_DEN), 0], [0, 0]])
    if kind == "perturbed":
        problem = Q_WORKED
        pencil = ser.parse_pencil(Path(L_WORKED).read_text(encoding="utf-8"))
        corner = Matrix.from_blocks([[tiny, Matrix.zeros(2, 4)], [Matrix.zeros(4, 2), Matrix.zeros(4, 4)]])
        pencil = pencil._replace(lam_coeff=pencil.lam_coeff + corner)
    else:
        q = q._replace(a00=q.a00 + tiny)
        problem = str(tmp_path / "q.json")
        Path(problem).write_text(ser.serialize_problem(q), encoding="utf-8")
        if kind == "standard":
            pencil = standard_linearization(q)
        else:
            source = ser.parse_pencil(Path(L_SOURCE).read_text(encoding="utf-8"))
            pencil = generate_member(q, (1, 1, 2), free_blocks(source))
    path = tmp_path / "l.json"
    path.write_text(ser.serialize_pencil(pencil), encoding="utf-8")
    assert str(LONG_DEN) in path.read_text(encoding="utf-8")

    def printed(patch) -> tuple:
        """member's and certify's output, and the largest operand bits of
        each Bareiss determinant they run."""
        bits = []
        for module in (matrices, polymatrix):

            def recording(a, real=module.bareiss_det_int):
                before = max(abs(v).bit_length() for row in a for pair in row for v in pair)
                det = real(a)
                after = max(abs(v).bit_length() for row in a for pair in row for v in pair)
                bits.append(max(before, after, *(abs(v).bit_length() for v in det)))
                return det

            patch.setattr(module, "bareiss_det_int", recording)
        outputs = [run(capsys, command, "-q", problem, "-l", str(path)) for command in ("member", "certify")]
        return outputs, bits

    passes = []
    with pytest.MonkeyPatch.context() as patch:
        read = ser._canonical_matrices
        patch.setattr(ser, "_canonical_matrices", lambda specs: passes.append(read(specs)) or passes[-1])
        through_pass, pass_bits = printed(patch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ser, "_canonical_matrices", lambda specs: None)
        alone, alone_bits = printed(patch)
    assert passes and all(p is not None for p in passes)
    assert through_pass == alone
    assert [code for code, _, _ in alone] == ([1, 1] if kind == "perturbed" else [0, 0])
    assert (kind != "perturbed") == bool(alone_bits)
    assert max(pass_bits, default=0) <= max(alone_bits, default=0)


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "member", "-q", "/nonexistent.json", "-l", L_WORKED)
    assert code == 2
    assert "input error" in err


def test_malformed_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "coefficients": {"A20": [["x"]]}}')
    code, _, err = run(capsys, "standard", "-q", str(bad))
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_files_print_what_the_lf_file_prints(capsys, tmp_path, newline):
    problem, pencil = tmp_path / "q.json", tmp_path / "l.json"
    for path, source in ((problem, Q_WORKED), (pencil, L_WORKED)):
        path.write_bytes(Path(source).read_bytes().replace(b"\n", newline.encode()))
    assert newline.encode() in problem.read_bytes()
    expected = run(capsys, "certify", "-q", Q_WORKED, "-l", L_WORKED)
    assert expected[1]
    assert run(capsys, "certify", "-q", str(problem), "-l", str(pencil)) == expected


@pytest.mark.parametrize(
    "data",
    [b"", b"a\nb", b"a\r\nb\r", b"\r\r\n\n\r", b"x\r" * 5000 + b"\r\n", "\ufeff\u00e9\r\n".encode("utf-8")],
)
def test_read_returns_the_text_read_text_returns(tmp_path, data):
    from pencilspace import cli

    path = tmp_path / "file.json"
    path.write_bytes(data)
    expected = path.read_text(encoding="utf-8")
    assert cli._read(str(path)) == expected
    # pathlib drops a trailing separator, so the file is read through it too.
    assert cli._read(f"{path}/") == expected


def _read_text_error(path: str) -> str:
    """What the CLI prints for a file that Path.read_text cannot read."""
    try:
        Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        return f"input error: {exc}\n"
    raise AssertionError(f"{path} reads")


@pytest.mark.parametrize("kind", ["missing", "directory", "invalid utf-8", "relative", "empty"])
def test_unreadable_file_exits_2_with_the_read_text_message(capsys, tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    # The invalid byte lies past the first 8 KiB that a buffered read takes.
    bad.write_bytes(b" " * 9000 + b"\xff" + b"{}")
    path = {
        "missing": str(tmp_path / "missing.json"),
        "directory": str(tmp_path),
        "invalid utf-8": str(bad),
        "relative": ".//missing.json",
        "empty": "",
    }[kind]
    assert run(capsys, "standard", "-q", path) == (2, "", _read_text_error(path))


def test_byte_order_mark_is_located_input_error(capsys, tmp_path):
    # The one reused decoder keeps json.loads's refusal of a leading BOM.
    bom = tmp_path / "bom.json"
    bom.write_text("\ufeff" + Path(Q_CIRCLE).read_text(encoding="utf-8"), encoding="utf-8")
    assert run(capsys, "standard", "-q", str(bom)) == (
        2,
        "",
        "input error: invalid JSON at line 1, column 1: "
        "Unexpected UTF-8 BOM (decode using utf-8-sig)\n",
    )


def test_zero_ansatz_is_input_error(capsys):
    code, _, err = run(capsys, "procedure", "-q", Q_CIRCLE, "-v", "0,0,0")
    assert code == 2


def test_procedure_on_zero_quadratic_is_not_certified(capsys, tmp_path):
    import json

    # Membership is ambiguous for Q = 0 (it reports v = 0), so the aligned
    # pencil cannot be certified as an alpha*e1 member.
    names = ("A20", "A11", "A02", "A10", "A01", "A00")
    zero = {"n": 1, "coefficients": {name: [["0"]] for name in names}}
    (tmp_path / "zero.json").write_text(json.dumps(zero))
    code, _, err = run(capsys, "procedure", "-q", str(tmp_path / "zero.json"), "-v", "1,1,2")
    assert code == 1
    assert "not certified" in err


def test_zero_eigenvector_is_input_error(capsys, tmp_path):
    bad = tmp_path / "pair.json"
    bad.write_text('{"lambda": "1", "mu": "3", "x1": ["0"], "x2": ["1"]}')
    code, _, err = run(capsys, "verify-pair", "-s", SYS_RATIONAL, "--pair", str(bad))
    assert code == 2
    assert "input error" in err


def test_console_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "pencilspace.cli"],
        capture_output=True,
        text=True,
    )
    # argparse exits 2 when no subcommand is given
    assert result.returncode == 2


def test_cli_main_module_runs_member():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", "member", "-q", Q_WORKED, "-l", L_WORKED],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "v = (1, 1, 2)" in result.stdout


@pytest.mark.skipif(
    shutil.which("pencilspace") is None,
    reason="the pencilspace console script is on PATH only after the package is installed",
)
def test_cli_console_script_runs_member():
    import subprocess

    result = subprocess.run(
        ["pencilspace", "member", "-q", Q_WORKED, "-l", L_WORKED],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "v = (1, 1, 2)" in result.stdout


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("procedure", "-q", Q_CIRCLE, "-v", "1e1000000,1,0"), "-v"),
        (("generate", "-q", Q_WORKED, "--blocks", BLOCKS_WORKED, "-v", "1,1,1e1000000"), "-v"),
        (("procedure", "-q", Q_CIRCLE, "-v", "1,1,2", "--alpha", "1e1000000"), "--alpha"),
        (("qep-linearize", "-s", SYS_CIRCLE_LINE, "--alpha1", "1e1000000"), "--alpha1"),
        (("qep-linearize", "-s", SYS_CIRCLE_LINE, "--alpha2", "-1e1000000"), "--alpha2"),
    ],
    ids=["procedure-vector", "generate-vector", "alpha", "alpha1", "alpha2"],
)
def test_huge_exponent_in_a_flag_value_exits_2_naming_the_flag(argv, flag):
    import subprocess
    import sys
    import time

    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 2
    assert result.stderr.startswith(f"input error: {flag}: ")
    assert "more than" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert elapsed < 5.0, elapsed


def _nested_scalar(depth):
    text = "1"
    for _ in range(depth):
        text = '{"re": %s}' % text
    return text


@pytest.mark.parametrize(
    "coefficient, message",
    [
        ("[" * 100_000 + "]" * 100_000, "input error: problem: invalid JSON: arrays or objects nested too deeply"),
        ("[[%s]]" % _nested_scalar(980), "input error: problem.coefficients.A20[0][0]: scalar nested too deeply"),
    ],
    ids=["nested-arrays", "nested-scalar"],
)
def test_deeply_nested_input_is_a_located_input_error(tmp_path, coefficient, message):
    import subprocess
    import sys

    text = Path(Q_CIRCLE).read_text()
    problem = tmp_path / "deep.json"
    problem.write_text(text.replace('"A20": [\n      [\n        "1"\n      ]\n    ]', f'"A20": {coefficient}'))
    assert problem.read_text() != text
    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", "dimension", "-q", str(problem)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stderr == message + "\n"
    assert result.stdout == ""


def test_nested_scalar_within_the_stack_still_parses(tmp_path):
    import subprocess
    import sys

    text = Path(Q_CIRCLE).read_text()
    problem = tmp_path / "nested.json"
    problem.write_text(text.replace('"1"', _nested_scalar(950), 1))
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "pencilspace", "standard", "-q", path],
            capture_output=True,
            text=True,
        )
        for path in (Q_CIRCLE, str(problem))
    ]
    assert [r.returncode for r in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout


def test_deepest_accepted_nested_scalar_parses(tmp_path):
    import subprocess
    import sys

    from pencilspace.serialization import MAX_NESTING

    assert MAX_NESTING == 979
    text = Path(Q_CIRCLE).read_text()
    problem = tmp_path / "deepest.json"
    problem.write_text(text.replace('"1"', _nested_scalar(MAX_NESTING), 1))
    result = subprocess.run(
        [sys.executable, "-m", "pencilspace", "dimension", "-q", str(problem)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "-s", SYS_CIRCLE_LINE),
        ("compare", "-s", SYS_CIRCLE_LINE),
        ("verify-pair", "-s", SYS_RATIONAL, "--pair", PAIR_RATIONAL),
    ],
    ids=["spectrum", "compare", "verify-pair"],
)
def test_tolerance_must_be_finite_and_positive(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", value])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"argument --tol: must be a finite positive number, not '{value}'" in err
