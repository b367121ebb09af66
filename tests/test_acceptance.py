"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line once its assertions hold (run with
``pytest tests/test_acceptance.py -s`` to see them); a failed assertion
fails the criterion.  Tolerances are pinned here, not configurable.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

from pencilspace import (
    Matrix,
    QuadSystem2P,
    ansatz_transform,
    apply_to_lambda,
    box_add_pencil,
    certify_scaled_e1,
    delta_operators,
    generate_member,
    kron,
    linearize_system,
    membership,
    procedure_linearize,
    space_dimension,
    spectrum_quadratic,
    standard_linearization,
    verify_eigenpair,
    verify_spectral_equality,
)
from pencilspace.cli import main as cli_main
from pencilspace.errors import NonGenericSystemError
from pencilspace.polymatrix import exact_det_poly
from pencilspace import serialization as ser
from pencilspace.scalars import GaussianRational

from conftest import (
    ansatz_target,
    example_quad,
    rand_blocks,
    rand_quad,
    worked_example_blocks,
    worked_example_pencil,
)
from test_construct import CASE_PATTERNS, admissible_blocks, random_vector_for
from test_qep import RATIONAL_EIG
from test_space import brute_force_dimension

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {text}")


def twenty_random_quads():
    rng = random.Random(101)
    quads = []
    while len(quads) < 20:
        n = rng.choice((1, 2, 3))
        q = rand_quad(rng, n)
        if not q.coefficient_row().is_zero():
            quads.append(q)
    return quads


def test_criterion_1_standard_linearization_identity():
    for q in twenty_random_quads():
        pencil = standard_linearization(q)
        assert apply_to_lambda(pencil) == ansatz_target(q, (1, 0, 0))
    report(1, "L(lam,mu)(Lambda kron I) = e1 kron Q for 20 random instances, exact")


def test_criterion_2_box_add_of_standard_linearization():
    for q in twenty_random_quads():
        pencil = standard_linearization(q)
        target = kron(Matrix.column([1, 0, 0]), q.coefficient_row())
        assert box_add_pencil(pencil) == target
    report(2, "box-add of the standard linearization hits e1 kron coefficient row, exact")


def test_criterion_3_worked_example_reproduction():
    q = example_quad(2)
    pencil = worked_example_pencil(q)
    result = membership(pencil, q)
    assert result and result.v == (
        GaussianRational(1),
        GaussianRational(1),
        GaussianRational(2),
    )
    generated = generate_member(q, (1, 1, 2), worked_example_blocks(q))
    assert generated == pencil
    report(3, "worked example: ansatz (1,1,2) recovered and blocks regenerate the pencil entry-for-entry")


def test_criterion_4_membership_round_trip():
    rng = random.Random(202)
    done = 0
    while done < 100:
        n = rng.choice((1, 2, 3))
        q = rand_quad(rng, n)
        if q.coefficient_row().is_zero():
            continue
        v = tuple(
            GaussianRational(Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
            for _ in range(3)
        )
        result = membership(generate_member(q, v, rand_blocks(rng, n)), q)
        assert result and result.v == v
        done += 1
    report(4, "membership(generate_member(Q, v, blocks)) = v on 100 random instances, exact")


def test_criterion_5_space_dimension():
    rng = random.Random(303)
    q1 = rand_quad(rng, 1)
    s1 = space_dimension(q1)
    assert s1.dimension == 12 and s1.verified
    assert brute_force_dimension(q1) == 12
    s2 = space_dimension(rand_quad(rng, 2))
    assert s2.dimension == 39 and s2.witness_rank == 39 and s2.verified
    report(5, "dimension 12 (n=1, matches brute-force constraint rank) and 39 (n=2) with exact rank witness")


def test_criterion_6_scaled_e1_certificates():
    rng = random.Random(404)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        q = rand_quad(rng, n)
        alpha = Fraction(rng.choice((1, 2, 3, -1)), rng.choice((1, 2)))
        blocks = admissible_blocks(rng, n)
        pencil = generate_member(q, (alpha, 0, 0), blocks)
        cert = certify_scaled_e1(pencil, q, alpha)
        assert cert.verified
        det_e = exact_det_poly(cert.e)
        det_f = exact_det_poly(cert.f)
        assert det_e.is_constant() and det_e.constant_value()
        assert det_f.is_constant() and det_f.constant_value()
    report(6, "20 random alpha*e1 members: F*L*E = diag(Q, I_2n) exact with constant nonzero det E, det F")


def test_criterion_7_procedure_and_case_table():
    rng = random.Random(505)
    for case, pattern in CASE_PATTERNS.items():
        for _ in range(3):
            v = random_vector_for(pattern, rng)
            alpha = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
            transform = ansatz_transform(v, alpha, case=case)
            assert transform.matrix.det()
            assert transform.matrix @ Matrix.column(v) == Matrix.column([alpha, 0, 0])
        q = rand_quad(rng, rng.choice((1, 2)))
        v = random_vector_for(pattern, rng)
        result = procedure_linearize(
            q, v, alpha=2, rng=random.Random(rng.randint(0, 999)), case=case
        )
        assert result.draws_used <= 32
        assert result.certificate.verified
    report(7, "all 8 case-table transforms align exactly and the procedure certifies within 32 draws")


def test_criterion_8_delta0_always_singular():
    rng = random.Random(606)
    for _ in range(20):
        n1, n2 = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        system = QuadSystem2P(rand_quad(rng, n1), rand_quad(rng, n2))
        blocks1 = admissible_blocks(rng, n1)
        blocks2 = admissible_blocks(rng, n2)
        lin = linearize_system(system, blocks1=blocks1, blocks2=blocks2)
        delta = delta_operators(lin)
        assert delta.delta0.det() == GaussianRational(0)
    report(8, "det Delta0 = 0 exactly for 20 random constructed system linearizations")


def test_criterion_9_bezout_and_spectral_equality():
    from test_qep import CIRCLE_LINE

    report_cl = spectrum_quadratic(CIRCLE_LINE, tol=1e-9)
    assert report_cl.bezout_bound == 4
    assert len(report_cl.points) == 2
    r = 1 / math.sqrt(2)
    expected = [(-r, -r), (r, r)]
    for point, (lam, mu) in zip(report_cl.points, expected):
        assert abs(point.lam - lam) < 1e-8
        assert abs(point.mu - mu) < 1e-8

    rng = random.Random(707)
    done = 0
    while done < 20:
        q1 = rand_quad(rng, 1, complex_prob=0.0)
        q2 = rand_quad(rng, 1, complex_prob=0.0)
        f = q1.as_polymatrix()[0, 0]
        g = q2.as_polymatrix()[0, 0]
        if f.degree_in("mu") < 1 or g.degree_in("mu") < 1:
            continue
        system = QuadSystem2P(q1, q2)
        try:
            sigma_q = spectrum_quadratic(system, tol=1e-9)
        except NonGenericSystemError:
            continue
        assert len(sigma_q.points) <= 4
        for point in sigma_q.points:
            assert point.residual < 1e-8
        lin = linearize_system(system)
        match = verify_spectral_equality(system, lin, tol=1e-9)
        assert match.equal
        done += 1
    report(9, "circle/line spectrum is exactly {(+-1/sqrt2, +-1/sqrt2)} and 20 random generic systems obey Bezout with sigma_Q = sigma_L")


def test_criterion_10_eigenpair_delta_coherence():
    lin = linearize_system(RATIONAL_EIG)
    x = Matrix.column([1])
    result = verify_eigenpair(RATIONAL_EIG, lin, 1, 3, x, x, tol=1e-9)
    assert result.passed
    for check in result.checks:
        assert check.exact_zero and check.norm == 0.0
    report(10, "hand-built rational eigenpair: all Q, L, and Delta residuals exactly zero")


def test_criterion_11_cli_round_trip(capsys, tmp_path):
    corpus = {
        "q_circle.json": (ser.parse_problem, ser.serialize_problem),
        "q_worked.json": (ser.parse_problem, ser.serialize_problem),
        "l_worked.json": (ser.parse_pencil, ser.serialize_pencil),
        "blocks_worked.json": (ser.parse_blocks, ser.serialize_blocks),
        "blocks_standard_circle.json": (ser.parse_blocks, ser.serialize_blocks),
        "sys_circle_line.json": (ser.parse_system, ser.serialize_system),
        "sys_rational_eig.json": (ser.parse_system, ser.serialize_system),
    }
    for name, (parse, serialize) in corpus.items():
        text = (CORPUS / name).read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, name

    q_circle = str(CORPUS / "q_circle.json")
    q_worked = str(CORPUS / "q_worked.json")
    l_worked = str(CORPUS / "l_worked.json")
    blocks_worked = str(CORPUS / "blocks_worked.json")
    sys_cl = str(CORPUS / "sys_circle_line.json")
    sys_re = str(CORPUS / "sys_rational_eig.json")
    pair = str(CORPUS / "pair_rational_eig.json")
    std_out = str(tmp_path / "std.json")

    invocations = [
        (["standard", "-q", q_circle, "-o", std_out], 0),
        (["member", "-q", q_worked, "-l", l_worked], 0),
        (
            ["generate", "-q", q_worked, "-v", "1,1,2", "--blocks", blocks_worked,
             "-o", str(tmp_path / "gen.json")],
            0,
        ),
        (["kernel", "--blocks", blocks_worked, "-o", str(tmp_path / "ker.json")], 0),
        (["dimension", "-q", q_worked], 0),
        (["procedure", "-q", q_circle, "-v", "1,1,2", "--alpha", "1", "--seed", "7"], 0),
        (["certify", "-q", q_circle, "-l", std_out], 0),
        (["qep-linearize", "-s", sys_cl, "-o", str(tmp_path / "lin")], 0),
        (["delta", "-s", sys_cl], 0),
        (["spectrum", "-s", sys_cl], 0),
        (["compare", "-s", sys_cl], 0),
        (["verify-pair", "-s", sys_re, "--pair", pair], 0),
    ]
    assert len(invocations) == 12
    for argv, expected in invocations:
        code = cli_main(argv)
        capsys.readouterr()
        assert code == expected, argv

    seeded = ["procedure", "-q", q_circle, "-v", "0,2,3", "--alpha", "2", "--seed", "99"]
    cli_main(seeded)
    first = capsys.readouterr().out
    cli_main(seeded)
    second = capsys.readouterr().out
    assert first == second

    with capsys.disabled():
        report(11, "all 12 CLI subcommands run on the corpus; parse/serialize byte-identical; seeded runs bit-identical")
