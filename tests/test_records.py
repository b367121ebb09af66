"""The record contract: every result and input record is a NamedTuple that
builds the same from keywords and positions, prints as ``Name(field=value,
...)``, cannot be assigned to and compares field by field.  The three
shaped records check their shapes on every route to a new instance."""

import pytest

from pencilspace.construct import AnsatzTransform, LinearizationCertificate, ProcedureResult
from pencilspace.errors import ShapeError
from pencilspace.matrices import Matrix
from pencilspace.pencil import Checked, CorrespondenceReport, Pencil2P, QuadPoly2P
from pencilspace.qep import (
    DeltaOps,
    EigenpairReport,
    LinearSystem2P,
    QuadSystem2P,
    ResidualCheck,
    SingularityReport,
    SpectralMatchReport,
    SpectrumPoint,
    SpectrumReport,
    _ExactStage,
)
from pencilspace.scalars import GaussianRational
from pencilspace.space import DimensionSummary, FreeBlocks, MembershipResult, SingleParamPencil

GR = GaussianRational
Q = QuadPoly2P.scalar(1, 2, 3, 4, 5, 6)
L = Pencil2P(3, Matrix.identity(3), Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), Matrix.identity(3))
BLOCKS = FreeBlocks(1, Matrix.column([1, 2, 3]), Matrix.column([0, 1, 0]), Matrix.column([4, 0, 1]))
CERT = LinearizationCertificate("unimodular-pair", True, GR(1), GR(2), None, "", GR(1), L, Q)
TRANSFORM = AnsatzTransform(Matrix.identity(3), "a", GR(1), (GR(1), GR(0), GR(0)))
POINT = SpectrumPoint(1 + 2j, -1j, 1e-12)
REPORT = SpectrumReport((POINT,), 4)
CHECK = ResidualCheck("pencil 1", 0.0, True, True)

# (record, one value per field in declaration order)
RECORDS = [
    (QuadPoly2P, (1, *(Matrix([[k]]) for k in range(1, 7)))),
    (Pencil2P, tuple(L)),
    (CorrespondenceReport, (Matrix.column([1, 2, 3]), Matrix.column([1, 2, 3]), True, 0.0)),
    (AnsatzTransform, tuple(TRANSFORM)),
    (LinearizationCertificate, tuple(CERT)),
    (ProcedureResult, (L, TRANSFORM, BLOCKS, CERT, 2)),
    (FreeBlocks, tuple(BLOCKS)),
    (MembershipResult, (True, (GR(1), GR(0), GR(0)), False)),
    (DimensionSummary, (1, 12, 12, False)),
    (SingleParamPencil, (1, Matrix.identity(2), Matrix([[1, 2], [3, 4]]), (GR(1), GR(2)))),
    (QuadSystem2P, (Q, QuadPoly2P.scalar(a20=1, a00=-1))),
    (LinearSystem2P, (L, L, GR(1), GR(2), CERT, CERT)),
    (DeltaOps, (Matrix([[1]]), Matrix([[2]]), Matrix([[3]]))),
    (SingularityReport, (GR(0), True)),
    (SpectrumPoint, tuple(POINT)),
    (SpectrumReport, tuple(REPORT)),
    (_ExactStage, (0, None, None, None)),
    (SpectralMatchReport, (REPORT, REPORT, (), (POINT,), False)),
    (ResidualCheck, tuple(CHECK)),
    (EigenpairReport, ((CHECK,), True)),
]


@pytest.mark.parametrize("record, values", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_contract(record, values):
    fields = record._fields
    assert len(fields) == len(values)
    by_keyword = record(**dict(zip(fields, values)))
    by_position = record(*values)
    assert by_keyword == by_position and tuple(by_position) == values
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(by_position) == f"{record.__name__}({shown})"
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(by_position, name, value)
    # Equal field by field, and a change to any one field breaks equality.
    # A shaped record's size field is tied to its matrices, so only its
    # matrices change, each to the zero matrix of its shape.
    for name, value in zip(fields, values):
        if issubclass(record, Checked):
            if not isinstance(value, Matrix):
                continue
            assert not value.is_zero()
            other = Matrix.zeros(*value.shape)
        else:
            other = object()
        assert by_position._replace(**{name: other}) != by_position


# (record, valid values, field, wrong-shaped matrix, ShapeError text)
WRONG_SHAPES = [
    (
        QuadPoly2P,
        tuple(Q),
        "a11",
        Matrix([[1, 2]]),
        "coefficient a11 has shape (1, 2), expected (1, 1)",
    ),
    (
        Pencil2P,
        tuple(L),
        "const",
        Matrix.identity(2),
        "pencil coefficient const has shape (2, 2), expected (3, 3)",
    ),
    (
        FreeBlocks,
        tuple(BLOCKS),
        "z2",
        Matrix.column([1, 2]),
        "block z2 has shape (2, 1), expected (3, 1)",
    ),
]


@pytest.mark.parametrize(
    "record, values, field, wrong, message", WRONG_SHAPES, ids=[r[0].__name__ for r in WRONG_SHAPES]
)
def test_wrong_shape_fails_on_every_route(record, values, field, wrong, message):
    bad = tuple(wrong if name == field else v for name, v in zip(record._fields, values))
    routes = (
        lambda: record(*bad),
        lambda: record(**dict(zip(record._fields, bad))),
        lambda: record._make(bad),
        lambda: record(*values)._replace(**{field: wrong}),
    )
    for route in routes:
        with pytest.raises(ShapeError) as caught:
            route()
        assert str(caught.value) == message
