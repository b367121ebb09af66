"""Fuzz the CLI with malformed and extreme JSON built from the corpus.

Each example takes the corpus documents one subcommand reads, mutates some
of them (keys dropped or renamed, values of the wrong JSON type, bools and
nulls as scalars, huge exponents, deeply nested scalars, sizes 0-3 that do
not match), and runs the subcommand through ``cli.main``.  Whatever the
input, the run must end in a documented exit code and print no traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pencilspace.cli import main
from pencilspace.serialization import MAX_NESTING

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
EXIT_CODES = {0, 1, 2, 3, 4}


def _load(name):
    return json.loads((CORPUS / name).read_text())


# Documents that belong together, so that a mutation can reach past the
# size checks into the exact layers.
PROBLEM_SETS = [
    {"problem": _load("q_worked.json"), "pencil": _load("l_worked.json"),
     "blocks": _load("blocks_worked.json")},
    {"problem": _load("q_worked.json"), "pencil": _load("l_standard_worked.json"),
     "blocks": _load("blocks_worked.json")},
    {"problem": _load("q_complex.json"), "pencil": _load("l_complex.json"),
     "blocks": _load("blocks_complex.json")},
    {"problem": _load("q_circle.json"), "pencil": _load("l_aligned_worked.json"),
     "blocks": _load("blocks_standard_circle.json")},
]
SYSTEM_SETS = [
    {"system": _load("sys_rational_eig.json"), "pair": _load("pair_rational_eig.json")},
    {"system": _load("sys_circle_line.json"), "pair": _load("pair_rational_eig.json")},
    {"system": _load("sys_complex.json"), "pair": _load("pair_rational_eig.json")},
]

# (subcommand, the documents it reads, the option naming each, extra argv)
SUBCOMMANDS = [
    ("standard", PROBLEM_SETS, {"problem": "-q"}, []),
    ("member", PROBLEM_SETS, {"problem": "-q", "pencil": "-l"}, []),
    ("generate", PROBLEM_SETS, {"problem": "-q", "blocks": "--blocks"}, ["-v", "1,1,2"]),
    ("kernel", PROBLEM_SETS, {"blocks": "--blocks"}, []),
    ("dimension", PROBLEM_SETS, {"problem": "-q"}, []),
    ("procedure", PROBLEM_SETS, {"problem": "-q", "blocks": "--blocks"}, ["-v", "-1,0,0"]),
    ("certify", PROBLEM_SETS, {"problem": "-q", "pencil": "-l"}, []),
    ("qep-linearize", SYSTEM_SETS, {"system": "-s"}, ["--seed", "3"]),
    ("delta", SYSTEM_SETS, {"system": "-s"}, []),
    ("spectrum", SYSTEM_SETS, {"system": "-s"}, []),
    ("compare", SYSTEM_SETS, {"system": "-s"}, []),
    ("verify-pair", SYSTEM_SETS, {"system": "-s", "pair": "--pair"}, []),
]

# Replaced by a scalar nested this deep when the document is written, so
# that building and printing it costs no recursion here.
NESTED = "@@nested@@"

# Scalars the parser accepts, some of them extreme; and values it rejects.
VALID_SCALARS = st.sampled_from(
    [
        0, 1, -1, 2, 2.5, 10**40, "-1/3", "2.5e-3", "1_0", "1e4000", "-3e-4000",
        {"re": 1, "im": -1}, {"re": "1e4000", "im": 2}, {"im": "1e-300"}, NESTED,
    ]
)
SCALARS = st.one_of(
    VALID_SCALARS,
    st.sampled_from(
        [
            True, False, None, "", "x", "1/0", "0/0", "NaN", "-inf", "1e999999", "-7e-999999",
            "9" * 5000, "1" + "0" * 4000 + "/3", [], {}, {"re": True}, {"im": None},
            {"re": {"im": 1}}, {"x": 1},
        ]
    ),
)


def _matrix(draw, elements):
    rows = draw(st.integers(0, 3))
    cols = draw(st.integers(0, 3))
    return [[draw(elements) for _ in range(cols)] for _ in range(rows)]


@st.composite
def replacements(draw):
    """A value of any JSON type to put in place of a node, most often a
    scalar; a copy, since later mutations change it in place."""
    kind = draw(st.sampled_from(["scalar", "scalar", "scalar", "matrix", "size", "container"]))
    if kind == "scalar":
        value = draw(SCALARS)
    elif kind == "matrix":
        value = _matrix(draw, st.one_of(st.integers(-2, 2), SCALARS))
    elif kind == "size":
        value = draw(st.sampled_from([0, 1, 2, 3, -1, "2", 2.0, True, None, 10**30]))
    else:
        value = draw(st.sampled_from([[], {}, [[]], [[1]], {"n": 1}, "[]", [1, 2, 3]]))
    return json.loads(json.dumps(value))


def _nodes(doc):
    """(parent, key) of every node below the root: matrix entries are most
    of them, so most mutations keep the document's shape."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            children = sorted(node.items())
        elif isinstance(node, list):
            children = list(enumerate(node))
        else:
            children = []
        for key, child in children:
            found.append((node, key))
            stack.append(child)
    return found


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations: a scalar entry set to another
    scalar the parser accepts, or any node (the root one time in twenty)
    replaced, deleted, renamed or given a sibling."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        nodes = _nodes(doc)
        action = draw(st.sampled_from(["value"] * 4 + ["replace", "delete", "rename", "extra"]))
        # Matrix entries and the pair's scalars, not the sizes n and m.
        entries = [(p, k) for p, k in nodes if isinstance(p[k], (str, int, float))]
        entries = [(p, k) for p, k in entries if k not in ("n", "m")]
        if action == "value" and entries:
            parent, key = draw(st.sampled_from(entries))
            parent[key] = json.loads(json.dumps(draw(VALID_SCALARS)))
            continue
        if not nodes or draw(st.integers(0, 19)) == 0:
            if action in ("replace", "value"):
                doc = draw(replacements())
            elif action == "extra" and isinstance(doc, dict):
                doc["unexpected"] = draw(replacements())
            continue
        parent, key = draw(st.sampled_from(nodes))
        if action in ("replace", "value"):
            parent[key] = draw(replacements())
        elif action == "delete":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            parent[key + "_"] = parent.pop(key)
        elif action == "extra":
            if isinstance(parent, dict):
                parent["unexpected"] = draw(replacements())
            else:
                parent.append(draw(replacements()))
    return doc


def _write(path: Path, doc, depth: int) -> None:
    scalar = '{"re": ' * depth + '"1"' + "}" * depth
    path.write_text(json.dumps(doc).replace(json.dumps(NESTED), scalar))


@st.composite
def cli_runs(draw, sets, roles):
    """The documents for one run: a matching set, each role mutated or not
    (at least one mutated), and the depth of the nested scalars."""
    base = draw(st.sampled_from(sets))
    changed = draw(st.lists(st.sampled_from(sorted(roles)), min_size=1, unique=True))
    docs = {role: draw(mutated(base[role])) if role in changed else base[role] for role in roles}
    depth = draw(st.sampled_from([1, 2, 40, MAX_NESTING - 1, MAX_NESTING]))
    return docs, depth


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize(
    "command, sets, roles, extra", SUBCOMMANDS, ids=[c[0] for c in SUBCOMMANDS]
)
def test_mutated_documents_end_in_a_documented_exit_code(command, sets, roles, extra):
    @settings(
        derandomize=True,
        max_examples=15,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(cli_runs(sets, roles))
    def check(run):
        docs, depth = run
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, *extra]
            for role, doc in docs.items():
                path = Path(tmp) / f"{role}.json"
                _write(path, doc, depth)
                argv += [roles[role], str(path)]
            code, err = _run(argv)
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err, err

    check()
