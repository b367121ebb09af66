"""Workload definitions: the input pool, the task mix and the run plan.

Inputs are written by this module alone, in the documented JSON file
formats, so a change to the library's own serializer cannot change what
the benchmark feeds it.  Scalars are (re, im) pairs of Fractions.

Every workload is a fixed pool of instances.  Instance ``idx`` of slot
``slot`` is drawn from ``random.Random(f"{workload}:{slot}:{idx}")``, so the
pool, and the stored reference outputs for it, never depend on the run
seed.  The run seed chooses where each slot starts in its pool and the
order of the tasks in each round (see ``rounds``).  A pool holds as many
instances per slot (POOL_SIZE) as a run at the benchmark's 25 s has
rounds, so such a run visits every instance once, whatever its seed.

A round is the workload's stated mix: one task per (slot, command) pair,
shuffled.  A run is a fixed number of whole rounds (see ``round_count``), so
every run has the same mix, and two versions of the program given the same
seed run the same tasks however fast they are.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ZERO = (Fraction(0), Fraction(0))
POOL_SIZE = 4  # instances per slot: the rounds of a 25 s run
ROUND_S = 6.0  # nominal seconds per round: about the raw round time on a slow host
COEFF_KEYS = ("A20", "A11", "A02", "A10", "A01", "A00")


# -- random exact scalars and matrices --------------------------------------------


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def rand_scalar(rng: random.Random, complex_prob: float) -> tuple:
    im = rand_fraction(rng) if rng.random() < complex_prob else Fraction(0)
    return (rand_fraction(rng), im)


def rand_nonzero(rng: random.Random) -> Fraction:
    while True:
        value = rand_fraction(rng)
        if value:
            return value


def rand_matrix(rng, rows, cols, complex_prob=0.25) -> list:
    return [[rand_scalar(rng, complex_prob) for _ in range(cols)] for _ in range(rows)]


def zeros(rows, cols) -> list:
    return [[ZERO] * cols for _ in range(rows)]


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def mat_add(a, b):
    return [[add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[sub(ZERO, x) for x in row] for row in a]


def mat_scale(a, s):
    return [[mul(s, x) for x in row] for row in a]


def vstack(blocks):
    return [row for block in blocks for row in block]


def hstack(blocks):
    return [sum((block[i] for block in blocks), []) for i in range(len(blocks[0]))]


def mat_vec(a, x):
    out = []
    for row in a:
        acc = ZERO
        for entry, xi in zip(row, x):
            acc = add(acc, mul(entry, xi))
        out.append(acc)
    return out


# -- domain objects ------------------------------------------------------------------


def rand_quad(rng, n, complex_prob=0.25) -> dict:
    """A quadratic as {coefficient key: n x n matrix}."""
    return {key: rand_matrix(rng, n, n, complex_prob) for key in COEFF_KEYS}


def rand_blocks(rng, n, complex_prob=0.25) -> dict:
    return {key: rand_matrix(rng, 3 * n, n, complex_prob) for key in ("Y1", "Z1", "Z2")}


def member_pencil(q: dict, v: tuple, blocks: dict) -> dict:
    """The member with ansatz v and free blocks (Y1, Z1, Z2):
    A1 = [v(x)A20 | -Y1 + v(x)A11 | -Z1 + v(x)A10], A2 = [Y1 | v(x)A02 | -Z2 + v(x)A01],
    A3 = [Z1 | Z2 | v(x)A00], where v(x)M stacks v_i * M."""
    vk = lambda m: vstack([mat_scale(m, (vi, Fraction(0))) for vi in v])
    y1, z1, z2 = blocks["Y1"], blocks["Z1"], blocks["Z2"]
    return {
        "A1hat": hstack([vk(q["A20"]), mat_add(mat_neg(y1), vk(q["A11"])), mat_add(mat_neg(z1), vk(q["A10"]))]),
        "A2hat": hstack([y1, vk(q["A02"]), mat_add(mat_neg(z2), vk(q["A01"]))]),
        "A3hat": hstack([z1, z2, vk(q["A00"])]),
    }


def quad_eval(q: dict, lam: tuple, mu: tuple) -> list:
    one = (Fraction(1), Fraction(0))
    weights = {
        "A20": mul(lam, lam), "A11": mul(lam, mu), "A02": mul(mu, mu),
        "A10": lam, "A01": mu, "A00": one,
    }
    n = len(q["A00"])
    out = zeros(n, n)
    for key, w in weights.items():
        out = mat_add(out, mat_scale(q[key], w))
    return out


def plant_eigenvector(rng, q: dict, lam: tuple, mu: tuple) -> list:
    """Draw x != 0 and shift A00 by a rank-one term so Q(lam, mu) x = 0 exactly."""
    n = len(q["A00"])
    while True:
        x = [rand_scalar(rng, 0.25) for _ in range(n)]
        pivots = [k for k, xk in enumerate(x) if xk != ZERO]
        if pivots:
            break
    k = rng.choice(pivots)
    r = mat_vec(quad_eval(q, lam, mu), x)
    # A00 <- A00 - r y^T with y = e_k / x_k, so y^T x = 1.
    re, im = x[k]
    norm = re * re + im * im
    inv_xk = (re / norm, -im / norm)
    for i in range(n):
        q["A00"][i][k] = sub(q["A00"][i][k], mul(r[i], inv_xk))
    return x


# -- canonical JSON -----------------------------------------------------------------


def fmt_scalar(s: tuple):
    re, im = s
    if im == 0:
        return str(re)
    return {"re": str(re), "im": str(im)}


def fmt_matrix(m: list) -> list:
    return [[fmt_scalar(x) for x in row] for row in m]


def problem_doc(q: dict) -> dict:
    return {"n": len(q["A00"]), "coefficients": {k: fmt_matrix(q[k]) for k in COEFF_KEYS}}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def fmt_vector(v: tuple) -> str:
    return ",".join(str(x) for x in v)


# -- slots ------------------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One instance kind of a workload and the commands run on it."""

    name: str
    commands: tuple
    build: object  # rng -> (files: {name: JSON text}, params: {name: argument text})

    def argv(self, command: str, files: dict, params: dict) -> list:
        return [a.format(**files, **params) for a in COMMAND_ARGS[command]]


# Negative rationals go after "=": "-v -1,1,2" is rejected by argparse
# (exit 2) because "-1,1,2" is not a negative-number literal.
COMMAND_ARGS = {
    "standard": ("standard", "-q", "{q}"),
    "member": ("member", "-q", "{q}", "-l", "{pencil}"),
    "generate": ("generate", "-q", "{q}", "--vector={vector}", "--blocks", "{blocks}"),
    "kernel": ("kernel", "--blocks", "{blocks}"),
    "procedure": ("procedure", "-q", "{q}", "--vector={general}", "--alpha={alpha}",
                  "--blocks", "{blocks}", "--seed={seed}"),
    "certify": ("certify", "-q", "{q}", "-l", "{pencil}"),
    "spectrum": ("spectrum", "-s", "{system}"),
    "compare": ("compare", "-s", "{system}", "--alpha1={alpha1}", "--alpha2={alpha2}", "--seed={seed}"),
    "qep-linearize": ("qep-linearize", "-s", "{system}", "--alpha1={alpha1}", "--alpha2={alpha2}",
                      "--seed={seed}"),
    "delta": ("delta", "-s", "{system}", "--alpha1={alpha1}", "--alpha2={alpha2}", "--seed={seed}"),
    "verify-pair": ("verify-pair", "-s", "{system}", "--pair", "{pair}", "--alpha1={alpha1}",
                    "--alpha2={alpha2}", "--seed={seed}"),
    "dimension": ("dimension", "-q", "{q2}"),
}

ALPHAS = ("1", "2", "-1", "1/2", "-3/2")


def _certify_slot(n: int, kind: str) -> Slot:
    """A quadratic of size n with a pencil that is an alpha*e1 member
    (unimodular-pair path), a general-ansatz member (det-ratio fallback) or
    a member with one perturbed entry (a non-member).  ``procedure`` always
    aligns a general ansatz vector, whatever the kind."""

    def build(rng):
        q = rand_quad(rng, n)
        blocks = rand_blocks(rng, n)
        general = (rand_nonzero(rng), rand_fraction(rng), rand_nonzero(rng))
        general = (-abs(general[0]),) + general[1:]  # keep negative vectors in the sample
        if kind == "e1":
            alpha = rand_nonzero(rng)
            v = (alpha, Fraction(0), Fraction(0))
            member_blocks = dict(blocks, Y1=vstack([rand_matrix(rng, n, n), zeros(2 * n, n)]))
        else:
            v = general
            member_blocks = blocks
        pencil = member_pencil(q, v, member_blocks)
        if kind == "nonmember":
            key = rng.choice(("A1hat", "A2hat", "A3hat"))
            i, j = rng.randrange(3 * n), rng.randrange(3 * n)
            pencil[key][i][j] = add(pencil[key][i][j], (rand_nonzero(rng), Fraction(0)))
        pencil_doc = {"m": 3 * n, **{k: fmt_matrix(pencil[k]) for k in ("A1hat", "A2hat", "A3hat")}}
        files = {
            "q": dumps(problem_doc(q)),
            "blocks": dumps({"n": n, **{k: fmt_matrix(blocks[k]) for k in ("Y1", "Z1", "Z2")}}),
            "pencil": dumps(pencil_doc),
        }
        params = {
            "vector": fmt_vector(v),
            "general": fmt_vector(general),
            "alpha": rng.choice(ALPHAS),
            "seed": str(rng.randrange(1000)),
        }
        return files, params

    commands = ("standard", "member", "generate", "kernel", "procedure", "certify")
    return Slot(f"n{n}-{kind}", commands, build)


def _system_files(q1, q2) -> dict:
    return {"system": dumps({"Q1": problem_doc(q1), "Q2": problem_doc(q2)})}


def _linear_params(rng) -> dict:
    return {"alpha1": rng.choice(ALPHAS), "alpha2": rng.choice(ALPHAS), "seed": str(rng.randrange(1000))}


def _spectrum_slot(n1: int, n2: int, field: str, commands=("spectrum", "compare")) -> Slot:
    complex_prob = 0.25 if field == "complex" else 0.0

    def build(rng):
        q1, q2 = rand_quad(rng, n1, complex_prob), rand_quad(rng, n2, complex_prob)
        return _system_files(q1, q2), _linear_params(rng)

    return Slot(f"{n1}x{n2}-{field}", commands, build)


def _operators_slot(n1: int, n2: int) -> Slot:
    """A system with a planted eigenpair: (lam, mu) and x1, x2 rational,
    Q_i(lam, mu) x_i = 0 exactly."""

    def build(rng):
        q1, q2 = rand_quad(rng, n1), rand_quad(rng, n2)
        lam, mu = rand_scalar(rng, 0.25), rand_scalar(rng, 0.25)
        x1 = plant_eigenvector(rng, q1, lam, mu)
        x2 = plant_eigenvector(rng, q2, lam, mu)
        pair = {"lambda": fmt_scalar(lam), "mu": fmt_scalar(mu),
                "x1": [fmt_scalar(x) for x in x1], "x2": [fmt_scalar(x) for x in x2]}
        files = dict(_system_files(q1, q2), pair=dumps(pair), q2=dumps(problem_doc(q2)))
        return files, _linear_params(rng)

    commands = ("qep-linearize", "delta")
    # verify-pair at (3,3) alone took 30% of a round; delta there already
    # builds the same 81 x 81 operators.
    if n1 * n2 < 9:
        commands += ("verify-pair",)
    # dimension at n = 1 took 8 ms; without it a round has an odd number of
    # tasks, and the median falls inside a cost group, not between two.
    if n1 == n2 > 1:
        commands += ("dimension",)
    return Slot(f"{n1}x{n2}", commands, build)


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple


WORKLOADS = {
    w.name: w
    for w in (
        # n = 3 twice per round: the mix is weighted toward the largest size.
        Workload(
            "certify",
            tuple(_certify_slot(n, kind) for n in (1, 2, 3, 3) for kind in ("e1", "general", "nonmember")),
        ),
        Workload(
            "spectrum",
            # compare on the two costliest complex sizes would take half of
            # each round; spectrum alone already covers them.
            tuple(
                _spectrum_slot(n1, n2, f, ("spectrum",) if f == "complex" and n1 * n2 > 2 else ("spectrum", "compare"))
                for n1, n2 in ((1, 1), (1, 2), (1, 3), (2, 2))
                for f in ("real", "complex")
            ),
        ),
        Workload(
            "operators",
            tuple(_operators_slot(n1, n2) for n1, n2 in ((1, 1), (1, 2), (2, 2), (3, 3))),
        ),
    )
}


def slot_keys(workload: Workload) -> list:
    """Unique names for the slots of a workload (a slot may occur twice)."""
    seen: dict = {}
    keys = []
    for slot in workload.slots:
        seen[slot.name] = seen.get(slot.name, 0) + 1
        keys.append(f"{slot.name}#{seen[slot.name]}")
    return keys


@dataclass(frozen=True)
class Task:
    key: str  # "<workload>:<slot key>/<idx>/<command>", the reference key
    command: str
    slot: str  # e.g. "n3-e1" or "2x2-complex"
    argv: tuple
    input_digest: str  # of the command and its inputs, independent of file paths


class Pool:
    """Materialises pool instances as files under ``work_dir``, on demand."""

    def __init__(self, workload: Workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.keys = slot_keys(workload)
        self._instances: dict = {}

    def tasks(self, slot_index: int, idx: int) -> list:
        cache_key = (slot_index, idx)
        if cache_key not in self._instances:
            slot = self.workload.slots[slot_index]
            key = self.keys[slot_index]
            rng = random.Random(f"{self.workload.name}:{key}:{idx}")
            files, params = slot.build(rng)
            paths, digests = {}, {}
            for name, text in files.items():
                path = self.work_dir / f"{key.replace('#', '_')}-{idx}-{name}.json"
                path.write_text(text, encoding="utf-8")
                paths[name] = str(path)
                digests[name] = hashlib.sha256(text.encode()).hexdigest()
            self._instances[cache_key] = [
                Task(
                    f"{self.workload.name}:{key}/{idx}/{cmd}",
                    cmd,
                    slot.name,
                    tuple(slot.argv(cmd, paths, params)),
                    hashlib.sha256(" ".join(slot.argv(cmd, digests, params)).encode()).hexdigest()[:16],
                )
                for cmd in slot.commands
            ]
        return self._instances[cache_key]


def round_count(seconds: float) -> int:
    """The rounds in a run of ``seconds``: a whole number, at least one."""
    return max(1, round(seconds / ROUND_S))


def rounds(workload: Workload, pool: Pool, seed: int, count: int) -> list:
    """The shuffled task lists of ``count`` rounds.

    Each slot starts at a seed-chosen pool offset and walks the pool, so a
    run visits distinct instances until it has used the whole pool.
    """
    rng = random.Random(seed)
    offsets = [rng.randrange(POOL_SIZE) for _ in workload.slots]
    plan = []
    for r in range(count):
        tasks = [t for s, offset in enumerate(offsets) for t in pool.tasks(s, (offset + r) % POOL_SIZE)]
        rng.shuffle(tasks)
        plan.append(tasks)
    return plan

