"""Spans around the public calls of each pencilspace layer.

The spans are recorded from the benchmark's side: ``install`` replaces each
target function (or method) with a timing wrapper in every loaded
pencilspace module that holds it, and ``uninstall`` puts the originals
back.  Nothing in the library changes.  Spans stay in memory; ``summarize``
turns them into the per-layer metrics.

``scalars`` has no span of its own: its Fraction cost sits inside every
span, and attributing it needs spans inside the program.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute, observer name or None)
TARGETS = (
    ("cli.main", "pencilspace.cli", "main", None),
    ("serialization.parse", "pencilspace.serialization", "parse_problem", None),
    ("serialization.parse", "pencilspace.serialization", "parse_pencil", None),
    ("serialization.parse", "pencilspace.serialization", "parse_system", None),
    ("serialization.parse", "pencilspace.serialization", "parse_blocks", None),
    ("serialization.parse", "pencilspace.serialization", "parse_eigenpair", None),
    ("serialization.serialize", "pencilspace.serialization", "serialize_pencil", None),
    ("polymatrix.det_poly", "pencilspace.polymatrix", "exact_det_poly", "det_poly"),
    ("polymatrix.matmul", "pencilspace.polymatrix", "PolyMatrix.__matmul__", None),
    ("construct.certify_scaled_e1", "pencilspace.construct", "certify_scaled_e1", None),
    ("construct.certify_det_ratio", "pencilspace.construct", "certify_det_ratio", None),
    ("construct.procedure", "pencilspace.construct", "procedure_linearize", "procedure"),
    ("space.membership", "pencilspace.space", "membership", None),
    ("space.generate_member", "pencilspace.space", "generate_member", None),
    ("pencil.box_add", "pencilspace.pencil", "box_add_pencil", None),
    ("space.dimension", "pencilspace.space", "space_dimension", None),
    ("matrices.det", "pencilspace.matrices", "Matrix.det", "matrix_det"),
    ("matrices.inverse", "pencilspace.matrices", "Matrix.inverse", None),
    ("qep.linearize_system", "pencilspace.qep", "linearize_system", None),
    ("qep.delta_operators", "pencilspace.qep", "delta_operators", "delta"),
    ("qep.verify_eigenpair", "pencilspace.qep", "verify_eigenpair", None),
    ("qep.spectrum", "pencilspace.qep", "spectrum_quadratic", "spectrum"),
    ("qep.spectrum", "pencilspace.qep", "spectrum_pencil", None),
    ("resultants.sylvester", "pencilspace.resultants", "sylvester_resultant", "resultant"),
    ("bipoly.square_free", "pencilspace.bipoly", "UniPoly.square_free_part", None),
    ("roots.lam", "pencilspace.roots", "unipoly_roots", "roots"),
)

# Per-layer metrics: name -> unit.  Times are inclusive (a span's whole
# duration, outermost spans of a name only) unless the name says "self".
PER_LAYER_UNITS = {
    "polymatrix.det_poly_ms": "ms",
    "polymatrix.det_poly_calls": "count",
    "polymatrix.det_poly_max_size": "rows",
    "polymatrix.matmul_ms": "ms",
    "construct.certify_scaled_e1_ms": "ms",
    "construct.certify_det_ratio_ms": "ms",
    "construct.procedure_ms": "ms",
    "construct.procedure_draws": "count",
    "construct.procedure_useful_ratio": "ratio",
    "space.membership_ms": "ms",
    "space.generate_member_ms": "ms",
    "pencil.box_add_ms": "ms",
    "space.dimension_ms": "ms",
    "matrices.det_ms": "ms",
    "matrices.det_max_size": "rows",
    "matrices.inverse_ms": "ms",
    "qep.linearize_system_ms": "ms",
    "qep.delta_operators_ms": "ms",
    "qep.delta_size": "rows",
    "qep.verify_eigenpair_ms": "ms",
    "resultants.sylvester_ms": "ms",
    "resultants.degree_max": "degree",
    "resultants.coeff_bits_max": "bits",
    "bipoly.square_free_ms": "ms",
    "bipoly.square_free_share": "ratio",
    "roots.lam_ms": "ms",
    "roots.calls": "count",
    "roots.failures": "count",
    "qep.common_zeros_self_ms": "ms",
    "qep.points_per_bound": "ratio",
    "serialization.parse_ms": "ms",
    "serialization.serialize_ms": "ms",
    "cli.self_ms": "ms",
    "trace_overhead_s": "s",
}


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        for part in (c.re, c.im):
            bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


class Tracer:
    """In-memory spans: [name, start, end, parent index, task index]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.task = -1
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)

    def wrap(self, name: str, fn, observer):
        observe = getattr(self, f"_observe_{observer}") if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.task]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            error = result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
                if observe:
                    observe(args, result, error)

        return traced

    # -- counters taken at the same boundaries ----------------------------------

    def _observe_det_poly(self, args, result, error):
        self.counts["det_poly_calls"] += 1
        self.maxima["det_poly_max_size"] = max(self.maxima["det_poly_max_size"], args[0].rows)

    def _observe_matrix_det(self, args, result, error):
        self.maxima["det_max_size"] = max(self.maxima["det_max_size"], args[0].rows)

    def _observe_procedure(self, args, result, error):
        if result is not None:
            self.counts["procedures"] += 1
            self.counts["procedure_draws"] += result.draws_used

    def _observe_delta(self, args, result, error):
        if result is not None:
            self.maxima["delta_size"] = max(self.maxima["delta_size"], result.delta0.rows)

    def _observe_spectrum(self, args, result, error):
        if result is not None:
            self.counts["points"] += len(result.points)
            self.counts["bezout_bound"] += result.bezout_bound

    def _observe_resultant(self, args, result, error):
        if result is not None:
            self.maxima["resultant_degree"] = max(self.maxima["resultant_degree"], result.degree())
            self.maxima["resultant_bits"] = max(self.maxima["resultant_bits"], _coeff_bits(result))

    def _observe_roots(self, args, result, error):
        self.counts["roots_calls"] += 1
        if error is not None:
            self.counts["roots_failures"] += 1


def _resolve(module_name: str, attribute: str):
    owner = sys.modules[module_name]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> list:
    """Wrap every target; return the (owner, name, original) triples to undo."""
    patches = []
    for span, module_name, attribute, observer in TARGETS:
        owner, name = _resolve(module_name, attribute)
        original = getattr(owner, name)
        wrapper = tracer.wrap(span, original, observer)
        if isinstance(owner, type):
            patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            continue
        # A function imported by name lives on in each importing module.
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pencilspace" and getattr(module, name, None) is original:
                patches.append((module, name, original))
                setattr(module, name, wrapper)
    return patches


def uninstall(patches: list) -> None:
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)


def summarize(tracer: Tracer) -> tuple:
    """Per-layer metrics and per-span-name inclusive/self times (ms).

    Returns (metrics, inclusive_ms by name, inclusive_ms by (task, name)).
    """
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, task in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3

    def has_ancestor(index, names):
        parent = spans[index][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    inclusive: dict = defaultdict(float)
    self_ms: dict = defaultdict(float)
    by_task: dict = defaultdict(float)
    certifier_matmul = 0.0
    for i, (name, start, end, parent, task) in enumerate(spans):
        ms = (end - start) * 1e3
        self_ms[name] += ms - child_ms[i]
        if has_ancestor(i, {name}):
            continue
        inclusive[name] += ms
        by_task[(task, name)] += ms
        if name == "polymatrix.matmul" and has_ancestor(i, {"construct.certify_scaled_e1"}):
            certifier_matmul += ms

    c, m = tracer.counts, tracer.maxima
    task_ms = inclusive["cli.main"]
    procedures = c["procedures"]
    metrics = {
        "polymatrix.det_poly_ms": inclusive["polymatrix.det_poly"],
        "polymatrix.det_poly_calls": c["det_poly_calls"],
        "polymatrix.det_poly_max_size": m["det_poly_max_size"],
        "polymatrix.matmul_ms": certifier_matmul,
        "construct.certify_scaled_e1_ms": inclusive["construct.certify_scaled_e1"],
        "construct.certify_det_ratio_ms": inclusive["construct.certify_det_ratio"],
        "construct.procedure_ms": inclusive["construct.procedure"],
        "construct.procedure_draws": c["procedure_draws"],
        "construct.procedure_useful_ratio": (
            procedures / (procedures + c["procedure_draws"]) if procedures else 0.0
        ),
        "space.membership_ms": inclusive["space.membership"],
        "space.generate_member_ms": inclusive["space.generate_member"],
        "pencil.box_add_ms": inclusive["pencil.box_add"],
        "space.dimension_ms": inclusive["space.dimension"],
        "matrices.det_ms": inclusive["matrices.det"],
        "matrices.det_max_size": m["det_max_size"],
        "matrices.inverse_ms": inclusive["matrices.inverse"],
        "qep.linearize_system_ms": inclusive["qep.linearize_system"],
        "qep.delta_operators_ms": inclusive["qep.delta_operators"],
        "qep.delta_size": m["delta_size"],
        "qep.verify_eigenpair_ms": inclusive["qep.verify_eigenpair"],
        "resultants.sylvester_ms": inclusive["resultants.sylvester"],
        "resultants.degree_max": m["resultant_degree"],
        "resultants.coeff_bits_max": m["resultant_bits"],
        "bipoly.square_free_ms": inclusive["bipoly.square_free"],
        "bipoly.square_free_share": inclusive["bipoly.square_free"] / task_ms if task_ms else 0.0,
        "roots.lam_ms": inclusive["roots.lam"],
        "roots.calls": c["roots_calls"],
        "roots.failures": c["roots_failures"],
        "qep.common_zeros_self_ms": self_ms["qep.spectrum"],
        "qep.points_per_bound": c["points"] / c["bezout_bound"] if c["bezout_bound"] else 0.0,
        "serialization.parse_ms": inclusive["serialization.parse"],
        "serialization.serialize_ms": inclusive["serialization.serialize"],
        "cli.self_ms": self_ms["cli.main"],
    }
    return metrics, dict(inclusive), dict(by_task)
