"""In-memory span recorder for the traced run, and the layer table.

Spans are recorded from the benchmark's own code: every entry of
``BINDINGS`` rebinds one module attribute through which idealtda code
reaches a public function (``idealtda.cli.prime_barcode``,
``idealtda.persistence.persistence_reduce``, ...) to a wrapper that
records a span around the original call.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for an operation's root span) and ``op`` the index
of the operation that caused it.
"""

from __future__ import annotations

import functools
from time import perf_counter

ROOT = "op"

SUITES = (
    "clique_complement_identity",
    "prime_interval_uniqueness",
    "betti_jump_witness",
    "half_distance_coverage",
    "evaluation_equivalence",
    "fraction_field_ranks",
    "graded_slice_homology",
    "associated_prime_oracles",
    "vertex_cover_oracles",
)


def _prime_barcode_name(args, kwargs) -> str:
    if kwargs.get("ass_fn") is not None or len(args) > 2:
        return "persistence.prime_barcode_custom"
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "SR")
    return "persistence.prime_barcode_" + str(kind).lower()


# (module under idealtda, attribute, span name or a function of the call's arguments)
BINDINGS = [
    ("cli", "_load_json", "serialize.parse"),
    ("cli", "load_distance_csv", "serialize.parse"),
    ("cli", "parse_points_json", "serialize.parse"),
    ("cli", "points_to_distances", "serialize.parse"),
    ("cli", "complex_from_dict", "serialize.parse"),
    ("cli", "labelled_from_dict", "serialize.parse"),
    ("cli", "vr_filtration", "complexes.vr_filtration"),
    ("verify", "vr_filtration", "complexes.vr_filtration"),
    ("cli", "prime_barcode", _prime_barcode_name),
    ("verify", "prime_barcode", _prime_barcode_name),
    ("persistence", "step_associated_primes", "persistence.step_associated_primes"),
    ("verify", "step_associated_primes", "persistence.step_associated_primes"),
    ("persistence", "sr_associated_primes", "ideals.sr_associated_primes"),
    ("verify", "sr_associated_primes", "ideals.sr_associated_primes"),
    ("persistence", "minimal_vertex_covers", "ideals.minimal_vertex_covers"),
    ("verify", "minimal_vertex_covers", "ideals.minimal_vertex_covers"),
    ("cli", "ph_barcode", "persistence.ph_barcode"),
    ("persistence", "persistence_reduce", "linalg.persistence_reduce"),
    ("cli", "coverage_report", "persistence.coverage_report"),
    ("verify", "coverage_report", "persistence.coverage_report"),
    ("verify", "betti_profile", "persistence.betti_profile"),
    ("verify", "witness_between_steps", "persistence.witness_between_steps"),
    ("verify", "minimal_primes_squarefree", "monomials.minimal_primes_squarefree"),
    ("cli", "prime_barcode_to_dict", "serialize.write"),
    ("cli", "ph_barcode_to_dict", "serialize.write"),
    ("cli", "dumps_json", "serialize.write"),
    ("cli", "barcodes_svg", "serialize.write"),
    ("cli", "boundary_matrices", "labelled.boundary_matrices"),
    ("labelled", "boundary_matrices", "labelled.boundary_matrices"),
    ("cli", "fraction_field_ranks", "labelled.fraction_field_ranks"),
    ("verify", "fraction_field_ranks", "labelled.fraction_field_ranks"),
    ("labelled", "bareiss_rank", "linalg.bareiss_rank"),
    ("labelled", "rank_dense", "linalg.rank_dense"),
    ("persistence", "rank_dense", "linalg.rank_dense"),
    ("cli", "chain_condition_check", "labelled.chain_condition_check"),
    ("cli", "diag_relation_check", "labelled.diag_relation_check"),
    ("cli", "classical_boundary_ranks", "labelled.classical_boundary_ranks"),
    ("labelled", "classical_boundary_ranks", "labelled.classical_boundary_ranks"),
    ("verify", "classical_boundary_ranks", "labelled.classical_boundary_ranks"),
    ("cli", "classical_betti", "labelled.classical_betti"),
    ("verify", "classical_betti", "labelled.classical_betti"),
    ("cli", "evaluate_chain", "labelled.evaluate_chain"),
    ("labelled", "evaluate_chain", "labelled.evaluate_chain"),
    ("verify", "evaluate_chain", "labelled.evaluate_chain"),
    ("cli", "local_subcomplex", "labelled.local_subcomplex"),
    ("cli", "graded_slice", "labelled.graded_slice"),
    ("labelled", "graded_slice", "labelled.graded_slice"),
    ("verify", "graded_slice", "labelled.graded_slice"),
    ("cli", "slice_iso_check", "labelled.slice_iso_check"),
    ("verify", "slice_iso_check", "labelled.slice_iso_check"),
] + [("verify", f"suite_{s}", f"verify.{s}") for s in SUITES]

_TRUNC, _FULL, _LAB, _VER = "rips_trunc", "rips_full", "labelled", "verify"

# Layer -> (end-to-end metrics it should move, workloads it is measured on).
# A layer must record at least one call on each workload it is measured on.
LAYERS = {
    "persistence.prime_barcode_sr": (("wall_s", "op_p50_s"), (_TRUNC, _FULL, _VER)),
    "persistence.prime_barcode_edge": (("wall_s",), (_TRUNC, _FULL)),
    "persistence.step_associated_primes": (("wall_s",), (_TRUNC, _FULL, _VER)),
    "ideals.sr_associated_primes": (("wall_s",), (_TRUNC, _VER)),
    "ideals.minimal_vertex_covers": (("wall_s",), (_TRUNC, _VER)),
    "complexes.vr_filtration": (("peak_rss_mib", "wall_s"), (_TRUNC, _FULL, _VER)),
    "persistence.ph_barcode": (("wall_s",), (_TRUNC, _FULL)),
    "linalg.persistence_reduce": (("wall_s",), (_TRUNC, _FULL)),
    "labelled.fraction_field_ranks": (("wall_s", "op_p50_s"), (_LAB, _VER)),
    "linalg.bareiss_rank": (("wall_s", "op_p50_s"), (_LAB, _VER)),
    "labelled.boundary_matrices": (("op_p50_s",), (_LAB,)),
    "labelled.chain_condition_check": (("op_p50_s",), (_LAB,)),
    "labelled.diag_relation_check": (("op_p50_s",), (_LAB,)),
    "labelled.classical_boundary_ranks": (("op_p50_s",), (_LAB,)),
    "labelled.classical_betti": (("op_p50_s",), (_LAB,)),
    "labelled.evaluate_chain": (("op_p50_s",), (_LAB,)),
    "labelled.local_subcomplex": (("op_p50_s",), (_LAB,)),
    "labelled.graded_slice": (("op_p50_s",), (_LAB,)),
    "labelled.slice_iso_check": (("op_p50_s",), (_LAB,)),
    "linalg.rank_dense": (("op_p50_s",), (_LAB,)),
    "persistence.betti_profile": (("wall_s",), (_VER,)),
    "persistence.witness_between_steps": (("wall_s",), (_VER,)),
    "monomials.minimal_primes_squarefree": (("wall_s",), (_VER,)),
    "persistence.coverage_report": (("wall_s",), (_TRUNC, _FULL)),
    "serialize.parse": ((), (_TRUNC, _FULL, _LAB)),
    "serialize.write": (("wall_s",), (_TRUNC, _FULL, _LAB, _VER)),
}
LAYERS.update({f"verify.{s}": (("wall_s",), (_VER,)) for s in SUITES})


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every binding; a missing one means a rename dropped a layer."""
        missing = [
            f"idealtda.{mod}.{attr}"
            for mod, attr, _ in BINDINGS
            if not callable(getattr(getattr(package, mod), attr, None))
        ]
        if missing:
            raise LookupError("traced bindings not found: " + ", ".join(missing))
        for mod, attr, name in BINDINGS:
            module = getattr(package, mod)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.call(label, fn, *args, **kwargs)

        return traced


def summarise(spans: list[list]) -> dict[str, dict]:
    """Calls, inclusive and self time per span name.

    Inclusive time counts only the outermost span of a name, so a layer
    that re-enters itself is not counted twice; self time is a span's
    duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["inclusive_s"] += end - start
    return out


def missing_layers(workload: str, summary: dict[str, dict]) -> list[str]:
    """Layers the workload must reach that recorded no call."""
    return [
        name
        for name, (_, on) in LAYERS.items()
        if workload in on and not summary.get(name, {}).get("calls")
    ]
