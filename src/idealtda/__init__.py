"""Commutative-algebra-enhanced persistence.

Barcodes from the associated primes of face (Stanley-Reisner) and edge
ideals along a Vietoris-Rips filtration, exact simplicial homology, and
labelled chain complexes of free modules over factored unique
factorization domains.

The randomized suites and their slow oracles, :mod:`idealtda.verify`, load
on first access to ``idealtda.verify`` (PEP 562), not with the package.
"""

from .complexes import (
    Face,
    Filtration,
    Graph,
    SimplicialComplex,
    clique_complex,
    full_subcomplex,
    maximal_faces,
    minimal_nonfaces,
    vr_filtration,
)
from .ideals import (
    complement_graph,
    complex_of_squarefree_ideal,
    edge_ideal,
    minimal_vertex_covers,
    sr_associated_primes,
    stanley_reisner,
)
from .labelled import (
    EvaluationPoint,
    GradedSlice,
    InadmissiblePointError,
    LabelledComplex,
    boundary_matrices,
    diag_relation_check,
    evaluate_chain,
    fraction_field_ranks,
    graded_slice,
    local_subcomplex,
    make_labelled,
    slice_iso_check,
)
from .linalg import GF2, QQ, Polynomial, PrimeField, parse_field
from .monomials import (
    AtomTable,
    FactoredElement,
    LinearPrime,
    MonomialIdeal,
    divides,
    lcm_factored,
    membership,
    minimal_basis,
    minimal_primes_squarefree,
    radical_generators,
)
from .persistence import (
    Barcode,
    BettiProfile,
    CoverageReport,
    betti_numbers,
    betti_profile,
    coverage_report,
    jump_witness,
    ph_barcode,
    prime_barcode,
)

__version__ = "0.1.0"

__all__ = [
    "Face",
    "Filtration",
    "Graph",
    "SimplicialComplex",
    "clique_complex",
    "full_subcomplex",
    "maximal_faces",
    "minimal_nonfaces",
    "vr_filtration",
    "complement_graph",
    "complex_of_squarefree_ideal",
    "edge_ideal",
    "minimal_vertex_covers",
    "sr_associated_primes",
    "stanley_reisner",
    "EvaluationPoint",
    "GradedSlice",
    "InadmissiblePointError",
    "LabelledComplex",
    "boundary_matrices",
    "diag_relation_check",
    "evaluate_chain",
    "fraction_field_ranks",
    "graded_slice",
    "local_subcomplex",
    "make_labelled",
    "slice_iso_check",
    "GF2",
    "QQ",
    "Polynomial",
    "PrimeField",
    "parse_field",
    "AtomTable",
    "FactoredElement",
    "LinearPrime",
    "MonomialIdeal",
    "divides",
    "lcm_factored",
    "membership",
    "minimal_basis",
    "minimal_primes_squarefree",
    "radical_generators",
    "Barcode",
    "BettiProfile",
    "CoverageReport",
    "betti_numbers",
    "betti_profile",
    "coverage_report",
    "jump_witness",
    "ph_barcode",
    "prime_barcode",
    "__version__",
]


def __getattr__(name: str):
    if name == "verify":
        import idealtda.verify as verify

        return verify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
