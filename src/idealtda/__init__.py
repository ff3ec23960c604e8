"""Commutative-algebra-enhanced persistence.

Barcodes from the associated primes of face (Stanley-Reisner) and edge
ideals along a Vietoris-Rips filtration, exact simplicial homology, and
labelled chain complexes of free modules over factored unique
factorization domains.

Importing the package loads no submodule.  ``_EXPORTS`` is the one table
of the names it re-exports, each under the submodule that defines it, and
``__all__`` is built from it.  The PEP 562 ``__getattr__`` resolves a
re-exported name on first access by importing its submodule, and caches
it; it resolves a submodule name (``idealtda.labelled``) by importing that
submodule.  So a command compiles only the modules it runs: the barcode
pipeline never loads :mod:`idealtda.labelled`, :mod:`idealtda.monomials`
or the randomized suites and their slow oracles, :mod:`idealtda.verify`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "complexes": (
            "Face",
            "Filtration",
            "Graph",
            "SimplicialComplex",
            "clique_complex",
            "full_subcomplex",
            "maximal_faces",
            "minimal_nonfaces",
            "vr_filtration",
            "LinearPrime",
        ),
        "ideals": (
            "complement_graph",
            "complex_of_squarefree_ideal",
            "edge_ideal",
            "minimal_vertex_covers",
            "sr_associated_primes",
            "stanley_reisner",
        ),
        "labelled": (
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
        ),
        "linalg": ("GF2", "QQ", "Polynomial", "PrimeField", "parse_field"),
        "monomials": (
            "AtomTable",
            "FactoredElement",
            "MonomialIdeal",
            "minimal_basis",
            "minimal_primes_squarefree",
        ),
        "persistence": (
            "Barcode",
            "BettiProfile",
            "CoverageReport",
            "betti_numbers",
            "betti_profile",
            "coverage_report",
            "jump_witness",
            "ph_barcode",
            "prime_barcode",
        ),
    }.items()
    for name in names
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "serialize"}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name == "verify":
        import idealtda.verify as verify

        return verify
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is not None:
        value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
