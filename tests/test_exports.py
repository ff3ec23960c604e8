from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import idealtda

MODULES = ["idealtda"] + [
    f"idealtda.{m.name}" for m in pkgutil.iter_modules(idealtda.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Names of the idealtda modules a syntax tree imports, at any depth."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: from . import x, from .x import y
                out.update([base] if base else [a.name for a in node.names])
            elif base == "idealtda":
                out.update(a.name for a in node.names)
            elif base.startswith("idealtda."):
                out.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("idealtda."))
    return out


def _imported_names(path: Path) -> set[str]:
    """Names a source file imports from idealtda modules, at any depth."""
    return {
        a.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("idealtda"))
        for a in node.names
    }


def test_one_mask_native_classical_boundary():
    # the classical ranks, the labelled boundaries and the labelled checks
    # read boundary_masks; boundary_entries, on tuple faces, is the tests'
    # oracle, and no production module defines, imports or calls it
    from idealtda import complexes, persistence

    src = Path(idealtda.__file__).parent
    names = {stem: _imported_names(src / f"{stem}.py") for stem in ("persistence", "labelled")}
    assert "boundary_masks" in names["persistence"] and "boundary_masks" in names["labelled"]
    for stem in PRODUCTION + ("cli", "__init__"):
        text = (src / f"{stem}.py").read_text(encoding="utf-8")
        assert "boundary_entries" not in _imported_names(src / f"{stem}.py"), stem
        assert "boundary_entries(" not in text and "faces_of_dim(" not in text, stem
    assert not hasattr(complexes, "boundary_entries")
    assert not hasattr(complexes.SimplicialComplex, "faces_of_dim")
    assert not {"_boundary_dense", "_iter_bits"} & names["labelled"]
    assert list(inspect.signature(persistence._boundary_dense).parameters) == ["K", "k", "field"]


def _verify_importers(path: Path) -> set[str]:
    """The top-level functions of a source file whose bodies import verify,
    and "<module>" for an import of it anywhere else."""
    return {
        node.name if isinstance(node, ast.FunctionDef) else "<module>"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if "verify" in _imported_modules(node)
    }


def test_only_cli_imports_the_oracles():
    # the slow oracle routes live in verify, which no production module
    # reaches; cli imports it only to run the verify command, and the
    # package's PEP 562 __getattr__ only to resolve idealtda.verify
    src = Path(idealtda.__file__).parent
    importers = {p.stem: _verify_importers(p) for p in sorted(src.glob("*.py")) if p.stem != "verify"}
    offenders = {stem: owners for stem, owners in importers.items() if owners and stem not in ("cli", "__init__")}
    assert not offenders, f"modules other than cli import verify: {offenders}"
    assert importers["cli"] == {"cmd_verify"}
    assert importers["__init__"] == {"__getattr__"}


def _load_time_imports(path: Path) -> set[str]:
    """The idealtda modules a source file imports when it loads: its
    imports outside every function body, class bodies included."""
    out = set()
    stack = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= _imported_modules(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_the_barcode_path_loads_no_labelled_framework():
    # a barcodes run compiles neither the labelled framework nor the ideal
    # algebra: the modules on its path import them only inside functions,
    # cli only in its binder, and the package imports no submodule at all
    src = Path(idealtda.__file__).parent
    on_path = ("cli", "persistence", "ideals", "serialize", "complexes")
    offenders = {stem: _load_time_imports(src / f"{stem}.py") & {"labelled", "monomials"} for stem in on_path}
    assert not any(offenders.values()), f"module-level imports of the labelled framework: {offenders}"
    assert _load_time_imports(src / "__init__.py") == set()
    cli_tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    assert {node.name for node in cli_tree.body if "labelled" in _imported_modules(node)} == {"_bind_labelled"}


def test_oracle_routes_left_the_production_modules():
    from idealtda import monomials, persistence, verify

    for module, name in [
        (persistence, "NoResurrectionError"),
        (persistence, "_intervals_from_runs"),
        (persistence, "intervals_from_runs"),
        (persistence, "witness_per_step"),
        (monomials, "minimal_transversals_exhaustive"),
    ]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name.lstrip("_") in verify.__all__
    assert not hasattr(monomials.AtomTable, "atom_polynomials")
    assert "atom_polynomials" in verify.__all__
    for fn in (persistence.prime_barcode, persistence.step_associated_primes):
        assert list(inspect.signature(fn).parameters) == ["f", "kind"], fn.__name__


def test_one_barcode_type():
    from idealtda import persistence
    from idealtda.complexes import vr_filtration

    for module in (idealtda, persistence):
        for name in ("PrimeInterval", "PrimeBarcode", "PHBarcode", "JumpWitness"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    f = vr_filtration([[0.0, 1.0], [1.0, 0.0]])
    for bc in (persistence.prime_barcode(f, "SR"), persistence.prime_barcode(f, "EDGE"), persistence.ph_barcode(f)):
        assert type(bc) is idealtda.Barcode
    assert tuple(fld.name for fld in dataclasses.fields(idealtda.Barcode)) == ("kind", "bars")
    assert tuple(fld.name for fld in dataclasses.fields(idealtda.BettiProfile)) == ("params", "betti", "reduced")


def test_one_dense_chain_record():
    from idealtda import labelled
    from idealtda.monomials import MonomialIdeal

    assert issubclass(labelled.GradedSlice, labelled.EvaluatedChain)
    fields = tuple(fld.name for fld in dataclasses.fields(labelled.GradedSlice))
    assert fields == ("field", "ncells", "matrices", "subcomplex", "bases")
    assert not hasattr(labelled, "evaluation_ranks")
    for name in ("contains", "radical"):
        assert not hasattr(MonomialIdeal, name), f"MonomialIdeal.{name}"


PRODUCTION = ("complexes", "ideals", "labelled", "linalg", "monomials", "persistence", "serialize")


def test_the_polynomial_ring_lives_with_its_oracle():
    # production reads and evaluates parsed expansions; the ring operations,
    # the exact polynomial division and the specialization that searches an
    # admissible point live with the oracles in verify
    from idealtda import labelled, linalg, monomials, verify

    for name in ("__add__", "__mul__", "__pow__", "exact_div", "substitute", "specialize", "render", "total_degree"):
        assert not hasattr(linalg.Polynomial, name), f"Polynomial.{name}"
    assert not hasattr(linalg, "_domain_exact_div")
    assert not hasattr(monomials.AtomTable, "expansion_map")
    assert not hasattr(labelled, "admissible_point") and "admissible_point" not in labelled.__all__
    assert issubclass(verify.RingPolynomial, linalg.Polynomial)
    assert {"RingPolynomial", "polynomial_bareiss_rank", "admissible_point"} <= set(verify.__all__)
    src = Path(idealtda.__file__).parent
    assert "_integral_rows" not in _imported_names(src / "labelled.py")
    oracle_names = {"exact_div", "substitute", "specialize", "expansion_map", "leading_term", "RingPolynomial", "admissible_point"}
    for stem in PRODUCTION + ("cli", "__init__"):
        tree = ast.parse((src / f"{stem}.py").read_text(encoding="utf-8"))
        used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert not used & oracle_names, (stem, used & oracle_names)


def test_production_holds_only_what_a_command_runs():
    # names that no command, verify oracle, quick tour or named feature used
    from idealtda import complexes, monomials, serialize

    gone = {
        serialize: ("complex_to_dict", "labelled_to_dict", "_expansion_to_json"),
        monomials: ("lcm_factored", "divides", "radical_generators", "membership", "prime_contains", "ideal_in_prime"),
        monomials.FactoredElement: ("gcd", "times", "squarefree_part"),
        monomials.MonomialIdeal: ("zero", "ambient_n"),
        complexes.SimplicialComplex: ("simplex", "has_face", "is_subcomplex_of", "is_simplex_over", "__len__"),
        complexes.Graph: ("has_edge",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert name not in getattr(owner, "__all__", ()) and name not in idealtda.__all__, name
