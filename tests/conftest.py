"""Shared fixtures: the small worked examples used across the test suite."""

from __future__ import annotations

import math

import pytest

from idealtda.complexes import Graph, SimplicialComplex, clique_complex, maximal_faces
from idealtda.labelled import make_labelled
from idealtda.linalg import Polynomial
from idealtda.monomials import AtomTable, FactoredElement, LinearPrime


@pytest.fixture
def three_point_dist() -> list[list[float]]:
    """Isoceles right triangle: d(1,2) = d(1,3) = 2, d(2,3) = 2*sqrt(2)."""
    s = 2.0 * math.sqrt(2.0)
    return [[0.0, 2.0, 2.0], [2.0, 0.0, s], [2.0, s, 0.0]]


@pytest.fixture
def inject_prime_fault(monkeypatch):
    """Call to corrupt the per-step primes the verify suites see: a prime of
    the first step vanishes mid-run and comes back at the last step."""
    from idealtda import verify

    real = verify.step_associated_primes

    def faulty(f, kind):
        ass = [set(a) for a in real(f, kind)]
        if len(ass) >= 3:
            victim = min(ass[0], key=LinearPrime.sort_key)
            ass[len(ass) // 2].discard(victim)
            ass[-1].add(victim)
        return ass

    return lambda: monkeypatch.setattr(verify, "step_associated_primes", faulty)


@pytest.fixture
def labelled_to_dict():
    """The labelled-complex JSON writer the tests build inputs with: the dict
    that ``serialize.labelled_from_dict`` reads, by maximal faces, with each
    expansion term as [coefficient, exponents], an int or a "p/q" string."""

    def write(LC) -> dict:
        out = {
            "n": LC.complex.n,
            "faces": [list(f) for f in sorted(maximal_faces(LC.complex), key=lambda f: (len(f), f))],
            "atoms": list(LC.table.atoms),
            "labels": [list(m.exps) for m in LC.vertex_labels],
        }
        if LC.table.expansions:
            out["atom_polys"] = {
                name: [[int(c) if c.denominator == 1 else str(c), list(e)] for e, c in sorted(poly.terms.items())]
                for name, poly in LC.table.expansions
            }
        return out

    return write


@pytest.fixture
def demo_graph() -> Graph:
    """Four vertices, a triangle 1-2-3 with a pendant edge 3-4."""
    return Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


@pytest.fixture
def demo_clique_complex(demo_graph) -> SimplicialComplex:
    return clique_complex(demo_graph)


@pytest.fixture
def demo_hollow_complex() -> SimplicialComplex:
    """Same 1-skeleton as demo_clique_complex but without the filled triangle."""
    return SimplicialComplex.from_faces(
        4, [(1,), (2,), (3,), (4,), (3, 4), (1, 2), (1, 3), (2, 3)]
    )


@pytest.fixture
def worked_labelled():
    """Reduced labelled complex: closure of {1,2,3} and {1,4} over 4 variables,
    labels x1, x2*x3, x2*x4, x3*x4."""
    K = SimplicialComplex.from_faces(4, [(1, 2, 3), (1, 4)], close=True)
    table = AtomTable.for_variables(4)
    labels = [
        FactoredElement(table, (1, 0, 0, 0)),
        FactoredElement(table, (0, 1, 1, 0)),
        FactoredElement(table, (0, 1, 0, 1)),
        FactoredElement(table, (0, 0, 1, 1)),
    ]
    return make_labelled(K, labels, reduced=True)


@pytest.fixture
def poly_labelled():
    """Filled triangle with a composite atom: labels x1+x2, x1, x1*x2."""
    expansion = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    table = AtomTable(("x1", "x2", "x1+x2"), (("x1+x2", expansion),))
    K = SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True)
    labels = [
        FactoredElement(table, (0, 0, 1)),
        FactoredElement(table, (1, 0, 0)),
        FactoredElement(table, (1, 1, 0)),
    ]
    return make_labelled(K, labels)
