from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from idealtda.complexes import MAX_FACES, Graph, SimplicialComplex, clique_complex, full_subcomplex
from idealtda.ideals import (
    complement_graph,
    complex_of_squarefree_ideal,
    edge_ideal,
    minimal_vertex_covers,
    one_skeleton,
    sr_associated_primes,
    stanley_reisner,
)
from idealtda.monomials import (
    AtomTable,
    FactoredElement,
    LinearPrime,
    MonomialIdeal,
    membership,
    minimal_primes_squarefree,
)

X4 = AtomTable.for_variables(4)


def sf(*support: int) -> FactoredElement:
    return FactoredElement.from_support(X4, support)


def random_complex(rng, n):
    gens = [(rng.randint(1, n),)]
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(4, n))
        gens.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return SimplicialComplex.from_faces(n, gens, close=True)


def random_graph(rng, n):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def test_stanley_reisner_demo(demo_clique_complex, demo_hollow_complex):
    assert stanley_reisner(demo_clique_complex) == MonomialIdeal.from_generators(
        X4, [sf(1, 4), sf(2, 4)]
    )
    assert stanley_reisner(demo_hollow_complex) == MonomialIdeal.from_generators(
        X4, [sf(1, 4), sf(2, 4), sf(1, 2, 3)]
    )


def test_stanley_reisner_full_simplex_is_zero():
    S = SimplicialComplex.simplex(4, (1, 2, 3, 4))
    assert stanley_reisner(S).is_zero


def test_edge_ideal_demo(demo_clique_complex, demo_graph):
    want = MonomialIdeal.from_generators(X4, [sf(1, 2), sf(1, 3), sf(2, 3), sf(3, 4)])
    assert edge_ideal(demo_clique_complex) == want
    assert edge_ideal(demo_graph) == want


def test_edge_ideal_edgeless_and_complement_clique(demo_graph):
    edgeless = SimplicialComplex.from_faces(3, [(1,), (2,), (3,)])
    assert edge_ideal(edgeless).is_zero
    comp_clique = clique_complex(complement_graph(demo_graph))
    assert edge_ideal(comp_clique) == MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])


def test_complex_of_squarefree_ideal_demo(demo_clique_complex):
    I = MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])
    K = complex_of_squarefree_ideal(I, 4)
    assert K == demo_clique_complex
    # membership oracle over all 15 nonempty subsets
    for size in range(1, 5):
        for comb in combinations(range(1, 5), size):
            assert K.has_face(comb) == (not membership(sf(*comb), I))


def test_complex_of_squarefree_ideal_zero_gives_simplex():
    K = complex_of_squarefree_ideal(MonomialIdeal.zero(X4), 4)
    assert K == SimplicialComplex.simplex(4, (1, 2, 3, 4))


def test_complex_of_squarefree_ideal_rejections():
    with pytest.raises(ValueError, match="square-free"):
        complex_of_squarefree_ideal(
            MonomialIdeal.from_generators(X4, [FactoredElement(X4, (2, 0, 0, 0))]), 4
        )
    with pytest.raises(ValueError, match="unit"):
        complex_of_squarefree_ideal(
            MonomialIdeal.from_generators(X4, [FactoredElement.unit(X4)]), 4
        )
    with pytest.raises(ValueError, match="variables"):
        complex_of_squarefree_ideal(MonomialIdeal.zero(X4), 5)


def test_complex_of_squarefree_ideal_walks_only_faces():
    # every x_i*x_j on 40 variables: 2^40 subsets, but only the 40 vertices are faces
    n = 40
    table = AtomTable.for_variables(n)
    pairs = [FactoredElement.from_support(table, e) for e in combinations(range(1, n + 1), 2)]
    start = time.perf_counter()
    K = complex_of_squarefree_ideal(MonomialIdeal.from_generators(table, pairs), n)
    assert time.perf_counter() - start < 1
    assert K == SimplicialComplex.from_faces(n, [(v,) for v in range(1, n + 1)])


def test_complex_of_squarefree_ideal_face_budget():
    # the zero ideal on 17 variables gives the full simplex, 2^17 - 1 faces
    with pytest.raises(ValueError, match=f"more than {MAX_FACES} faces"):
        complex_of_squarefree_ideal(MonomialIdeal.zero(AtomTable.for_variables(17)), 17)


def test_sr_roundtrip_on_random_complexes():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(1, 7)
        K = random_complex(rng, n)
        I = stanley_reisner(K)
        assert complex_of_squarefree_ideal(I, n) == K
        assert stanley_reisner(complex_of_squarefree_ideal(I, n)) == I.minimal_basis()


def test_sr_associated_primes_demo(demo_clique_complex):
    assert sr_associated_primes(demo_clique_complex) == {
        LinearPrime.of((4,)),
        LinearPrime.of((1, 2)),
    }


def test_sr_associated_primes_simplex_and_path():
    S = SimplicialComplex.simplex(3, (1, 2, 3))
    assert sr_associated_primes(S) == {LinearPrime.of(())}
    path = SimplicialComplex.from_faces(3, [(1, 2), (1, 3)], close=True)
    assert sr_associated_primes(path) == {LinearPrime.of((2,)), LinearPrime.of((3,))}


def test_sr_associated_primes_degenerate_empty_complex():
    empty = SimplicialComplex(3, frozenset())
    assert sr_associated_primes(empty) == {LinearPrime.of((1, 2, 3))}
    assert sr_associated_primes(empty) == minimal_primes_squarefree(stanley_reisner(empty))


def test_sr_associated_primes_agree_with_transversal_route():
    rng = random.Random(1)
    for _ in range(50):
        K = random_complex(rng, rng.randint(1, 7))
        assert sr_associated_primes(K) == minimal_primes_squarefree(stanley_reisner(K))


def test_minimal_vertex_covers_fixtures():
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert minimal_vertex_covers(path) == {LinearPrime.of((2,)), LinearPrime.of((1, 3))}
    assert minimal_vertex_covers(Graph.from_edges(3, [])) == {LinearPrime.of(())}
    k3 = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert minimal_vertex_covers(k3) == {
        LinearPrime.of((1, 2)),
        LinearPrime.of((1, 3)),
        LinearPrime.of((2, 3)),
    }


def test_minimal_vertex_covers_large_sparse_graph():
    # the independent sets have 1199 vertices: deeper than the recursion limit
    g = Graph.from_edges(1200, [(1, 2)])
    assert minimal_vertex_covers(g) == {LinearPrime.of((1,)), LinearPrime.of((2,))}


def test_minimal_vertex_covers_exhaustive_predicate_oracle():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(rng, n)
        got = minimal_vertex_covers(g)

        def is_cover(w: set[int]) -> bool:
            return all(i in w or j in w for i, j in g.edges)

        covers = [
            set(comb)
            for size in range(0, n + 1)
            for comb in combinations(range(1, n + 1), size)
            if is_cover(set(comb))
        ]
        want = {
            LinearPrime.of(tuple(sorted(w)))
            for w in covers
            if not any(c < w for c in covers)
        }
        assert got == want
        assert got == minimal_primes_squarefree(edge_ideal(g))


def test_complement_graph_fixtures(demo_graph):
    comp = complement_graph(demo_graph)
    assert comp.edges == frozenset({(2, 4), (1, 4)})
    k3 = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert complement_graph(k3).edges == frozenset()


def test_complement_is_involution():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        assert complement_graph(complement_graph(g)) == g


def test_ideal_monotonicity_on_nested_pairs():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(2, 7)
        big = random_complex(rng, n)
        keep = [f for f in big.faces() if rng.random() < 0.6]
        keep.append(big.faces()[0])
        small = SimplicialComplex.from_faces(n, keep, close=True)
        assert small.is_subcomplex_of(big)
        # smaller complex -> larger face ideal
        I_big, I_small = stanley_reisner(big), stanley_reisner(small)
        assert all(membership(g, I_small) for g in I_big.generators)
        # smaller complex -> smaller edge ideal
        E_big, E_small = edge_ideal(big), edge_ideal(small)
        assert all(membership(g, E_big) for g in E_small.generators)


def test_simplex_characterization():
    rng = random.Random(5)
    n = 5
    table = AtomTable.for_variables(n)
    for _ in range(20):
        K = random_complex(rng, n)
        I = stanley_reisner(K)
        for size in range(1, n + 1):
            for comb in combinations(range(1, n + 1), size):
                comp = tuple(v for v in range(1, n + 1) if v not in comb)
                linear = MonomialIdeal.from_generators(
                    table, [FactoredElement.from_support(table, (v,)) for v in comp]
                )
                assert (I == linear) == K.is_simplex_over(comb)


def test_clique_complement_identity_and_counterexample(demo_graph, demo_hollow_complex):
    # identity for the clique complex of any graph
    rng = random.Random(6)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        lhs = stanley_reisner(clique_complex(g)).minimal_basis()
        rhs = edge_ideal(complement_graph(g)).minimal_basis()
        assert lhs == rhs
    # fails for a non-clique complex on the same graph
    hollow_sr = stanley_reisner(demo_hollow_complex)
    assert hollow_sr != edge_ideal(complement_graph(demo_graph))


def test_one_skeleton(demo_clique_complex, demo_graph):
    assert one_skeleton(demo_clique_complex) == demo_graph


def test_sr_primes_via_subcomplex_window():
    # complement of each associated prime spans a simplex window inside K
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 6)
        K = random_complex(rng, n)
        for prime in sr_associated_primes(K):
            comp = tuple(v for v in range(1, n + 1) if v not in prime.vars)
            window = full_subcomplex(K, comp)
            assert window.is_simplex_over(comp)
