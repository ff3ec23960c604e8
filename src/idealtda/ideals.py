"""Ideals attached to complexes and graphs, and the inverse correspondence.

Two independent routes to the associated primes are kept on purpose:
the combinatorial characterizations (complements of maximal faces for
face ideals of complexes, complements of maximal independent sets for
edge ideals) and the generic minimal-transversal decomposition from
:mod:`idealtda.monomials`.  They are cross-checked permanently in the
test and verification suites.
"""

from __future__ import annotations

from .complexes import (
    Graph,
    SimplicialComplex,
    _check_face_budget,
    _iter_bits,
    _maximal_cliques,
    _maximal_masks,
    minimal_nonfaces,
)
from .monomials import AtomTable, FactoredElement, LinearPrime, MonomialIdeal

__all__ = [
    "stanley_reisner",
    "edge_ideal",
    "complex_of_squarefree_ideal",
    "sr_associated_primes",
    "minimal_vertex_covers",
    "complement_graph",
    "one_skeleton",
]


def _variable_table(n: int) -> AtomTable:
    return AtomTable.for_variables(n)


def stanley_reisner(K: SimplicialComplex) -> MonomialIdeal:
    """Face ideal of K: generated by the monomials of its minimal non-faces.

    The minimal non-faces already form the minimal basis; a simplex over
    the full vertex set yields the zero ideal.
    """
    table = _variable_table(K.n)
    gens = [FactoredElement.from_support(table, f) for f in minimal_nonfaces(K)]
    return MonomialIdeal.from_generators(table, gens)


def edge_ideal(obj: SimplicialComplex | Graph) -> MonomialIdeal:
    """Ideal generated by x_i*x_j over the edges (1-faces) of the input."""
    if isinstance(obj, Graph):
        n, edges = obj.n, obj.sorted_edges()
    else:
        n, edges = obj.n, obj.faces_of_dim(1)
    table = _variable_table(n)
    gens = [FactoredElement.from_support(table, e) for e in edges]
    return MonomialIdeal.from_generators(table, gens)


def complex_of_squarefree_ideal(ideal: MonomialIdeal, n: int) -> SimplicialComplex:
    """The complex whose face ideal is the given square-free proper ideal.

    Faces are the nonempty subsets sigma with x_sigma outside the ideal;
    inverse of :func:`stanley_reisner`.  They are walked from each face to
    the faces with one more vertex above its top vertex, so the work grows
    with the faces, not with 2^n, and stops beyond ``MAX_FACES`` faces.
    """
    if not ideal.is_squarefree:
        raise ValueError("only square-free ideals correspond to complexes")
    if not ideal.is_proper:
        raise ValueError("the unit ideal does not correspond to a complex")
    table = ideal.table
    if len(table.atoms) != n:
        raise ValueError(f"ideal lives over {len(table.atoms)} variables, not {n}")
    supports = [g.support_mask() for g in ideal.generators]
    full = (1 << n) - 1
    masks: list[int] = []
    stack = [0]
    while stack:
        m = stack.pop()
        for bit in _iter_bits(full & ~((1 << m.bit_length()) - 1)):  # above the top of m
            face = m | bit
            if not any(s & face == s for s in supports):
                masks.append(face)
                _check_face_budget(len(masks))
                stack.append(face)
    return SimplicialComplex(n, frozenset(masks))


def sr_associated_primes(K: SimplicialComplex) -> frozenset[LinearPrime]:
    """Associated primes of the face ideal of K.

    Combinatorial route: one prime per maximal face, generated by the
    variables of the complementary vertex set.
    """
    full = (1 << K.n) - 1
    out = {LinearPrime(full & ~m) for m in _maximal_masks(K)}
    if K.is_empty:
        out.add(LinearPrime(full))
    return frozenset(out)


def minimal_vertex_covers(g: Graph) -> frozenset[LinearPrime]:
    """All inclusion-minimal vertex covers of g, as linear primes.

    Combinatorial route: complements of the maximal independent sets,
    i.e. of the maximal cliques of the complement graph, searched on its
    neighbour masks without listing its edges.
    """
    full = (1 << g.n) - 1
    adj = g.adjacency
    complement = [0] + [full ^ adj[v] ^ (1 << (v - 1)) for v in range(1, g.n + 1)]
    covers = {LinearPrime(full & ~clique) for clique in _maximal_cliques(g.n, complement)}
    if g.n == 0:
        covers.add(LinearPrime(0))
    return frozenset(covers)


def complement_graph(g: Graph) -> Graph:
    """Graph with edge {i,j} present exactly when absent from g."""
    edges = [
        (i, j)
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
        if not g.has_edge(i, j)
    ]
    return Graph.from_edges(g.n, edges)


def one_skeleton(K: SimplicialComplex) -> Graph:
    """Underlying graph of a complex: its vertices and 1-faces."""
    return Graph.from_edges(K.n, K.faces_of_dim(1))
