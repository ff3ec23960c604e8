from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from idealtda.complexes import MAX_FACES, mask_face
from idealtda.linalg import Polynomial
from idealtda.monomials import (
    AtomTable,
    FactoredElement,
    LinearPrime,
    MonomialIdeal,
    minimal_basis,
    minimal_primes_squarefree,
    minimal_transversals,
)
from idealtda.verify import RingPolynomial, minimal_transversals_exhaustive

X4 = AtomTable.for_variables(4)


def m(*exps: int) -> FactoredElement:
    return FactoredElement(X4, exps)


def sf(*support: int) -> FactoredElement:
    return FactoredElement.from_support(X4, support)


def membership(m: FactoredElement, ideal: MonomialIdeal) -> bool:
    """Monomial membership: some generator divides m."""
    return any(g.divides(m) for g in ideal.generators)


def test_atom_table_validation():
    with pytest.raises(ValueError):
        AtomTable(("x1", "x1"))
    with pytest.raises(ValueError):
        AtomTable(("x1",), (("y", RingPolynomial.zero(1)),))
    # a zero expansion is not an irreducible, however it is spelled
    x1 = RingPolynomial.variable(1, 0)
    for zero in (RingPolynomial.zero(1), x1 - x1):
        with pytest.raises(ValueError, match="atom 's' expands to the zero polynomial"):
            AtomTable(("x1", "s"), (("s", zero),))
    table = AtomTable(("x1", "x2", "x1+x2"), (("x1+x2", Polynomial(2, {(1, 0): 1, (0, 1): 1})),))
    assert table.variables == ("x1", "x2")
    assert not table.is_pure_variables
    assert X4.is_pure_variables
    # the variables are computed once, and the cache leaves equality and hash alone
    assert table.variables is table.variables
    twin = AtomTable(table.atoms, table.expansions)
    assert twin == table and hash(twin) == hash(table)
    assert AtomTable.for_variables(4).variables == X4.variables == ("x1", "x2", "x3", "x4")


def test_factored_element_validation_and_str():
    with pytest.raises(ValueError):
        FactoredElement(X4, (1, 0, 0))
    with pytest.raises(ValueError):
        FactoredElement(X4, (-1, 0, 0, 0))
    assert str(m(1, 0, 2, 0)) == "x1*x3^2"
    assert str(FactoredElement.unit(X4)) == "1"


def _old_str(el: FactoredElement) -> str:
    # the rule before the one atom writer: only + and - called for parentheses
    if el.is_unit:
        return "1"
    parts = []
    for a, e in zip(el.table.atoms, el.exps):
        name = a if "+" not in a and "-" not in a else f"({a})"
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def test_factored_element_str_parenthesizes_like_the_matrix_entries():
    rng = random.Random(18)
    plain = AtomTable(("x1", "x1+x2", "y-1", "z"))
    for _ in range(100):
        el = FactoredElement(plain, tuple(rng.randint(0, 3) for _ in plain.atoms))
        assert str(el) == _old_str(el)
        assert str(el) == (RingPolynomial.monomial(4, el.exps).render(plain.atoms) if not el.is_unit else "1")
    spaced = AtomTable(("a b", "c", "p q+r"))
    assert str(FactoredElement(spaced, (2, 0, 0))) == "(a b)^2"
    assert str(FactoredElement(spaced, (1, 1, 1))) == "(a b)*c*(p q+r)"
    assert str(FactoredElement(spaced, (0, 3, 0))) == "c^3"
    assert str(FactoredElement.unit(spaced)) == "1"


def test_lcm_fixtures():
    assert sf(1).lcm(sf(1, 2)) == sf(1, 2)
    assert m(2, 1, 0, 0).lcm(FactoredElement.unit(X4)) == m(2, 1, 0, 0)
    assert sf(2, 3).lcm(sf(2, 4)) == sf(2, 3, 4)


def test_divides_fixtures():
    assert sf(2, 3).divides(sf(2, 3, 4))
    assert FactoredElement.unit(X4).divides(m(3, 1, 4, 1))
    assert not sf(1).divides(sf(2, 3, 4))


def test_exact_quotient():
    assert sf(2, 3, 4).over(sf(2, 3)) == sf(4)
    with pytest.raises(ValueError):
        sf(1).over(sf(2))


def test_lcm_divides_algebraic_properties():
    rng = random.Random(0)
    elems = [m(*(rng.randint(0, 3) for _ in range(4))) for _ in range(12)]
    for a in elems:
        assert a.lcm(a) == a
        assert a.divides(a)
    for a in elems:
        for b in elems:
            l = a.lcm(b)
            assert l == b.lcm(a)
            assert a.divides(l)
            # gcd * lcm = product, on the exponent vectors
            assert all(min(x, y) + z == x + y for x, y, z in zip(a.exps, b.exps, l.exps))
            if a.divides(b) and b.divides(a):
                assert a == b
            for c in elems:
                assert a.lcm(b.lcm(c)) == l.lcm(c)
                if a.divides(b) and b.divides(c):
                    assert a.divides(c)
            # lcm is the least common multiple: it divides every common multiple
            common = m(l.exps[0] + 1, *l.exps[1:])
            assert l.divides(common)


def test_minimal_basis_fixture():
    gens = [sf(1, 4), sf(2, 4), sf(1, 2, 4), sf(1, 3, 4), sf(2, 3, 4), sf(1, 2, 3, 4)]
    assert set(minimal_basis(gens)) == {sf(1, 4), sf(2, 4)}
    assert minimal_basis([m(2, 1, 0, 0)]) == (m(2, 1, 0, 0),)


def test_minimal_basis_matches_pairwise_filter_oracle():
    rng = random.Random(1)
    for _ in range(40):
        gens = list({m(*(rng.randint(0, 2) for _ in range(4))) for _ in range(6)})
        got = set(minimal_basis(gens))
        want = {
            g
            for g in gens
            if not any(h != g and h.divides(g) for h in gens)
        }
        assert got == want
        for a in got:
            for b in got:
                if a != b:
                    assert not a.divides(b)


def test_minimal_basis_preserves_membership():
    rng = random.Random(2)
    n = 6
    table = AtomTable.for_variables(n)
    for _ in range(20):
        gens = [
            FactoredElement.from_support(
                table, [v for v in range(1, n + 1) if rng.random() < 0.5] or [1]
            )
            for _ in range(4)
        ]
        I = MonomialIdeal.from_generators(table, gens)
        J = I.minimal_basis()
        for size in range(0, n + 1):
            for comb in combinations(range(1, n + 1), size):
                probe = FactoredElement.from_support(table, comb)
                assert membership(probe, I) == membership(probe, J)


def test_ideal_canonicalization_and_equality():
    a = MonomialIdeal.from_generators(X4, [sf(2, 4), sf(1, 4), sf(2, 4)])
    b = MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])
    assert a == b
    assert str(b) == "<x1*x4, x2*x4>"


def test_minimal_primes_fixtures():
    table3 = AtomTable.for_variables(3)
    I = MonomialIdeal.from_generators(table3, [FactoredElement.from_support(table3, (2, 3))])
    assert minimal_primes_squarefree(I) == {LinearPrime.of((2,)), LinearPrime.of((3,))}

    assert minimal_primes_squarefree(MonomialIdeal(X4, ())) == {LinearPrime.of(())}

    I2 = MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])
    assert minimal_primes_squarefree(I2) == {LinearPrime.of((4,)), LinearPrime.of((1, 2))}


def test_minimal_primes_rejections():
    unit_ideal = MonomialIdeal.from_generators(X4, [FactoredElement.unit(X4)])
    with pytest.raises(ValueError, match="unit ideal"):
        minimal_primes_squarefree(unit_ideal)
    with pytest.raises(ValueError, match="square-free"):
        minimal_primes_squarefree(MonomialIdeal.from_generators(X4, [m(2, 0, 0, 0)]))


def test_minimal_primes_intersection_and_uniqueness():
    rng = random.Random(3)
    n = 6
    table = AtomTable.for_variables(n)
    for _ in range(30):
        gens = [
            FactoredElement.from_support(table, [v for v in range(1, n + 1) if rng.random() < 0.4] or [rng.randint(1, n)])
            for _ in range(rng.randint(1, 4))
        ]
        I = MonomialIdeal.from_generators(table, gens)
        primes = minimal_primes_squarefree(I)
        # antichain
        for p in primes:
            for q in primes:
                if p != q:
                    assert not (set(p.vars) < set(q.vars))
        # intersection of the primes = the ideal, on all square-free monomials
        for size in range(0, n + 1):
            for comb in combinations(range(1, n + 1), size):
                probe = FactoredElement.from_support(table, comb)
                in_all = all(p.mask & probe.support_mask() for p in primes)
                assert in_all == membership(probe, I)
        # agreement with the exhaustive transversal oracle
        supports = [g.support_mask() for g in I.minimal_basis().generators]
        want = {
            LinearPrime.of(tuple(i + 1 for i in range(n) if w >> i & 1))
            for w in minimal_transversals_exhaustive(supports, n)
        }
        assert primes == want


def test_minimal_primes_match_the_minimal_basis_route():
    # the support antichain stands in for minimal_basis on square-free ideals
    rng = random.Random(53)
    for _ in range(200):
        n = rng.randint(1, 10)
        table = AtomTable.for_variables(n)
        gens = [
            FactoredElement.from_support(table, [v for v in range(1, n + 1) if rng.random() < 0.3])
            for _ in range(rng.randint(1, 8))
        ]
        I = MonomialIdeal.from_generators(table, gens)
        if not I.is_proper:
            continue
        supports = [g.support_mask() for g in minimal_basis(I.generators)]
        assert minimal_primes_squarefree(I) == {LinearPrime(w) for w in minimal_transversals(supports)}


def test_minimal_primes_of_many_singletons():
    # 1099 singleton generators: one prime, all of them
    table = AtomTable.for_variables(1100)
    I = MonomialIdeal.from_generators(table, [FactoredElement.from_support(table, (v,)) for v in range(2, 1101)])
    start = time.perf_counter()
    primes = minimal_primes_squarefree(I)
    assert time.perf_counter() - start < 2
    assert primes == {LinearPrime.of(range(2, 1101))}


def test_minimal_transversals_match_exhaustive():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 9)
        fam = [
            sum(1 << i for i in range(n) if rng.random() < 0.4) or 1
            for _ in range(rng.randint(1, 5))
        ]
        assert sorted(minimal_transversals(fam)) == sorted(
            minimal_transversals_exhaustive(fam, n)
        )
    with pytest.raises(ValueError):
        minimal_transversals([0])


def test_minimal_transversals_deeper_than_the_recursion_limit():
    # one vertex is chosen per level: 2000 levels
    assert minimal_transversals([1 << i for i in range(2000)]) == [(1 << 2000) - 1]


def test_minimal_transversals_exhaustive_budget():
    # 2^16 = MAX_FACES subsets are scanned; more are refused before the scan,
    # which would otherwise run for hours at n = 30
    assert minimal_transversals_exhaustive([1 << 15], 16) == [1 << 15]
    for n in (17, 30, 1000):
        with pytest.raises(ValueError, match=str(MAX_FACES)):
            minimal_transversals_exhaustive([1], n)


def test_linear_prime_basics():
    assert LinearPrime.of(()).is_zero_ideal
    assert str(LinearPrime.of(())) == "<0>"
    assert str(LinearPrime.of((1, 3))) == "<x1,x3>"
    assert LinearPrime.of((1, 3)).mask == 0b101
    assert LinearPrime.of((2,)).sort_key() < LinearPrime.of((1, 2)).sort_key()
    with pytest.raises(ValueError):
        LinearPrime.of((0,))


def test_linear_prime_is_its_vertex_mask():
    rng = random.Random(8)
    masks = [0] + [rng.getrandbits(rng.randint(1, 12)) for _ in range(300)]
    vertices = {m: tuple(v for v in range(1, 13) if m >> (v - 1) & 1) for m in masks}
    for m in masks:
        assert LinearPrime(m).vars == mask_face(m) == vertices[m]
        assert LinearPrime.of(mask_face(m)) == LinearPrime(m)
        assert LinearPrime.of(reversed(vertices[m])) == LinearPrime(m)
    primes = [LinearPrime(m) for m in masks]
    by_tuple = sorted(primes, key=lambda p: (len(vertices[p.mask]), vertices[p.mask]))
    assert sorted(primes, key=LinearPrime.sort_key) == by_tuple
    for bad in [(0,), (1, 0), (-2,), (1.0,), ("1",), (True, 3), (2, 2), (1, 3, 1)]:
        with pytest.raises(ValueError):
            LinearPrime.of(bad)
