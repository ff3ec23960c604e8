from __future__ import annotations

import random
from itertools import combinations

import pytest

from idealtda.complexes import mask_face
from idealtda.linalg import Polynomial
from idealtda.monomials import (
    AtomTable,
    FactoredElement,
    LinearPrime,
    MonomialIdeal,
    divides,
    ideal_in_prime,
    lcm_factored,
    membership,
    minimal_basis,
    minimal_primes_squarefree,
    minimal_transversals,
    minimal_transversals_exhaustive,
    prime_contains,
    radical_generators,
)

X4 = AtomTable.for_variables(4)


def m(*exps: int) -> FactoredElement:
    return FactoredElement(X4, exps)


def sf(*support: int) -> FactoredElement:
    return FactoredElement.from_support(X4, support)


def test_atom_table_validation():
    with pytest.raises(ValueError):
        AtomTable(("x1", "x1"))
    with pytest.raises(ValueError):
        AtomTable(("x1",), (("y", Polynomial.zero(1)),))
    table = AtomTable(("x1", "x2", "x1+x2"), (("x1+x2", Polynomial(2, {(1, 0): 1, (0, 1): 1})),))
    assert table.variables == ("x1", "x2")
    assert not table.is_pure_variables
    assert X4.is_pure_variables


def test_factored_element_validation_and_str():
    with pytest.raises(ValueError):
        FactoredElement(X4, (1, 0, 0))
    with pytest.raises(ValueError):
        FactoredElement(X4, (-1, 0, 0, 0))
    assert str(m(1, 0, 2, 0)) == "x1*x3^2"
    assert str(FactoredElement.unit(X4)) == "1"


def test_lcm_fixtures():
    assert lcm_factored(sf(1), sf(1, 2)) == sf(1, 2)
    assert lcm_factored(m(2, 1, 0, 0), FactoredElement.unit(X4)) == m(2, 1, 0, 0)
    assert lcm_factored(sf(2, 3), sf(2, 4)) == sf(2, 3, 4)


def test_divides_fixtures():
    assert divides(sf(2, 3), sf(2, 3, 4))
    assert divides(FactoredElement.unit(X4), m(3, 1, 4, 1))
    assert not divides(sf(1), sf(2, 3, 4))


def test_exact_quotient():
    assert sf(2, 3, 4).over(sf(2, 3)) == sf(4)
    with pytest.raises(ValueError):
        sf(1).over(sf(2))


def test_lcm_divides_algebraic_properties():
    rng = random.Random(0)
    elems = [m(*(rng.randint(0, 3) for _ in range(4))) for _ in range(12)]
    for a in elems:
        assert lcm_factored(a, a) == a
        assert divides(a, a)
    for a in elems:
        for b in elems:
            assert lcm_factored(a, b) == lcm_factored(b, a)
            assert divides(a, lcm_factored(a, b))
            # gcd * lcm = product
            assert a.gcd(b).times(lcm_factored(a, b)) == a.times(b)
            if divides(a, b) and divides(b, a):
                assert a == b
            for c in elems:
                assert lcm_factored(a, lcm_factored(b, c)) == lcm_factored(lcm_factored(a, b), c)
                if divides(a, b) and divides(b, c):
                    assert divides(a, c)
            # lcm is the least common multiple: it divides every common multiple
            l = lcm_factored(a, b)
            common = l.times(m(1, 0, 0, 0))
            assert divides(l, common)


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


def test_radical_generators():
    assert radical_generators([m(2, 1, 0, 0)]) == (m(1, 1, 0, 0),)
    square_free = [sf(1, 2), sf(3)]
    assert set(radical_generators(square_free)) == set(minimal_basis(square_free))
    assert radical_generators([m(3, 0, 0, 0), m(1, 2, 0, 0)]) == (sf(1),)
    once = radical_generators([m(0, 2, 3, 1)])
    assert radical_generators(once) == once
    assert all(g.is_squarefree for g in once)


def test_membership_fixtures():
    I = MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])
    assert membership(sf(1, 2, 4), I)
    assert not membership(sf(3), I)
    assert not membership(FactoredElement.unit(X4), I)
    unit_ideal = MonomialIdeal.from_generators(X4, [FactoredElement.unit(X4)])
    assert membership(FactoredElement.unit(X4), unit_ideal)
    zero = MonomialIdeal.zero(X4)
    assert not membership(sf(1), zero)


def test_ideal_canonicalization_and_equality():
    a = MonomialIdeal.from_generators(X4, [sf(2, 4), sf(1, 4), sf(2, 4)])
    b = MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])
    assert a == b
    assert str(b) == "<x1*x4, x2*x4>"


def test_minimal_primes_fixtures():
    table3 = AtomTable.for_variables(3)
    I = MonomialIdeal.from_generators(table3, [FactoredElement.from_support(table3, (2, 3))])
    assert minimal_primes_squarefree(I) == {LinearPrime.of((2,)), LinearPrime.of((3,))}

    assert minimal_primes_squarefree(MonomialIdeal.zero(X4)) == {LinearPrime.of(())}

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
                in_all = all(prime_contains(p, probe) for p in primes)
                assert in_all == membership(probe, I)
        # agreement with the exhaustive transversal oracle
        supports = [g.support_mask() for g in I.minimal_basis().generators]
        want = {
            LinearPrime.of(tuple(i + 1 for i in range(n) if w >> i & 1))
            for w in minimal_transversals_exhaustive(supports, n)
        }
        assert primes == want


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


def test_ideal_in_prime_is_support_hitting():
    I = MonomialIdeal.from_generators(X4, [sf(1, 4), sf(2, 4)])
    assert ideal_in_prime(I, LinearPrime.of((4,)))
    assert ideal_in_prime(I, LinearPrime.of((1, 2)))
    assert not ideal_in_prime(I, LinearPrime.of((1,)))
    assert ideal_in_prime(MonomialIdeal.zero(X4), LinearPrime.of(()))


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
    for bad in [(0,), (1, 0), (-2,), (1.0,), ("1",), (2, 2), (1, 3, 1)]:
        with pytest.raises(ValueError):
            LinearPrime.of(bad)
