"""Exact arithmetic on atom-factored ring elements and monomial ideals.

Elements of the ambient unique-factorization domain are stored in factored
form over a declared table of pairwise-coprime irreducible atoms (variable
names, named irreducible polynomials such as ``x1+x2``, or prime integers).
Lcm, divisibility and exact quotients then reduce to componentwise max,
<= and - on exponent vectors, and no polynomial factorization is ever
needed.

Prime decomposition is implemented for square-free monomial ideals only:
the associated primes are the minimal transversals of the generator
supports, each encoded as a :class:`LinearPrime`.  A linear prime is a
vertex bitmask like a face: bit v-1 stands for x_v, and its variable
tuple is derived from the mask on demand.  So it is defined next to the
faces, in :mod:`idealtda.complexes`, and re-exported here: the barcode
pipeline reads linear primes without loading the ideal algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import le, sub
from typing import Iterable, Sequence

from .complexes import LinearPrime, _iter_bits
from .linalg import Polynomial, power_product

__all__ = [
    "AtomTable",
    "FactoredElement",
    "MonomialIdeal",
    "LinearPrime",
    "minimal_basis",
    "minimal_primes_squarefree",
    "minimal_transversals",
]


@dataclass(frozen=True)
class AtomTable:
    """Ordered table of symbolic irreducible atoms.

    Atoms without an expansion are independent variables of the ambient
    polynomial ring.  Composite atoms (irreducible polynomials, integer
    primes) carry an expansion: a Polynomial over the variable atoms, in
    table order.
    """

    atoms: tuple[str, ...]
    expansions: tuple[tuple[str, Polynomial], ...] = field(default=())

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be pairwise distinct")
        names = set(self.atoms)
        for name, poly in self.expansions:
            if name not in names:
                raise ValueError(f"expansion given for unknown atom {name!r}")
            if poly.nvars != len(self.variables):
                raise ValueError(f"expansion of {name!r} has wrong variable arity")
            if not poly:
                raise ValueError(f"atom {name!r} expands to the zero polynomial, which is not irreducible")

    @classmethod
    def for_variables(cls, n: int, prefix: str = "x") -> "AtomTable":
        return cls(tuple(f"{prefix}{i}" for i in range(1, n + 1)))

    @cached_property
    def variables(self) -> tuple[str, ...]:
        expanded = {name for name, _ in self.expansions}
        return tuple(a for a in self.atoms if a not in expanded)

    @property
    def is_pure_variables(self) -> bool:
        return not self.expansions

    def index(self, atom: str) -> int:
        return self.atoms.index(atom)


@dataclass(frozen=True)
class FactoredElement:
    """Nonzero UFD element as an exponent vector over an atom table.

    The unit 1 is the all-zero vector; zero is not representable.
    """

    table: AtomTable
    exps: tuple[int, ...]

    def __post_init__(self):
        if len(self.exps) != len(self.table.atoms):
            raise ValueError("exponent vector length does not match atom table")
        if min(self.exps, default=0) < 0:
            raise ValueError("exponents must be nonnegative")

    @classmethod
    def unit(cls, table: AtomTable) -> "FactoredElement":
        return cls(table, (0,) * len(table.atoms))

    @classmethod
    def from_exponents(cls, table: AtomTable, exps: Sequence[int]) -> "FactoredElement":
        return cls(table, tuple(exps))

    @classmethod
    def from_support(cls, table: AtomTable, indices: Iterable[int]) -> "FactoredElement":
        """Square-free product of the atoms at the given 1-based indices."""
        exps = [0] * len(table.atoms)
        for i in indices:
            exps[i - 1] = 1
        return cls(table, tuple(exps))

    def _check(self, other: "FactoredElement") -> None:
        if self.table != other.table:
            raise ValueError("mismatched atom tables")

    @property
    def is_unit(self) -> bool:
        return not any(self.exps)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def support(self) -> tuple[int, ...]:
        """1-based indices of atoms with positive exponent."""
        return tuple(i + 1 for i, e in enumerate(self.exps) if e)

    def support_mask(self) -> int:
        mask = 0
        for i, e in enumerate(self.exps):
            if e:
                mask |= 1 << i
        return mask

    def total_degree(self) -> int:
        return sum(self.exps)

    def divides(self, other: "FactoredElement") -> bool:
        self._check(other)
        return all(map(le, self.exps, other.exps))

    def lcm(self, other: "FactoredElement") -> "FactoredElement":
        self._check(other)
        return FactoredElement(self.table, tuple(map(max, self.exps, other.exps)))

    def over(self, other: "FactoredElement") -> "FactoredElement":
        """Exact quotient self/other; raises if other does not divide self."""
        self._check(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return FactoredElement(self.table, tuple(map(sub, self.exps, other.exps)))

    def __str__(self) -> str:
        return power_product(self.table.atoms, self.exps) or "1"


def _gen_key(g: FactoredElement) -> tuple:
    return (g.total_degree(), g.support(), g.exps)


def _canonical_gens(gens: Iterable[FactoredElement]) -> tuple[FactoredElement, ...]:
    uniq = {g.exps: g for g in gens}
    return tuple(sorted(uniq.values(), key=_gen_key))


@dataclass(frozen=True)
class MonomialIdeal:
    """Finitely generated monomial ideal over the variable atoms.

    Generators are canonicalized (sorted, deduplicated) so that structural
    equality after :meth:`minimal_basis` is ideal equality.  No generators
    means the zero ideal.
    """

    table: AtomTable
    generators: tuple[FactoredElement, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.table != self.table:
                raise ValueError("generator lives over a different atom table")
        object.__setattr__(self, "generators", _canonical_gens(self.generators))

    @classmethod
    def from_generators(cls, table: AtomTable, gens: Iterable[FactoredElement]) -> "MonomialIdeal":
        return cls(table, tuple(gens))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_proper(self) -> bool:
        return not any(g.is_unit for g in self.generators)

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.generators)

    def minimal_basis(self) -> "MonomialIdeal":
        return MonomialIdeal(self.table, minimal_basis(self.generators))

    def __str__(self) -> str:
        if self.is_zero:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


def minimal_basis(gens: Iterable[FactoredElement]) -> tuple[FactoredElement, ...]:
    """Divisibility antichain generating the same monomial ideal.

    Unique for monomial ideals; computed by keeping, in order of
    increasing total degree, only elements not divisible by an already
    kept element.
    """
    uniq = _canonical_gens(gens)
    kept: list[FactoredElement] = []
    for g in uniq:  # already sorted by increasing total degree
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return tuple(kept)


def _antichain_min(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal elements of a set of bitmasks."""
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def minimal_transversals(supports: Sequence[int]) -> list[int]:
    """Inclusion-minimal hitting sets of a family of nonempty bitmasks.

    Branch and bound, depth-first on an explicit stack, so the depth is
    not bounded by the recursion limit: branch over the elements of the
    first unhit support, lowest first; branches dominated by an already
    found transversal are pruned, and a final antichain filter removes
    non-minimal stragglers.
    """
    sets = sorted(set(supports), key=lambda m: m.bit_count())
    if any(s == 0 for s in sets):
        raise ValueError("empty support cannot be hit")
    found: list[int] = []
    stack = [(0, tuple(sets))]
    while stack:
        chosen, remaining = stack.pop()
        for t in found:
            if t & chosen == t:
                break
        else:
            rest = tuple(s for s in remaining if not s & chosen)
            if rest:
                stack.extend([(chosen | bit, rest) for bit in _iter_bits(rest[0])][::-1])
            else:
                found.append(chosen)
    return _antichain_min(found)


def minimal_primes_squarefree(ideal: MonomialIdeal) -> frozenset[LinearPrime]:
    """Associated primes of a proper square-free monomial ideal.

    These are the minimal linear primes over the ideal, computed as the
    minimal transversals of the generator supports; their intersection
    recovers the ideal.  Square-free generators divide each other exactly
    when their supports nest, so the minimal basis is the inclusion-minimal
    support masks.  The zero ideal yields the zero prime alone.
    """
    if not ideal.is_proper:
        raise ValueError("the unit ideal has no prime decomposition")
    if not ideal.is_squarefree:
        raise ValueError("ideal is not square-free")
    if ideal.is_zero:
        return frozenset({LinearPrime(0)})
    supports = _antichain_min(g.support_mask() for g in ideal.generators)
    return frozenset(LinearPrime(w) for w in minimal_transversals(supports))
