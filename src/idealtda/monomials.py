"""Exact arithmetic on atom-factored ring elements and monomial ideals.

Elements of the ambient unique-factorization domain are stored in factored
form over a declared table of pairwise-coprime irreducible atoms (variable
names, named irreducible polynomials such as ``x1+x2``, or prime integers).
Lcm/gcd/divisibility then reduce to componentwise max/min/<= on exponent
vectors, and no polynomial factorization is ever needed.

Prime decomposition is implemented for square-free monomial ideals only:
the associated primes are the minimal transversals of the generator
supports, each encoded as a :class:`LinearPrime`.  A linear prime is a
vertex bitmask like a face: bit v-1 stands for x_v, and its variable
tuple is derived from the mask on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .complexes import _iter_bits, face_mask, mask_face
from .linalg import Polynomial

__all__ = [
    "AtomTable",
    "FactoredElement",
    "MonomialIdeal",
    "LinearPrime",
    "lcm_factored",
    "divides",
    "minimal_basis",
    "radical_generators",
    "membership",
    "minimal_primes_squarefree",
    "minimal_transversals",
    "minimal_transversals_exhaustive",
    "ideal_in_prime",
    "prime_contains",
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

    @classmethod
    def for_variables(cls, n: int, prefix: str = "x") -> "AtomTable":
        return cls(tuple(f"{prefix}{i}" for i in range(1, n + 1)))

    @property
    def expansion_map(self) -> dict[str, Polynomial]:
        return dict(self.expansions)

    @property
    def variables(self) -> tuple[str, ...]:
        expanded = {name for name, _ in self.expansions}
        return tuple(a for a in self.atoms if a not in expanded)

    @property
    def is_pure_variables(self) -> bool:
        return not self.expansions

    def index(self, atom: str) -> int:
        return self.atoms.index(atom)

    def atom_polynomials(self) -> list[Polynomial]:
        """Each atom as a Polynomial over the variable atoms."""
        variables = self.variables
        var_index = {a: i for i, a in enumerate(variables)}
        expansion = self.expansion_map
        out = []
        for a in self.atoms:
            if a in expansion:
                out.append(expansion[a])
            else:
                out.append(Polynomial.variable(len(variables), var_index[a]))
        return out


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
        if any(e < 0 for e in self.exps):
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
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "FactoredElement") -> "FactoredElement":
        self._check(other)
        return FactoredElement(self.table, tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other: "FactoredElement") -> "FactoredElement":
        self._check(other)
        return FactoredElement(self.table, tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def times(self, other: "FactoredElement") -> "FactoredElement":
        self._check(other)
        return FactoredElement(self.table, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def over(self, other: "FactoredElement") -> "FactoredElement":
        """Exact quotient self/other; raises if other does not divide self."""
        self._check(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return FactoredElement(self.table, tuple(a - b for a, b in zip(self.exps, other.exps)))

    def squarefree_part(self) -> "FactoredElement":
        return FactoredElement(self.table, tuple(1 if e else 0 for e in self.exps))

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for a, e in zip(self.table.atoms, self.exps):
            name = a if "+" not in a and "-" not in a else f"({a})"
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


@dataclass(frozen=True)
class LinearPrime:
    """The linear prime ideal generated by the variables x_v whose bit v-1
    is set in ``mask``.

    The zero mask encodes the zero ideal, which is prime in a domain.
    """

    mask: int

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "LinearPrime":
        """The prime of distinct positive variable indices, in any order."""
        return cls(face_mask(vertices))

    @property
    def vars(self) -> tuple[int, ...]:
        return mask_face(self.mask)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.mask

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.mask.bit_count(), self.vars)

    def __str__(self) -> str:
        if self.is_zero_ideal:
            return "<0>"
        return "<" + ",".join(f"x{v}" for v in self.vars) + ">"


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

    @classmethod
    def zero(cls, table: AtomTable) -> "MonomialIdeal":
        return cls(table, ())

    @property
    def ambient_n(self) -> int:
        return len(self.table.atoms)

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

    def radical(self) -> "MonomialIdeal":
        return MonomialIdeal(self.table, radical_generators(self.generators))

    def contains(self, m: FactoredElement) -> bool:
        return membership(m, self)

    def __str__(self) -> str:
        if self.is_zero:
            return "<0>"
        return "<" + ", ".join(str(g) for g in self.generators) + ">"


def lcm_factored(a: FactoredElement, b: FactoredElement) -> FactoredElement:
    """Least common multiple: componentwise max of exponent vectors."""
    return a.lcm(b)


def divides(a: FactoredElement, b: FactoredElement) -> bool:
    """True iff a | b, i.e. exponents of a are componentwise <= those of b."""
    return a.divides(b)


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


def radical_generators(gens: Iterable[FactoredElement]) -> tuple[FactoredElement, ...]:
    """Generators of the radical: square-free parts, then a minimal basis."""
    return minimal_basis(g.squarefree_part() for g in gens)


def membership(m: FactoredElement, ideal: MonomialIdeal) -> bool:
    """Monomial membership: m lies in the ideal iff some generator divides m."""
    if m.table != ideal.table:
        raise ValueError("mismatched atom tables")
    return any(g.divides(m) for g in ideal.generators)


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

    Branch and bound: recurse on the first unhit support, branching over
    its elements; branches dominated by an already found transversal are
    pruned, and a final antichain filter removes non-minimal stragglers.
    """
    sets = sorted(set(supports), key=lambda m: m.bit_count())
    if any(s == 0 for s in sets):
        raise ValueError("empty support cannot be hit")
    found: list[int] = []

    def rec(chosen: int, remaining: tuple[int, ...]) -> None:
        for t in found:
            if t & chosen == t:
                return
        first = None
        for s in remaining:
            if not (s & chosen):
                first = s
                break
        if first is None:
            found.append(chosen)
            return
        rest = tuple(s for s in remaining if not (s & chosen))
        for bit in _iter_bits(first):
            rec(chosen | bit, rest)

    rec(0, tuple(sets))
    return _antichain_min(found)


def minimal_transversals_exhaustive(supports: Sequence[int], n: int) -> list[int]:
    """Brute-force oracle: scan all 2^n subsets, keep minimal transversals."""
    hits = [w for w in range(1 << n) if all(s & w for s in supports)]
    return _antichain_min(hits)


def minimal_primes_squarefree(ideal: MonomialIdeal) -> frozenset[LinearPrime]:
    """Associated primes of a proper square-free monomial ideal.

    These are the minimal linear primes over the ideal, computed as the
    minimal transversals of the minimal-basis generator supports; their
    intersection recovers the ideal.  The zero ideal yields the zero
    prime alone.
    """
    if not ideal.is_proper:
        raise ValueError("the unit ideal has no prime decomposition")
    if not ideal.is_squarefree:
        raise ValueError("ideal is not square-free; apply radical_generators first")
    if ideal.is_zero:
        return frozenset({LinearPrime(0)})
    supports = [g.support_mask() for g in minimal_basis(ideal.generators)]
    return frozenset(LinearPrime(w) for w in minimal_transversals(supports))


def prime_contains(prime: LinearPrime, m: FactoredElement) -> bool:
    """Monomial membership in a linear prime: some supporting atom is in W."""
    return bool(prime.mask & m.support_mask())


def ideal_in_prime(ideal: MonomialIdeal, prime: LinearPrime) -> bool:
    """Containment I <= P_W: every generator's support must meet W."""
    return all(prime_contains(prime, g) for g in ideal.generators)
