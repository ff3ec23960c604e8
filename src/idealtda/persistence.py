"""Persistence along a filtration: prime barcodes, Betti profiles, PH bars.

A prime barcode gives each linear prime associated to a step's ideal
(face ideal for kind ``SR``, edge ideal for kind ``EDGE``) the half-open
interval of parameters during which it stays associated.  The built-in
kinds read the filtration's birth map once, through two closed forms, and
build each prime straight from its vertex mask, the complement of a face
or of an independent set:

* ``SR``: the prime P_{[n] minus sigma} is associated exactly while sigma
  is a maximal face (Miller-Sturmfels, Thm 1.7), so every face sigma
  carries the bar [b(sigma), min_v b(sigma + v)), infinite when sigma has
  no superface; zero-length bars are dropped.  Before the first birth
  the complex is empty and the prime P_[n] is associated.
* ``EDGE``: the primes are the complements of the maximal independent
  sets of the graph.  Edges are inserted in (birth, mask) order; an
  insertion of {i,j} kills exactly the live sets containing both ends,
  and the only sets it creates are I - {i} and I - {j} for a killed I,
  each kept when it is still maximal (Tsukiyama et al. 1977).  Only the
  neighbours of the removed end outside I can lose their last neighbour
  in the set, so the maximality test reads just those.

Every prime therefore carries exactly one interval.  As a check, the
primes whose bar never ends are compared at assembly time with the
decomposition of the final complex.  The per-step route, one
decomposition per critical parameter (:func:`step_associated_primes`),
builds its step complexes from the birth map on demand; it stays as the
test oracle and computes barcodes for custom ``ass_fn`` families,
asserting there that no prime resurrects.

Classical homology has one engine.  :func:`ph_barcode` pairs simplices by
column reduction over a prime field or Q (over GF(2) with bitmask columns,
top dimension first, with clearing), and :func:`betti_profile` reads b_k(t)
off it as the number of k-bars alive at t (Zomorodian-Carlsson 2005);
reduced mode adds b_{-1} = 1 while the complex is empty and subtracts 1
from b_0 after.  The exact rank route,
:func:`classical_boundary_ranks` and :func:`classical_betti` (with
:func:`betti_numbers` as their list view), computes the Betti numbers of
one complex from dense boundary ranks; it serves the labelled-complex
checks and is the oracle for the profile.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import Filtration, SimplicialComplex, _iter_bits, boundary_entries
from .ideals import minimal_vertex_covers, one_skeleton, sr_associated_primes
from .linalg import GF2, QQ, persistence_reduce, rank_dense
from .monomials import LinearPrime

__all__ = [
    "PrimeInterval",
    "PrimeBarcode",
    "BettiProfile",
    "PHBarcode",
    "JumpWitness",
    "CoverageReport",
    "NoResurrectionError",
    "step_associated_primes",
    "prime_barcode",
    "betti_from_ranks",
    "classical_boundary_ranks",
    "classical_betti",
    "betti_numbers",
    "betti_profile",
    "ph_barcode",
    "jump_witness",
    "witness_between_steps",
    "coverage_report",
]

KIND_SR = "SR"
KIND_EDGE = "EDGE"


class NoResurrectionError(AssertionError):
    """A prime re-entered the associated set after leaving it."""


@dataclass(frozen=True)
class PrimeInterval:
    """Half-open lifespan [birth, death) of one associated prime."""

    prime: LinearPrime
    birth: float
    death: float | None  # None encodes +infinity
    kind: str

    @property
    def is_zero_ideal_epoch(self) -> bool:
        """Flags the P_0 intervals of full-simplex or edgeless epochs."""
        return self.prime.is_zero_ideal

    def alive_at(self, t: float) -> bool:
        return self.birth <= t and (self.death is None or t < self.death)


@dataclass(frozen=True)
class PrimeBarcode:
    kind: str
    intervals: tuple[PrimeInterval, ...]
    params: tuple[float, ...]

    def primes(self) -> frozenset[LinearPrime]:
        return frozenset(iv.prime for iv in self.intervals)

    def finite_endpoints(self) -> list[float]:
        out = []
        for iv in self.intervals:
            out.append(iv.birth)
            if iv.death is not None:
                out.append(iv.death)
        return out


@dataclass(frozen=True)
class BettiProfile:
    """Per-step Betti vectors b_0..b_maxdim (b_{-1} first when reduced)."""

    params: tuple[float, ...]
    betti: tuple[tuple[int, ...], ...]
    field_name: str
    reduced: bool

    def at(self, t: float, k: int) -> int:
        idx = bisect_right(self.params, t) - 1
        if idx < 0:
            raise ValueError(f"parameter {t} precedes the filtration")
        row = self.betti[idx]
        pos = k + 1 if self.reduced else k
        if pos < 0:
            raise ValueError(f"dimension {k} not tracked")
        return row[pos] if pos < len(row) else 0


@dataclass(frozen=True)
class PHBarcode:
    """Classical persistence bars per dimension; death None is +infinity."""

    bars: tuple[tuple[int, tuple[tuple[float, float | None], ...]], ...]
    field_name: str

    @cached_property
    def by_dim(self) -> dict[int, tuple[tuple[float, float | None], ...]]:
        return dict(self.bars)

    def count_at(self, t: float, k: int) -> int:
        return sum(
            1
            for birth, death in self.by_dim.get(k, ())
            if birth <= t and (death is None or t < death)
        )

    def finite_endpoints(self) -> list[float]:
        out = []
        for _, bars in self.bars:
            for birth, death in bars:
                out.append(birth)
                if death is not None:
                    out.append(death)
        return out


@dataclass(frozen=True)
class JumpWitness:
    prime: LinearPrime
    level: str  # "associated": the prime enters or leaves the associated set


@dataclass(frozen=True)
class CoverageReport:
    """Which half-distances appear among the barcode endpoints."""

    pairs_checked: int
    violations: tuple[tuple[int, int, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def step_associated_primes(
    f: Filtration,
    kind: str = KIND_SR,
    ass_fn: Callable[[SimplicialComplex], Iterable[LinearPrime]] | None = None,
) -> list[frozenset[LinearPrime]]:
    """Associated prime set at every filtration step.

    ``kind`` selects the face-ideal or edge-ideal decomposition; a custom
    ``ass_fn`` may supply any other monotone square-free ideal family.
    """
    if ass_fn is not None:
        return [frozenset(ass_fn(K)) for _, K in f.steps]
    if kind == KIND_SR:
        return [sr_associated_primes(K) for _, K in f.steps]
    if kind == KIND_EDGE:
        return [minimal_vertex_covers(one_skeleton(K)) for _, K in f.steps]
    raise ValueError(f"unknown barcode kind {kind!r}")


def _intervals_from_runs(
    ass_per_step: Sequence[frozenset[LinearPrime]],
    params: Sequence[float],
    kind: str,
) -> tuple[PrimeInterval, ...]:
    present: dict[LinearPrime, list[int]] = {}
    for i, ass in enumerate(ass_per_step):
        for p in ass:
            present.setdefault(p, []).append(i)
    intervals = []
    for prime, idxs in present.items():
        if idxs[-1] - idxs[0] + 1 != len(idxs):
            raise NoResurrectionError(
                f"prime {prime} resurrects in kind {kind}: steps {idxs}"
            )
        birth = params[idxs[0]]
        last = idxs[-1]
        death = None if last == len(params) - 1 else params[last + 1]
        intervals.append(PrimeInterval(prime, birth, death, kind))
    return _sorted_intervals(intervals)


def _sorted_intervals(intervals: list[PrimeInterval]) -> tuple[PrimeInterval, ...]:
    intervals.sort(
        key=lambda iv: (
            iv.birth,
            iv.death is None,
            iv.death if iv.death is not None else 0.0,
            iv.prime.sort_key(),
        )
    )
    return tuple(intervals)


def _sr_intervals(f: Filtration) -> list[PrimeInterval]:
    """Bars [b(sigma), min_v b(sigma + v)) of the primes P_{[n] minus sigma}."""
    births = f.birth_map
    full = (1 << f.n) - 1
    death: dict[int, float] = {}
    for m, t in births.items():
        for bit in _iter_bits(m):
            sub = m ^ bit
            if sub not in death or t < death[sub]:
                death[sub] = t
    out = []
    for m, b in births.items():
        d = death.get(m)
        if d is None or b < d:
            out.append(PrimeInterval(LinearPrime(full & ~m), b, d, KIND_SR))
    first = min(births.values(), default=None)
    if first is None or first > f.params[0]:
        # the empty complex has the single prime P_[n]
        out.append(PrimeInterval(LinearPrime(full), f.params[0], first, KIND_SR))
    return out


def _edge_intervals(f: Filtration) -> list[PrimeInterval]:
    """Bars of the complements of the maximal independent sets, one pass
    over the edge insertions."""
    births = f.birth_map
    full = (1 << f.n) - 1
    adj = [0] * (f.n + 1)  # adj[v] is the neighbour mask of vertex v
    live = {full: f.params[0]}  # maximal independent set -> birth
    out = []
    edges = sorted((t, m) for m, t in births.items() if m.bit_count() == 2)
    for t, e in edges:
        lo = e & -e
        hi = e ^ lo
        adj[lo.bit_length()] |= hi
        adj[hi.bit_length()] |= lo
        for I in [I for I in live if I & e == e]:
            b = live.pop(I)
            if b < t:
                out.append(PrimeInterval(LinearPrime(full & ~I), b, t, KIND_EDGE))
            # every vertex outside I has a neighbour in I, so I - {x} is
            # maximal unless a neighbour of x outside I has no other one
            for x in (lo, hi):
                J = I ^ x
                if all(adj[u.bit_length()] & J for u in _iter_bits(adj[x.bit_length()] & ~I)):
                    live[J] = t
    for I, b in live.items():
        out.append(PrimeInterval(LinearPrime(full & ~I), b, None, KIND_EDGE))
    return out


def prime_barcode(
    f: Filtration,
    kind: str = KIND_SR,
    ass_fn: Callable[[SimplicialComplex], Iterable[LinearPrime]] | None = None,
) -> PrimeBarcode:
    """Persistent associated-prime barcode of a filtration.

    Each prime's interval spans the maximal run of consecutive critical
    steps at which it is associated; the zero-ideal prime is emitted like
    any other and flagged on the interval.  Kinds ``SR`` and ``EDGE`` use
    the closed forms of the module docstring; a custom ``ass_fn`` is
    decomposed step by step.
    """
    params = f.params
    if ass_fn is not None:
        ass_per_step = step_associated_primes(f, kind, ass_fn)
        return PrimeBarcode("CUSTOM", _intervals_from_runs(ass_per_step, params, "CUSTOM"), params)
    if kind == KIND_SR:
        intervals = _sr_intervals(f)
    elif kind == KIND_EDGE:
        intervals = _edge_intervals(f)
    else:
        raise ValueError(f"unknown barcode kind {kind!r}")
    final = step_associated_primes(Filtration.single(f.final(), params[-1]), kind)[0]
    endless = {iv.prime for iv in intervals if iv.death is None}
    if endless != final:
        raise AssertionError(
            f"{kind} bars alive at the end {sorted(endless, key=LinearPrime.sort_key)} "
            f"differ from the final decomposition {sorted(final, key=LinearPrime.sort_key)}"
        )
    return PrimeBarcode(kind, _sorted_intervals(intervals), params)


def _boundary_dense(K: SimplicialComplex, k: int, field, reduced: bool) -> list[list]:
    """Dense field matrix of the classical boundary map in dimension k."""
    rows, cols, entries = boundary_entries(K, k, reduced=reduced)
    dense = [[field.zero] * len(cols) for _ in rows]
    for (i, j), s in entries.items():
        dense[i][j] = field.from_int(s)
    return dense


def betti_from_ranks(ncells: Mapping[int, int], ranks: Mapping[int, int]) -> dict[int, int]:
    """b_k = (number of k-cells) - rank d_k - rank d_{k+1} for every k in ncells."""
    return {k: count - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, count in ncells.items()}


def classical_boundary_ranks(K: SimplicialComplex, field=QQ, reduced: bool = False) -> dict[int, int]:
    """Field ranks of the classical boundary matrices of a complex."""
    start = 0 if reduced else 1
    return {
        k: rank_dense(_boundary_dense(K, k, field, reduced), field)
        for k in range(start, K.max_dim + 1)
    }


def classical_betti(K: SimplicialComplex, field=QQ, reduced: bool = False) -> dict[int, int]:
    """Betti numbers of a complex as a dimension-indexed dict.

    The exact rank route; it is the oracle for the PH-derived profiles.
    """
    ncells = {-1: 1} if reduced else {}  # the empty face spans degree -1
    ncells.update((k, len(K.masks_of_dim(k))) for k in range(K.max_dim + 1))
    return betti_from_ranks(ncells, classical_boundary_ranks(K, field, reduced))


def betti_numbers(
    K: SimplicialComplex, field=GF2, reduced: bool = False, top: int | None = None
) -> list[int]:
    """Betti numbers b_0..b_top of one complex (b_{-1} prepended if reduced)."""
    if top is None:
        top = max(K.max_dim, 0)
    # b_0..b_top depend only on the (top+1)-skeleton
    skeleton = SimplicialComplex(K.n, frozenset(m for m in K.face_masks if m.bit_count() <= top + 2))
    betti = classical_betti(skeleton, field, reduced)
    return [betti.get(k, 0) for k in range(-1 if reduced else 0, top + 1)]


def betti_profile(
    f: Filtration, field=GF2, reduced: bool = False, top: int | None = None
) -> BettiProfile:
    """Betti vectors at every critical parameter: b_k(t) is the number of
    k-bars of :func:`ph_barcode` alive at t."""
    if top is None:
        top = max(f.final().max_dim, 0)
    params = f.params
    index = {t: i for i, t in enumerate(params)}
    # delta[k][i]: k-bars born minus k-bars dying at step i
    delta = [[0] * len(params) for _ in range(top + 1)]
    for k, bars in ph_barcode(f, field, top).bars:
        for birth, death in bars:
            delta[k][index[birth]] += 1
            if death is not None:
                delta[k][index[death]] -= 1
    alive = [list(accumulate(d)) for d in delta]
    rows = [[a[i] for a in alive] for i in range(len(params))]
    if reduced:
        first = min(f.birth_map.values(), default=None)
        for t, row in zip(params, rows):
            nonempty = first is not None and first <= t
            if row:  # empty when top < 0
                row[0] -= nonempty
            row.insert(0, 1 - nonempty)
    return BettiProfile(params, tuple(tuple(row) for row in rows), field.name, reduced)


def ph_barcode(f: Filtration, field=GF2, max_dim: int | None = None) -> PHBarcode:
    """Persistence barcode by column reduction over a prime field or Q.

    Simplices are ordered by (birth, dimension, colex) and paired by
    :func:`persistence_reduce`; only faces up to dimension max_dim + 1
    enter it.  Zero-length bars are dropped, unpaired creators yield
    infinite bars.
    """
    births = f.birth_map
    top = max(f.final().max_dim, 0) if max_dim is None else max_dim
    # the k-pairs come from the (k+1)-columns: bars up to top need faces up to top+1
    faces = [m for m in births if m.bit_count() <= top + 2]
    order = sorted(faces, key=lambda m: (births[m], m.bit_count(), m))
    pairs, unpaired = persistence_reduce(order, field)
    bars: dict[int, list[tuple[float, float | None]]] = {}
    for i, j in pairs:
        dim = order[i].bit_count() - 1
        if dim > top:
            continue
        birth, death = births[order[i]], births[order[j]]
        if birth == death:
            continue
        bars.setdefault(dim, []).append((birth, death))
    for i in unpaired:
        dim = order[i].bit_count() - 1
        if dim > top:
            continue
        bars.setdefault(dim, []).append((births[order[i]], None))
    packed = tuple(
        (dim, tuple(sorted(bars[dim], key=lambda bd: (bd[0], bd[1] is None, bd[1] or 0.0))))
        for dim in sorted(bars)
    )
    return PHBarcode(packed, field.name)


def witness_between_steps(f: Filtration, i: int) -> JumpWitness | None:
    """A linear prime entering or leaving the associated set of the face
    ideal between steps i-1 and i, the first in (|W|, lex) order.

    None means the two step complexes coincide: equal associated sets
    mean equal maximal faces, hence equal complexes and ideals, so no
    prime indicator of any kind changes.
    """
    if not 1 <= i < len(f.params):
        raise ValueError(f"step index {i} out of range")
    K_lo, K_hi = f.complex_at(f.params[i - 1]), f.complex_at(f.params[i])
    ass_lo, ass_hi = sr_associated_primes(K_lo), sr_associated_primes(K_hi)
    changed = sorted(ass_lo ^ ass_hi, key=LinearPrime.sort_key)
    if changed:
        return JumpWitness(changed[0], "associated")
    return None


def jump_witness(f: Filtration, k0: int, t0: float, field=GF2) -> JumpWitness | None:
    """A linear prime whose indicator changes across t0 when b_k0 jumps there.

    t0 must lie strictly between the first and last critical parameters.
    Returns None when the Betti number is continuous at t0.
    """
    params = f.params
    if not (params[0] < t0 < params[-1]):
        raise ValueError(f"t0={t0} is not strictly between {params[0]} and {params[-1]}")
    hi = f.index_at(t0)
    lo = hi - 1 if params[hi] == t0 else hi
    if lo == hi:
        return None
    K_lo, K_hi = f.complex_at(params[lo]), f.complex_at(params[hi])
    top = max(k0, 0)
    b_lo = betti_numbers(K_lo, field, top=top)
    b_hi = betti_numbers(K_hi, field, top=top)
    if b_lo[k0] == b_hi[k0]:
        return None
    return witness_between_steps(f, hi)


def coverage_report(
    dist: Sequence[Sequence[float]], barcode: PrimeBarcode, tol: float = 1e-12
) -> CoverageReport:
    """Check every half-distance h_ij/2 appears among barcode endpoints.

    A target is covered when some endpoint e has abs(e - target) <= tol.
    Float subtraction is monotone, so the smallest abs(e - target) is at
    one of the two sorted endpoints around the target's bisection point.
    """
    endpoints = sorted(barcode.finite_endpoints())
    violations = []
    n = len(dist)
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            target = dist[i][j] / 2.0
            k = bisect_left(endpoints, target)
            if not any(abs(e - target) <= tol for e in endpoints[max(k - 1, 0) : k + 1]):
                violations.append((i + 1, j + 1, target))
    return CoverageReport(pairs, tuple(violations))
