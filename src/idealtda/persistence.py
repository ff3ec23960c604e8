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
  no superface; zero-length bars are dropped.  The death is the birth of
  sigma's first cofacet in the filtration's checked order ``f.order``,
  along which births never decrease.  Before the first birth the complex
  is empty and the prime P_[n] is associated.
* ``EDGE``: the primes are the complements of the maximal independent
  sets of the graph.  Edges are inserted in (birth, mask) order, as
  ``f.order`` lists them; an insertion of {i,j} kills exactly the live
  sets containing both ends, and the only sets it creates are I - {i}
  and I - {j} for a killed I, each kept when it is still maximal
  (Tsukiyama et al. 1977).  Only the neighbours of the removed end
  outside I can lose their last neighbour in the set, so the maximality
  test reads just those.

Every prime therefore carries exactly one interval.  Both closed forms
emit bars as ``(mask, birth, death)`` tuples, and a :class:`Barcode` of
their kind holds them, sorted once by :func:`_sorted_bars`.  As a check,
the masks whose bar never ends are compared at assembly time with the
decomposition of the final complex by :func:`step_associated_primes`,
the per-step route; its runs, made into bars by
:func:`idealtda.verify.intervals_from_runs` and sorted by the same
function, are the closed forms' oracle.

Classical homology has one engine.  :func:`ph_barcode` pairs simplices by
column reduction over a prime field or Q, in the same order ``f.order``
(over GF(2) with bitmask columns, top dimension first, with clearing, each
column built only when the reduction adds it or its first pivot is
taken), into ``(dim, birth, death)`` bars, a :class:`Barcode` of kind
``PH``: the prime bars' shape keyed by dimension.  :func:`betti_profile`
reads b_k(t) off them as the number of k-bars alive at t
(Zomorodian-Carlsson 2005);
reduced mode adds b_{-1} = 1 while the complex is empty and subtracts 1
from b_0 after.  The witnesses read the bars too: a prime enters or leaves
the SR decomposition at step i exactly when its SR bar starts or ends
there (:func:`witness_between_steps`), and b_k jumps where the count of
k-bars alive changes (:func:`jump_witness`); their per-step oracle is in
:mod:`idealtda.verify`.  The exact rank route,
:func:`classical_boundary_ranks` and :func:`classical_betti` (with
:func:`betti_numbers` as their list view), computes the Betti numbers of
one complex from dense boundary ranks: each matrix is filled from the
columns of :func:`idealtda.complexes.boundary_masks` (the augmentation
row at k = 0, when reduced) and ranked by the one dense kernel of
:mod:`idealtda.linalg` (lazy Bareiss on ints over Q, on normal forms over
GF(p)); it serves the labelled-complex checks and is the oracle for the
profile.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

from .complexes import FaceOrder, Filtration, LinearPrime, SimplicialComplex, boundary_masks
from .ideals import minimal_vertex_covers, one_skeleton, sr_associated_primes
from .linalg import GF2, QQ, persistence_reduce, rank_dense

__all__ = [
    "MAX_EDGE_BARS",
    "Barcode",
    "BettiProfile",
    "CoverageReport",
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
KIND_PH = "PH"

# Largest number of EDGE bars.  SR and PH bars are bounded by the faces
# (complexes.MAX_FACES), but a graph on n vertices can have about 3^(n/3)
# maximal independent sets, one EDGE bar each.  The enumeration counts the
# bars as they grow and refuses past this budget: 20 disjoint edges would
# give 2^20 bars, and a 463 MB barcodes.json.
MAX_EDGE_BARS = 1 << 18

# one bar: its key (a prime's vertex mask or a PH dimension), birth and death (None is +infinity)
Bar = tuple[int, float, float | None]


class Barcode(NamedTuple):
    """The bars of one kind, each ``(key, birth, death)`` with death None
    for +infinity.  A prime bar (kinds ``SR`` and ``EDGE``) is keyed by the
    prime's vertex mask and sorted by :func:`_sorted_bars`; a PH bar (kind
    ``PH``) is keyed by its dimension and sorted by (dim, birth, finite
    deaths first, death)."""

    kind: str
    bars: tuple[Bar, ...]

    def count_at(self, t: float, k: int) -> int:
        """Number of bars keyed k alive at t: b_k(t) for a PH barcode."""
        return sum(1 for key, birth, death in self.bars if key == k and birth <= t and (death is None or t < death))

    def finite_endpoints(self) -> list[float]:
        out = []
        for _, birth, death in self.bars:
            out.append(birth)
            if death is not None:
                out.append(death)
        return out


class BettiProfile(NamedTuple):
    """Per-step Betti vectors b_0..b_maxdim (b_{-1} first when reduced)."""

    params: tuple[float, ...]
    betti: tuple[tuple[int, ...], ...]
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


class CoverageReport(NamedTuple):
    """Which half-distances appear among the barcode endpoints."""

    pairs_checked: int
    violations: tuple[tuple[int, int, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def step_associated_primes(f: Filtration, kind: str = KIND_SR) -> list[frozenset[LinearPrime]]:
    """Associated primes of the face (SR) or edge (EDGE) ideal at every step."""
    if kind == KIND_SR:
        return [sr_associated_primes(K) for _, K in f.steps]
    if kind == KIND_EDGE:
        return [minimal_vertex_covers(one_skeleton(K)) for _, K in f.steps]
    raise ValueError(f"unknown barcode kind {kind!r}")


# _REVERSED_BYTE[b] is the byte b with its 8 bits in reverse order
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _sorted_bars(bars: list[Bar]) -> tuple[Bar, ...]:
    """Bars in (birth, finite deaths first, death, prime) order, primes as
    ``LinearPrime.sort_key`` orders them: by size, then by vertex tuple.
    Two sets of one size compare as tuples by the lowest vertex where they
    differ, and the set holding it comes first, so with the masks
    bit-reversed at one width the higher reversal comes first.  The width
    is whole bytes, reversed bytewise by a table and read back in the
    other byte order."""
    width = (max((m.bit_length() for m, _, _ in bars), default=0) + 7) // 8
    bars.sort(
        key=lambda bar: (
            bar[1],
            bar[2] is None,
            bar[2],
            bar[0].bit_count(),
            -int.from_bytes(bar[0].to_bytes(width, "big").translate(_REVERSED_BYTE), "little"),
        )
    )
    return tuple(bars)


def _sr_intervals(f: Filtration) -> list[Bar]:
    """Bars [b(sigma), min_v b(sigma + v)) of the primes P_{[n] minus sigma}."""
    births, faces = f.birth_map, f.order.faces
    full = (1 << f.n) - 1
    out = []
    for m, j in zip(faces, f.order.first_cofacet):
        b = births[m]
        d = None if j is None else births[faces[j]]
        if d is None or b < d:
            out.append((full & ~m, b, d))
    first = births[faces[0]] if faces else None
    if first is None or first > f.params[0]:
        # the empty complex has the single prime P_[n]
        out.append((full, f.params[0], first))
    return out


def _edge_intervals(f: Filtration) -> list[Bar]:
    """Bars of the complements of the maximal independent sets, one pass
    over the edge insertions; ValueError when the finished and the live
    bars together exceed MAX_EDGE_BARS.

    The edges are read off ``f.order``, which lists them in (birth, mask)
    order; a raw filtration walks its order on first access, and the
    CLI's SR call has built it by then."""
    births = f.birth_map
    full = (1 << f.n) - 1
    adj = [0] * (f.n + 1)  # adj[v] is the neighbour mask of vertex v
    live = {full: f.params[0]}  # maximal independent set -> birth
    out = []
    faces, lows = f.order.faces, f.order.lows
    for j in lows[1][0] if 1 in lows else ():
        e = faces[j]
        t = births[e]
        lo = e & -e
        hi = e ^ lo
        adj[lo.bit_length()] |= hi
        adj[hi.bit_length()] |= lo
        for I in [I for I in live if I & e == e]:
            b = live.pop(I)
            if b < t:
                out.append((full & ~I, b, t))
            # every vertex outside I has a neighbour in I, so I - {x} is
            # maximal unless a neighbour of x outside I has no other one
            for x in (lo, hi):
                J = I ^ x
                rest = adj[x.bit_length()] & ~I
                while rest:
                    u = rest & -rest
                    if not adj[u.bit_length()] & J:
                        break
                    rest ^= u
                else:
                    live[J] = t
        if len(out) + len(live) > MAX_EDGE_BARS:
            raise ValueError(
                f"the EDGE barcode has more than {MAX_EDGE_BARS} bars "
                f"(persistence.MAX_EDGE_BARS) by parameter {t!r}"
            )
    out.extend((full & ~I, b, None) for I, b in live.items())
    return out


def prime_barcode(f: Filtration, kind: str = KIND_SR) -> Barcode:
    """Persistent associated-prime barcode of a filtration.

    Each prime's interval spans the maximal run of consecutive critical
    steps at which it is associated; the zero-ideal prime is emitted like
    any other, as the bar of mask 0.  Kinds ``SR`` and ``EDGE`` use
    the closed forms of the module docstring.  Both raise ValueError
    when a face of ``f`` is born before one of its subfaces, and kind
    ``EDGE`` when it would have more than MAX_EDGE_BARS bars.
    """
    params = f.params
    if kind == KIND_SR:
        bars = _sr_intervals(f)
    elif kind == KIND_EDGE:
        bars = _edge_intervals(f)
    else:
        raise ValueError(f"unknown barcode kind {kind!r}")
    final = {p.mask for p in step_associated_primes(Filtration.single(f.final(), params[-1]), kind)[0]}
    endless = {m for m, _, d in bars if d is None}
    if endless != final:
        raise AssertionError(
            f"{kind} bars alive at the end {sorted(map(LinearPrime, endless), key=LinearPrime.sort_key)} "
            f"differ from the final decomposition {sorted(map(LinearPrime, final), key=LinearPrime.sort_key)}"
        )
    return Barcode(kind, _sorted_bars(bars))


def _boundary_dense(K: SimplicialComplex, k: int, field) -> list[list]:
    """Dense field matrix of the classical boundary in dimension k (the augmentation at k = 0)."""
    rows, cols, columns = boundary_masks(K, k)
    dense = [[field.zero] * len(cols) for _ in rows]
    for j, col in enumerate(columns):
        for i, s in col:
            dense[i][j] = field.norm(s)
    return dense


def betti_from_ranks(ncells: Mapping[int, int], ranks: Mapping[int, int]) -> dict[int, int]:
    """b_k = (number of k-cells) - rank d_k - rank d_{k+1} for every k in ncells."""
    return {k: count - ranks.get(k, 0) - ranks.get(k + 1, 0) for k, count in ncells.items()}


def classical_boundary_ranks(K: SimplicialComplex, field=QQ, reduced: bool = False) -> dict[int, int]:
    """Field ranks of the classical boundary matrices of a complex; the
    augmentation (k = 0) only when ``reduced``."""
    start = 0 if reduced else 1
    return {k: rank_dense(_boundary_dense(K, k, field), field) for k in range(start, K.max_dim + 1)}


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
    for k, birth, death in ph_barcode(f, field, top).bars:
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
    return BettiProfile(params, tuple(tuple(row) for row in rows), reduced)


def ph_barcode(f: Filtration, field=GF2, max_dim: int | None = None) -> Barcode:
    """Persistence barcode by column reduction over a prime field or Q.

    :func:`persistence_reduce` pairs the filtration's checked order
    ``f.order``, or, when max_dim drops faces, the order of the faces up to
    dimension max_dim + 1.  Zero-length bars are dropped, unpaired creators
    yield infinite bars.
    """
    births = f.birth_map
    top = max(f.final().max_dim, 0) if max_dim is None else max_dim
    order = f.order
    # the k-pairs come from the (k+1)-columns: bars up to top need faces up to top+1
    if top + 2 <= f.final().max_dim:
        order = FaceOrder([m for m in order.faces if m.bit_count() <= top + 2])
    pairs, unpaired = persistence_reduce(order, field)
    faces = order.faces
    bars = []
    for i, j in pairs:
        birth, death = births[faces[i]], births[faces[j]]
        if birth != death:
            bars.append((faces[i].bit_count() - 1, birth, death))
    for i in unpaired:
        dim = faces[i].bit_count() - 1
        if dim <= top:
            bars.append((dim, births[faces[i]], None))
    bars.sort(key=lambda bar: (bar[0], bar[1], bar[2] is None, bar[2] or 0.0))
    return Barcode(KIND_PH, tuple(bars))


def witness_between_steps(f: Filtration, i: int) -> LinearPrime | None:
    """A linear prime entering or leaving the associated set of the face
    ideal between steps i-1 and i, the first in (|W|, lex) order.

    Each prime is associated along one run of steps, its SR bar, so it
    changes at step i exactly when that bar starts or ends at
    ``f.params[i]``.  None means the two step complexes coincide: equal
    associated sets mean equal maximal faces, hence equal complexes and
    ideals.  The first call reads the witness of every step off the bars
    and keeps them with ``f``, so a scan of all steps builds the bars once.
    ValueError when a face of ``f`` is born before a subface.
    """
    if not 1 <= i < len(f.params):
        raise ValueError(f"step index {i} out of range")
    witnesses = f.__dict__.get("_sr_witnesses")
    if witnesses is None:
        witnesses = f.__dict__["_sr_witnesses"] = _witnesses_by_step(f)
    return witnesses[i]


def _witnesses_by_step(f: Filtration) -> list[LinearPrime | None]:
    """The witness at every step, from one pass over the SR bars: the
    first, in (|W|, lex) order, of the primes whose bar starts or ends at
    the step's parameter."""
    step = {t: i for i, t in enumerate(f.params)}
    changed: list[list[LinearPrime]] = [[] for _ in f.params]
    for m, b, d in _sr_intervals(f):
        changed[step[b]].append(LinearPrime(m))
        if d is not None:
            changed[step[d]].append(LinearPrime(m))
    return [min(primes, key=LinearPrime.sort_key, default=None) for primes in changed]


def jump_witness(f: Filtration, k0: int, t0: float, field=GF2) -> LinearPrime | None:
    """A linear prime whose indicator changes across t0 when b_k0 jumps there.

    t0 must lie strictly between the first and last critical parameters,
    and k0 must be a dimension of unreduced homology, so k0 >= 0.
    Returns None when the Betti number is continuous at t0; b_k0 on each
    side is the number of k0-bars of :func:`ph_barcode` alive there.
    """
    if k0 < 0:
        raise ValueError(f"k0={k0} is negative; jump_witness tracks b_0 and up")
    params = f.params
    if not (params[0] < t0 < params[-1]):
        raise ValueError(f"t0={t0} is not strictly between {params[0]} and {params[-1]}")
    hi = f.index_at(t0)
    if params[hi] != t0:
        return None
    ph = ph_barcode(f, field, k0)
    if ph.count_at(params[hi - 1], k0) == ph.count_at(t0, k0):
        return None
    return witness_between_steps(f, hi)


def coverage_report(
    dist: Sequence[Sequence[float]], barcode: Barcode, tol: float = 1e-12
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
