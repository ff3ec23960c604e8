"""Simplicial complexes, graphs, clique complexes and Vietoris-Rips filtrations.

Vertices are integers 1..n.  Faces are stored internally as bitmasks
(bit v-1 set iff vertex v belongs to the face), which makes subset and
superset queries cheap; the public face representation is the strictly
increasing tuple of vertices.  A graph is stored the same way, as one
neighbour mask per vertex.

Canonical basis order: within each dimension, faces are sorted by their
bitmask value, i.e. colexicographically; a complex sorts its faces into
that per-dimension index once, on the first ``masks_of_dim`` call, which
no rips path makes.  All boundary matrices in the package use this
order; ``boundary_masks`` builds the classical one for every rank and
labelled boundary, and ``boundary_entries`` again on tuple faces, as the
checks' oracle.  A filtration's faces are read in its checked order, a
:class:`FaceOrder`, which both SR and PH read: ``vr_filtration`` builds
it by closed forms as its edges go in, and any other filtration by one
walk over the facets, which is also the oracle for the VR order.

Bits are walked lowest first.  ``_iter_bits`` is the one helper for it,
except in the loops that run once per face or facet: ``mask_face``, the
facet walks of :class:`FaceOrder` and ``boundary_masks``, the superface
probe of ``_maximal_masks`` (the SR final check), ``_cliques``,
``_edge_levels``, ``_tied_fields`` and, in ``persistence``, the EDGE
maximality test spell the walk inline (``bit = rest & -rest; rest ^=
bit``), which saves a generator frame per face.  Masks are nonnegative:
a negative int has infinitely many set bits, so ``mask_face``,
``SimplicialComplex`` and ``FaceOrder`` refuse one.

``_cliques`` enumerates the cliques of a graph for ``clique_complex``.
Vietoris-Rips complexes do not use it: ``vr_filtration`` inserts the
edges in filtration order and lists, at each edge, the cliques that it
closes (``_edge_levels``).  Both walks and the downward closure of input
faces stop with a ``ValueError`` beyond ``MAX_FACES`` faces.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Face",
    "face_mask",
    "mask_face",
    "SimplicialComplex",
    "Graph",
    "FaceOrder",
    "Filtration",
    "clique_complex",
    "full_subcomplex",
    "maximal_faces",
    "minimal_nonfaces",
    "vr_filtration",
    "validate_distance_matrix",
    "boundary_masks",
    "boundary_entries",
    "maximal_clique_masks",
    "MAX_FACES",
]

Face = tuple[int, ...]

# Largest number of faces a complex may have; time and memory grow about
# linearly in the faces.  `barcodes --format points-json --svg` on full VR of
# random 2-d clouds took 0.03 s / 20 MiB peak RSS at n=13 (8191 faces) and
# 0.26 s / 40 MiB at n=16 (65535), timed in process, best of three fresh
# interpreters (CPython 3.11, 2-vCPU VM).
MAX_FACES = 1 << 16


def _is_vertex(v) -> bool:
    """A vertex is a positive int; booleans are not vertices."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def face_mask(face: Iterable[int]) -> int:
    """Bitmask of a vertex collection; validates vertices are positive ints."""
    mask = 0
    for v in face:
        if not _is_vertex(v):
            raise ValueError(f"vertex {v!r} is not a positive integer")
        bit = 1 << (v - 1)
        if mask & bit:
            raise ValueError(f"duplicate vertex {v}")
        mask |= bit
    return mask


def mask_face(mask: int) -> Face:
    """Strictly increasing vertex tuple of a bitmask; ValueError on a
    negative mask, whose set bits never end."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length())
        mask ^= bit
    return tuple(out)


def _iter_bits(mask: int):
    """The set bits of a mask, lowest first, each as a one-bit mask; the
    one bit-iteration helper of the package outside the per-face loops
    named in the module docstring."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def _check_face_budget(count: int) -> None:
    if count > MAX_FACES:
        raise ValueError(f"the complex has more than {MAX_FACES} faces, the supported maximum")


def _downward_closure(masks: Iterable[int]) -> frozenset[int]:
    closed: set[int] = set()
    stack = [m for m in masks if m]
    while stack:
        m = stack.pop()
        if m in closed:
            continue
        closed.add(m)
        _check_face_budget(len(closed))
        if m.bit_count() > 1:
            for bit in _iter_bits(m):
                sub = m ^ bit
                if sub not in closed:
                    stack.append(sub)
    return frozenset(closed)


@dataclass(frozen=True)
class SimplicialComplex:
    """Downward-closed family of nonempty faces over the vertex universe [n]."""

    n: int
    face_masks: frozenset[int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex universe size must be nonnegative")
        universe = (1 << self.n) - 1
        masks = self.face_masks
        if masks and (min(masks) < 1 or max(masks) > universe):  # find the culprit only when there is one
            for m in masks:
                if m == 0:
                    raise ValueError("the empty face is never stored in a complex")
                if m < 0:
                    raise ValueError(f"face mask {m} is negative")
                if m & ~universe:
                    raise ValueError(f"face {mask_face(m)} has vertices outside 1..{self.n}")

    @classmethod
    def from_faces(cls, n: int, faces: Iterable[Iterable[int]], close: bool = False) -> "SimplicialComplex":
        masks = {face_mask(f) for f in faces}
        masks.discard(0)
        if close:
            masks = _downward_closure(masks)
        complex_ = cls(n, frozenset(masks))
        if not close:
            complex_.validate_closed()
        return complex_

    @classmethod
    def simplex(cls, n: int, vertices: Iterable[int]) -> "SimplicialComplex":
        return cls.from_faces(n, [tuple(vertices)], close=True)

    def validate_closed(self) -> None:
        for m in self.face_masks:
            if m.bit_count() > 1:
                for bit in _iter_bits(m):
                    if (m ^ bit) not in self.face_masks:
                        raise ValueError(
                            f"not downward closed: {mask_face(m)} present, "
                            f"{mask_face(m ^ bit)} missing"
                        )

    @property
    def is_empty(self) -> bool:
        return not self.face_masks

    @cached_property
    def max_dim(self) -> int:
        return max((m.bit_count() for m in self.face_masks), default=0) - 1

    @cached_property
    def vertex_mask(self) -> int:
        mask = 0
        for m in self.face_masks:
            mask |= m
        return mask

    def vertices(self) -> Face:
        return mask_face(self.vertex_mask)

    def has_face(self, face: Iterable[int]) -> bool:
        return face_mask(face) in self.face_masks

    @cached_property
    def _colex(self) -> tuple[tuple[int, ...], ...]:
        """The k-faces of each dimension k in colex order, from one sort."""
        by_dim = [[] for _ in range(self.max_dim + 1)]
        for m in sorted(self.face_masks):
            by_dim[m.bit_count() - 1].append(m)
        return tuple(map(tuple, by_dim))

    def masks_of_dim(self, k: int) -> tuple[int, ...]:
        """The k-face masks in colex order, read from the cached index."""
        return self._colex[k] if 0 <= k <= self.max_dim else ()

    def faces_of_dim(self, k: int) -> list[Face]:
        return [mask_face(m) for m in self.masks_of_dim(k)]

    def faces(self) -> list[Face]:
        return [mask_face(m) for m in sorted(self.face_masks, key=lambda m: (m.bit_count(), m))]

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.face_masks <= other.face_masks

    def is_simplex_over(self, vertices: Iterable[int]) -> bool:
        w = face_mask(vertices)
        return self.face_masks == _downward_closure([w]) if w else self.is_empty

    def __len__(self) -> int:
        return len(self.face_masks)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, stored as neighbour masks
    like faces and primes: adjacency[v] has bit u-1 set iff {u, v} is an
    edge, and adjacency[0] is 0."""

    n: int
    adjacency: tuple[int, ...]

    def __post_init__(self):
        adj, n = self.adjacency, self.n
        if n < 0 or len(adj) != n + 1 or adj[0]:
            raise ValueError(f"a graph on 1..{n} needs n + 1 neighbour masks, the first 0")
        universe = (1 << n) - 1
        # Every set bit is a neighbour of one vertex, so if each vertex is a
        # neighbour of all its neighbours, or of none of its non-neighbours,
        # the masks are symmetric; walk the sparser of the two.
        dense = 2 * sum(m.bit_count() for m in adj) > n * (n - 1)
        for v in range(1, n + 1):
            bit = 1 << (v - 1)
            if adj[v] & ~universe:
                raise ValueError(f"vertex {v} has neighbours outside 1..{n}")
            if adj[v] & bit:
                raise ValueError(f"loop at vertex {v} is not allowed")
            for u in _iter_bits(universe ^ bit ^ adj[v] if dense else adj[v]):
                if bool(adj[u.bit_length()] & bit) == dense:
                    raise ValueError(f"adjacency is not symmetric at vertices {u.bit_length()} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Graph":
        adj = [0] * (n + 1)
        for e in edges:
            pair = tuple(e)
            if not (len(pair) == 2 and pair[0] != pair[1] and all(_is_vertex(v) and v <= n for v in pair)):
                raise ValueError(f"bad edge {pair}: need two distinct integers in 1..{n}")
            i, j = pair
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        return cls(n, tuple(adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (i, j) with i < j."""
        return frozenset(
            (u.bit_length(), v)
            for v in range(2, self.n + 1)
            for u in _iter_bits(self.adjacency[v] & ((1 << (v - 1)) - 1))
        )

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> (j - 1) & 1)


class FaceOrder:
    """A checked filtration order of face masks and what its one walk over
    the facets finds: ``index`` (face -> position), ``first_cofacet`` (at
    each face's position, the position of its first cofacet, or None) and
    ``lows`` (dimension d >= 1 -> the positions of the d-faces and, in a
    parallel list, of their youngest facets, the initial pivots of their
    columns).  ValueError unless every face is a nonempty, nonnegative
    mask listed once, after all of its facets."""

    __slots__ = ("faces", "index", "lows", "first_cofacet")

    def __init__(self, faces: Iterable[int]):
        self.faces = faces = tuple(faces)
        if faces and min(faces) < 0:
            j = next(j for j, m in enumerate(faces) if m < 0)
            raise ValueError(f"face {j} is the negative mask {faces[j]}")
        self.index, self.lows = index, lows = {}, {}
        self.first_cofacet = first = [None] * len(faces)
        get = index.get
        for j, m in enumerate(faces):
            dim = m.bit_count() - 1
            if dim > 0:
                low = -1
                rest = m
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    i = get(m ^ bit)
                    if i is None:
                        msg = f"face {j} {mask_face(m)} comes before subface {mask_face(m ^ bit)}"
                        raise ValueError(msg + ": subfaces must precede faces")
                    if i > low:
                        low = i
                    if first[i] is None:
                        first[i] = j
                positions, youngest = lows.get(dim) or lows.setdefault(dim, ([], []))
                positions.append(j)
                youngest.append(low)
            elif not m:
                raise ValueError(f"face {j} is the empty face")
            if (i := index.setdefault(m, j)) != j:
                raise ValueError(f"face {j} repeats face {i}")

    @classmethod
    def _built(cls, faces: Sequence[int], index: dict[int, int], lows: dict, first_cofacet: list) -> "FaceOrder":
        """An order whose fields were found without the walk, by the closed
        forms of :func:`vr_filtration`; nothing is checked here."""
        order = cls.__new__(cls)
        order.faces, order.index, order.lows, order.first_cofacet = tuple(faces), index, lows, first_cofacet
        return order


@dataclass(frozen=True)
class Filtration:
    """Filtered complex: the birth of every face (face mask -> parameter)
    and the strictly increasing, finite critical parameters, which contain
    every birth and may add parameters where the complex does not change.

    ``order`` is its one checked (birth, dimension, colex) :class:`FaceOrder`;
    ``vr_filtration`` sets it from closed forms, ``from_births`` walks it
    at once as its subface check, and the raw constructor and ``single``
    walk it on first access."""

    n: int
    birth_map: Mapping[int, float]
    params: tuple[float, ...]

    def __post_init__(self):
        if not self.params:
            raise ValueError("a filtration needs at least one step")
        if not all(-inf < t < inf for t in self.params):  # NaN breaks every order, inf means "never ends"
            bad = [(m, t) for m, t in self.birth_map.items() if not -inf < t < inf]
            m, t = bad[0] if bad else (0, next(t for t in self.params if not -inf < t < inf))
            what = f"face {mask_face(m)} is born at" if bad else "a filtration parameter is"
            raise ValueError(f"{what} {'NaN' if t != t else t}")
        if any(b <= a for a, b in zip(self.params, self.params[1:])):
            raise ValueError("filtration parameters must be strictly increasing")
        if not set(self.birth_map.values()) <= set(self.params):
            raise ValueError("every birth must be a critical parameter")

    @classmethod
    def from_births(
        cls,
        n: int,
        births: Mapping[int, float],
        params: Sequence[float] | None = None,
    ) -> "Filtration":
        """Filtration of a face-mask -> birth-time map.

        Every face must be born no earlier than its subfaces.  Extra
        ``params`` may be supplied to force steps at parameters where the
        complex does not change.
        """
        crit = set(births.values()).union(params or ())
        f = cls(n, dict(births), tuple(sorted(crit)))
        f.final()  # rejects the zero mask and vertices outside 1..n
        f.order  # the subface check
        return f

    @classmethod
    def single(cls, complex_: SimplicialComplex, t: float = 0.0) -> "Filtration":
        f = cls(complex_.n, dict.fromkeys(complex_.face_masks, t), (t,))
        f.__dict__["_final"] = complex_  # already validated
        return f

    @cached_property
    def order(self) -> FaceOrder:
        births = self.birth_map  # (birth, dimension, colex) by three stable sorts on C-level keys
        faces = sorted(sorted(births), key=int.bit_count)
        faces.sort(key=births.__getitem__)
        return FaceOrder(faces)

    @cached_property
    def _final(self) -> SimplicialComplex:
        return SimplicialComplex(self.n, frozenset(self.birth_map))

    def final(self) -> SimplicialComplex:
        return self._final

    @cached_property
    def steps(self) -> tuple[tuple[float, SimplicialComplex], ...]:
        """(parameter, complex) pairs, built on first access for the per-step oracles."""
        return tuple((t, self.complex_at(t)) for t in self.params)

    def index_at(self, t: float) -> int:
        """Index of the last step with parameter <= t; -1 if before the first."""
        return bisect_right(self.params, t) - 1

    def complex_at(self, t: float) -> SimplicialComplex:
        """Complex of the faces born at or before t."""
        if t >= self.params[-1]:
            return self.final()
        return SimplicialComplex(self.n, frozenset(m for m, b in self.birth_map.items() if b <= t))


def _cliques(g: Graph, max_size: int) -> list[int]:
    """Cliques of g with at most max_size vertices, depth-first on a stack
    of (clique, common neighbours above its top vertex).  A clique is listed
    after the clique without its top vertex and after that clique's other
    extensions."""
    adj = g.adjacency
    out: list[int] = []
    stack = [(0, (1 << g.n) - 1)]
    while stack:
        mask, cand = stack.pop()
        grow = mask.bit_count() + 1 < max_size
        while cand:
            bit = cand & -cand
            cand ^= bit
            out.append(mask | bit)
            if grow and (common := cand & adj[bit.bit_length()]):
                stack.append((mask | bit, common))
        _check_face_budget(len(out))
    return out


def clique_complex(g: Graph, max_dim: int | None = None) -> SimplicialComplex:
    """Complex of all cliques of g with dimension <= max_dim (default n-1)."""
    max_size = g.n if max_dim is None else max_dim + 1
    if max_size < 1:
        raise ValueError("max_dim must be nonnegative")
    return SimplicialComplex(g.n, frozenset(_cliques(g, max_size)))


def full_subcomplex(K: SimplicialComplex, W: Iterable[int]) -> SimplicialComplex:
    """Faces of K contained in the vertex subset W (may be empty/degenerate)."""
    w = face_mask(W)
    return SimplicialComplex(K.n, frozenset(m for m in K.face_masks if m & ~w == 0))


def _maximal_masks(K: SimplicialComplex) -> list[int]:
    """Masks of the faces of K that no vertex of K extends to a face.

    A face with as many vertices as the largest face of K is maximal
    unprobed.  Otherwise the probe stops at the first superface, which in a
    dense complex is almost always the lowest vertex outside the face."""
    faces, vertices, top = K.face_masks, K.vertex_mask, K.max_dim + 1
    out = []
    for m in faces:
        if m.bit_count() == top:
            out.append(m)
            continue
        rest = vertices & ~m
        while rest:
            bit = rest & -rest
            if m | bit in faces:
                break
            rest ^= bit
        else:
            out.append(m)
    return out


def maximal_faces(K: SimplicialComplex) -> frozenset[Face]:
    """Faces of K with no proper superface in K."""
    return frozenset(mask_face(m) for m in _maximal_masks(K))


def minimal_nonfaces(K: SimplicialComplex) -> frozenset[Face]:
    """Subsets of [n] outside K all of whose proper nonempty subsets lie in K."""
    vertices = K.vertex_mask
    out = set(_iter_bits(((1 << K.n) - 1) & ~vertices))
    seen: set[int] = set()
    for m in K.face_masks:
        # a larger minimal non-face is a face plus one vertex of K
        for bit in _iter_bits(vertices & ~m):
            cand = m | bit
            if cand in K.face_masks or cand in seen:
                continue
            seen.add(cand)
            if all((cand ^ b) in K.face_masks for b in _iter_bits(cand)):
                out.add(cand)
    return frozenset(mask_face(m) for m in out)


def validate_distance_matrix(dist: Sequence[Sequence[float]]) -> int:
    """Check a distance matrix is square, symmetric, nonnegative with zero
    diagonal; returns the number of points."""
    n = len(dist)
    if n == 0:
        raise ValueError("distance matrix is empty")
    for i, row in enumerate(dist):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
    for i in range(n):
        if dist[i][i] != 0:
            raise ValueError(f"nonzero diagonal entry at ({i + 1},{i + 1}): {dist[i][i]}")
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                raise ValueError(
                    f"matrix not symmetric at ({i + 1},{j + 1}): "
                    f"{dist[i][j]} != {dist[j][i]}"
                )
            if dist[i][j] < 0:
                raise ValueError(f"negative distance at ({i + 1},{j + 1}): {dist[i][j]}")
    return n


def _edge_levels(
    e: int, common: int, adj: Mapping[int, int], max_size: int, listed: int
) -> tuple[list[list[tuple[int, int, int]]], int]:
    """The faces m = e + S with at most max_size vertices, S a clique of
    ``common``, the common neighbours of the ends of edge e in ``adj``, as
    ``(m, C, X)`` with C the common neighbours of m and X = e, by
    dimension: level k holds the faces of dimension k + 1, in colex order.
    Breadth-first, a face grows only below its lowest vertex outside e,
    and a level lists the faces of each parent in turn, in parent order and
    then by the added vertex: that is colex order.  The face budget, on the
    count of faces listed (``listed`` before the call, returned with the
    levels), is checked at each face that grows."""
    level, cands = [(e, common, e)], [common]
    levels = [level]
    while len(levels) + 2 <= max_size:
        grown, below = [], []
        for (m, C, _), cand in zip(level, cands):
            if cand:
                listed += cand.bit_count()
                _check_face_budget(listed)
            while cand:
                u = cand & -cand
                cand ^= u
                C_u = C & adj[u]
                grown.append((m | u, C_u, e))
                below.append(C_u & (u - 1))
        if not grown:
            break
        levels.append(grown)
        level, cands = grown, below
    return levels, listed


def _tied_fields(m: int, adj: Mapping[int, int], tied: Mapping[int, int], full: int) -> tuple[int, int, int]:
    """``(m, C, X)`` for a face m born in a tie group: C the common
    neighbours of m and X the intersection of m's edges in ``tied``, the
    group's, by one walk over m (the edges at v meet in v and, if there is
    only one, its other end)."""
    C, X, rest = full, m, m
    while rest:
        v = rest & -rest
        rest ^= v
        C &= adj[v]
        if w := tied[v] & m:
            X &= v | w if w & (w - 1) == 0 else v
    return m, C, X


def vr_filtration(dist: Sequence[Sequence[float]], max_dim: int | None = None) -> Filtration:
    """Vietoris-Rips filtration of a distance matrix.

    Edge {i,j} enters at parameter dist[i][j]/2 (closed threshold); at each
    parameter the complex is the clique complex of the threshold graph,
    truncated to faces of dimension <= max_dim.  Critical parameters are
    exactly {0} union {dist[i][j]/2 : i < j}.

    The edges go in by (parameter, mask), one group per parameter t
    (Zomorodian 2010).  Edge e lists the new faces e + S, S a clique of the
    common neighbours of its ends, of at most max_dim + 1 vertices, so a
    face born in a tie is listed once, by its last edge in.  The faces of a
    group come out in (dimension, colex) order, the filtration order: one
    edge lists them so, and a tie group sorts what its edges list.  Let
    X(m) be the intersection of the edges of m born at t (e alone without
    ties): the facets m - v with v in X(m) are older and the others are
    born at t.  So the order's fields follow in closed form: a face's
    youngest facet drops its lowest vertex outside X(m) (an edge drops its
    lowest vertex), a new face's first cofacet adds the lowest of its
    common neighbours at t, and each older facet takes the first face that
    lists it as its first cofacet, unless it has one.  Births are t, except
    that a face born at 0 takes the half-distance of its two lowest
    vertices, so a -0.0 stays as it is.
    """
    n = validate_distance_matrix(dist)
    if max_dim is None:
        max_dim = n - 1
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    _check_face_budget(n)
    faces = [1 << v for v in range(n)]
    births = dict.fromkeys(faces, 0.0)
    index = dict(zip(faces, range(n)))
    first: list[int | None] = [None] * n
    lows: dict[int, tuple[list[int], list[int]]] = {}
    params = [0.0]
    adj = dict.fromkeys(faces, 0)  # vertex bit -> its neighbours so far
    full = (1 << n) - 1
    edges = sorted((dist[i][j] / 2.0, (1 << i) | (1 << j)) for j in range(n) for i in range(j))
    k, stop = 0, len(edges)
    while k < stop:
        t, e = edges[k]
        start, k = k, k + 1
        while k < stop and edges[k][0] == t:
            k += 1
        if t:  # a zero is the 0.0 of the vertices
            params.append(t)
        if not max_dim:
            continue
        if k == start + 1:  # no tie
            lo = e & -e
            hi = e ^ lo
            adj[lo] |= hi
            adj[hi] |= lo
            common = adj[lo] & adj[hi] if max_dim > 1 else 0
            if not common:  # e closes no triangle: it is the one new face
                p = len(faces)
                faces.append(e)
                index[e] = p
                births[e] = t
                first.append(None)
                positions, youngest = lows.get(1) or lows.setdefault(1, ([], []))
                positions.append(p)
                youngest.append(index[hi])
                for i in (index[lo], index[hi]):
                    if first[i] is None:
                        first[i] = p
                if p >= MAX_FACES:
                    _check_face_budget(p + 1)
                continue
            levels, _ = _edge_levels(e, common, adj, max_dim + 1, len(faces) + 1)
        else:  # the general rule
            tied = dict.fromkeys(adj, 0)  # vertex bit -> its neighbours by edges born at t
            levels = []
            listed = len(faces)
            for _, e in edges[start:k]:
                lo = e & -e
                hi = e ^ lo
                adj[lo] |= hi
                adj[hi] |= lo
                tied[lo] |= hi
                tied[hi] |= lo
                listed += 1
                if max_dim > 1 and (common := adj[lo] & adj[hi]):
                    more, listed = _edge_levels(e, common, adj, max_dim + 1, listed)
                else:
                    more = [[(e, 0, e)]]
                    _check_face_budget(listed)
                for level, add in zip(levels, more):
                    level += add
                levels += more[len(levels):]
            # C and X at the end of the group, in colex order
            levels = [sorted(_tied_fields(m, adj, tied, full) for m, _, _ in level) for level in levels]
        p = len(faces)
        new = [m for level in levels for m, _, _ in level]
        faces += new
        index.update(zip(new, range(p, len(faces))))
        if t:
            births.update(dict.fromkeys(new, t))
        else:
            for m in new:
                lo = m & -m
                second = (m ^ lo) & -(m ^ lo)
                births[m] = dist[lo.bit_length() - 1][second.bit_length() - 1] / 2.0
        for dim, level in enumerate(levels, 1):
            positions, youngest = lows.get(dim) or lows.setdefault(dim, ([], []))
            grows = dim < max_dim
            for m, C, X in level:
                x = m & ~X or m
                positions.append(p)
                youngest.append(index[m ^ (x & -x)])
                first.append(index[m | (C & -C)] if grows and C else None)
                if X:  # at most two vertices, the ends of an edge
                    v = X & -X
                    if first[i := index[m ^ v]] is None:
                        first[i] = p
                    if (X := X ^ v) and first[i := index[m ^ X]] is None:
                        first[i] = p
                p += 1
    f = Filtration(n, births, tuple(params))
    f.final()  # the complex is checked here, as from_births checks it
    f.__dict__["order"] = FaceOrder._built(faces, index, lows, first)
    return f


def boundary_masks(K: SimplicialComplex, k: int) -> tuple[Sequence[int], Sequence[int], list[list[tuple[int, int]]]]:
    """The mask twin of :func:`boundary_entries`: the row masks ((k-1)-faces,
    or the empty face 0 at k = 0), the column masks (k-faces) and, per column,
    (row index, sign) per facet, lowest vertex first, sign (-1)^u, u from 1."""
    rows, cols = K.masks_of_dim(k - 1) if k else (0,), K.masks_of_dim(k)
    index = {m: i for i, m in enumerate(rows)}
    columns = []
    for m in cols:
        col, sign, rest = [], -1, m
        while rest:
            bit = rest & -rest
            rest ^= bit
            col.append((index[m ^ bit], sign))
            sign = -sign
        columns.append(col)
    return rows, cols, columns


def boundary_entries(
    K: SimplicialComplex, k: int, reduced: bool = False
) -> tuple[list[Face], list[Face], dict[tuple[int, int], int]]:
    """Classical boundary matrix data in dimension k under the canonical order.

    Returns (row faces, column faces, entries); entries map (row index,
    column index) to the sign (-1)^u where u counts the removed vertex's
    position from 1.  With ``reduced`` and k = 0 the single row is the
    empty face () and each column carries -1.
    """
    cols = K.faces_of_dim(k)
    if k == 0:
        if not reduced:
            return [], cols, {}
        return [()], cols, {(0, j): -1 for j in range(len(cols))}
    rows = K.faces_of_dim(k - 1)
    row_index = {f: i for i, f in enumerate(rows)}
    entries: dict[tuple[int, int], int] = {}
    for j, sigma in enumerate(cols):
        for u, v in enumerate(sigma, start=1):
            tau = tuple(w for w in sigma if w != v)
            entries[(row_index[tau], j)] = -1 if u % 2 else 1
    return rows, cols, entries


def maximal_clique_masks(g: Graph) -> list[int]:
    """Sorted maximal cliques of g as bitmasks, by Bron-Kerbosch with
    pivoting on an explicit stack, so clique size is not bounded by the
    recursion limit."""
    adj = g.adjacency
    out: list[int] = []
    stack = [(0, (1 << g.n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        pool = p | x
        if not pool:
            if r:
                out.append(r)
            continue
        u = (pool & -pool).bit_length()
        # branch only on vertices not adjacent to the pivot u
        for bit in _iter_bits(p & ~adj[u]):
            v = bit.bit_length()
            stack.append((r | bit, p & adj[v], x & adj[v]))
            p ^= bit
            x |= bit
    return sorted(out)
