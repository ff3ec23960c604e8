"""Simplicial complexes, graphs, clique complexes and Vietoris-Rips filtrations.

Vertices are integers 1..n.  Faces are stored internally as bitmasks
(bit v-1 set iff vertex v belongs to the face), which makes subset and
superset queries cheap; the public face representation is the strictly
increasing tuple of vertices.  A graph is stored the same way, as one
neighbour mask per vertex, and so is a :class:`LinearPrime`, the prime
generated by the variables of a vertex set, which the barcodes label
their bars with.

Canonical basis order: within each dimension, faces are sorted by their
bitmask value, i.e. colexicographically; a complex sorts its faces into
that per-dimension index once, on the first ``masks_of_dim`` call, which
no rips path makes.  All boundary matrices in the package use this
order; ``boundary_masks`` builds the classical one for every rank,
labelled boundary and labelled check.  A filtration's faces are read in its checked order, a
:class:`FaceOrder`, which both SR and PH read: ``vr_filtration`` builds
it by closed forms as its edges go in when no two edges tie, and any
other filtration, a tied VR one included, by one walk over the facets,
which is also the oracle for the closed forms.

Bits are walked lowest first.  ``_iter_bits`` is the one helper for it,
except in the loops that run once per face or facet: ``mask_face``, the
facet walks of :class:`FaceOrder` and ``boundary_masks``, the superface
probe of ``_maximal_masks`` (the SR final check, which a simplex skips),
the edge walk of ``clique_complex``, ``_edge_levels`` and, in
``persistence``, the EDGE maximality test spell the walk inline
(``bit = rest & -rest; rest ^= bit``), which saves a generator frame per
face.  Masks are nonnegative: a negative int has infinitely many set
bits, so ``mask_face``, ``SimplicialComplex`` and ``FaceOrder`` refuse
one.

``clique_complex`` and ``vr_filtration`` list cliques by one walk
(Zomorodian 2010): they insert the edges one at a time, by mask and in
filtration order, and list at each edge the cliques that it closes
(``_edge_levels``).  The walk and the downward closure of input faces
stop with a ``ValueError`` beyond ``MAX_FACES`` faces.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from math import inf
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Face",
    "face_mask",
    "mask_face",
    "LinearPrime",
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


class LinearPrime(NamedTuple):
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


def _iter_bits(mask: int):
    """The set bits of a mask, lowest first, each as a one-bit mask; the
    one bit-iteration helper of the package outside the per-face loops
    named in the module docstring."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


class _Value:
    """Base of the package's plain value classes: equal by class and by the
    tuple of the fields named in ``_fields``, hashed as that tuple, and shown
    as ``Name(field=value, ...)``, like a frozen record.  Each subclass reads
    the tuple with its own ``_key`` getter; instances are treated as
    immutable."""

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


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


class SimplicialComplex(_Value):
    """Downward-closed family of nonempty faces over the vertex universe [n],
    stored as the frozenset ``face_masks``."""

    _fields = ("n", "face_masks")

    def __init__(self, n: int, face_masks: frozenset[int]):
        self.n, self.face_masks = n, face_masks
        if n < 0:
            raise ValueError("vertex universe size must be nonnegative")
        universe = (1 << n) - 1
        if face_masks and (min(face_masks) < 1 or max(face_masks) > universe):  # find the culprit only when there is one
            for m in face_masks:
                if m == 0:
                    raise ValueError("the empty face is never stored in a complex")
                if m < 0:
                    raise ValueError(f"face mask {m} is negative")
                if m & ~universe:
                    raise ValueError(f"face {mask_face(m)} has vertices outside 1..{n}")

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
        return max(map(int.bit_count, self.face_masks), default=0) - 1

    @cached_property
    def vertex_mask(self) -> int:
        mask = 0
        for m in self.face_masks:
            mask |= m
        return mask

    def vertices(self) -> Face:
        return mask_face(self.vertex_mask)

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

    def faces(self) -> list[Face]:
        return [mask_face(m) for m in sorted(self.face_masks, key=lambda m: (m.bit_count(), m))]


class Graph(_Value):
    """Simple undirected graph on vertices 1..n, stored as neighbour masks
    like faces and primes: adjacency[v] has bit u-1 set iff {u, v} is an
    edge, and adjacency[0] is 0."""

    _fields = ("n", "adjacency")

    def __init__(self, n: int, adjacency: tuple[int, ...]):
        self.n, self.adjacency = n, adjacency
        adj = adjacency
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


class Filtration(_Value):
    """Filtered complex: the birth of every face (face mask -> parameter)
    and the strictly increasing, finite critical parameters, which contain
    every birth and may add parameters where the complex does not change.

    ``order`` is its one checked (birth, dimension, colex) :class:`FaceOrder`;
    ``vr_filtration`` sets it from closed forms unless two edges tie and
    walks it before it returns if they do, ``from_births`` walks it at once
    as its subface check, and the raw constructor and ``single`` walk it on
    first access."""

    _fields = ("n", "birth_map", "params")

    def __init__(self, n: int, birth_map: Mapping[int, float], params: tuple[float, ...]):
        self.n, self.birth_map, self.params = n, birth_map, params
        if not params:
            raise ValueError("a filtration needs at least one step")
        if not all(-inf < t < inf for t in params):  # NaN breaks every order, inf means "never ends"
            bad = [(m, t) for m, t in birth_map.items() if not -inf < t < inf]
            m, t = bad[0] if bad else (0, next(t for t in params if not -inf < t < inf))
            what = f"face {mask_face(m)} is born at" if bad else "a filtration parameter is"
            raise ValueError(f"{what} {'NaN' if t != t else t}")
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("filtration parameters must be strictly increasing")
        if not set(birth_map.values()) <= set(params):
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


def clique_complex(g: Graph, max_dim: int | None = None) -> SimplicialComplex:
    """Complex of all cliques of g with dimension <= max_dim (default n-1),
    listed as ``vr_filtration`` lists them: the vertices, then g's edges one
    at a time, by mask, each with the cliques that it closes
    (``_edge_levels``).  In mask order an edge closes the cliques whose top
    two vertices it holds, so their other vertices are its ends' common
    neighbours below its lower end."""
    max_size = g.n if max_dim is None else max_dim + 1
    if max_size < 1:
        raise ValueError("max_dim must be nonnegative")
    _check_face_budget(g.n)
    faces = [1 << v for v in range(g.n)]
    adj = {bit: g.adjacency[bit.bit_length()] for bit in faces}  # vertex bit -> its neighbours
    for hi in adj if max_size > 1 else ():
        below = adj[hi] & (hi - 1)
        while below:
            lo = below & -below
            below ^= lo
            if max_size > 2 and (common := adj[lo] & adj[hi] & (lo - 1)):
                levels = _edge_levels(lo | hi, common, adj, max_size, len(faces) + 1)
                faces += [m for level in levels for m, _ in level]
            else:
                _check_face_budget(len(faces) + 1)
                faces.append(lo | hi)
    return SimplicialComplex(g.n, frozenset(faces))


def full_subcomplex(K: SimplicialComplex, W: Iterable[int]) -> SimplicialComplex:
    """Faces of K contained in the vertex subset W (may be empty/degenerate)."""
    w = face_mask(W)
    return SimplicialComplex(K.n, frozenset(m for m in K.face_masks if m & ~w == 0))


def _maximal_masks(K: SimplicialComplex) -> list[int]:
    """Masks of the faces of K that no vertex of K extends to a face.

    Both answers rest on K being downward closed.  A nonempty K with
    2^k - 1 faces, k the size of its largest face, is the simplex on that
    face: the face's 2^k - 1 subfaces fill K, and its mask is the largest,
    so it is returned unprobed.  Otherwise a face with k vertices is
    maximal unprobed, and the probe stops at the first superface, which in
    a dense complex is almost always the lowest vertex outside the face."""
    faces, top = K.face_masks, K.max_dim + 1
    if faces and len(faces) == (1 << top) - 1:
        return [max(faces)]
    vertices = K.vertex_mask
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


def _edge_levels(e: int, common: int, adj: Mapping[int, int], max_size: int, listed: int) -> list[list[tuple[int, int]]]:
    """The faces m = e + S with at most max_size vertices, S a clique of
    ``common``, the common neighbours of the ends of edge e in ``adj``, as
    ``(m, C)`` with C the common neighbours of m, by dimension: level k
    holds the faces of dimension k + 1, in colex order.  Breadth-first, a
    face grows only below its lowest vertex outside e, and a level lists
    the faces of each parent in turn, in parent order and then by the added
    vertex: that is colex order.  The face budget, on the count of faces
    listed (``listed`` before the call), is checked once per level, on
    the level's whole size, before the level is built."""
    level, cands = [(e, common)], [common]
    levels = [level]
    while len(levels) + 2 <= max_size:
        listed += sum(map(int.bit_count, cands))
        _check_face_budget(listed)
        grown, below = [], []
        for (m, C), cand in zip(level, cands):
            while cand:
                u = cand & -cand
                cand ^= u
                C_u = C & adj[u]
                grown.append((m | u, C_u))
                below.append(C_u & (u - 1))
        if not grown:
            break
        levels.append(grown)
        level, cands = grown, below
    return levels


def vr_filtration(dist: Sequence[Sequence[float]], max_dim: int | None = None) -> Filtration:
    """Vietoris-Rips filtration of a distance matrix.

    Edge {i,j} enters at parameter dist[i][j]/2 (closed threshold); at each
    parameter the complex is the clique complex of the threshold graph,
    truncated to faces of dimension <= max_dim.  Critical parameters are
    exactly {0} union {dist[i][j]/2 : i < j}.

    The edges go in one at a time, by (parameter, mask) (Zomorodian 2010).
    Edge e lists the new faces e + S, S a clique of the common neighbours
    of its ends, of at most max_dim + 1 vertices, so each face is listed
    once, by its last edge in, and born at that edge's parameter t; a zero
    t, a -0.0 included, is the 0.0 of the vertices.  When no two edges
    share a parameter, e's faces come out in (dimension, colex) order, the
    filtration order, and the order's fields follow in closed form: the
    facets m - v with v in e are older and the others are born with m, so
    a face's youngest facet drops its lowest vertex outside e (an edge
    drops its lowest vertex), a new face's first cofacet adds the lowest of
    its common neighbours, and each older facet takes the first face that
    lists it as its first cofacet, unless it has one.  With a tie (a -0.0
    and a 0.0 are one), ``order`` is the checked walk, made before this
    returns.
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
    edges = sorted((dist[i][j] / 2.0, (1 << i) | (1 << j)) for j in range(n) for i in range(j))
    tied = any(a[0] == b[0] for a, b in zip(edges, edges[1:]))
    for t, e in edges:
        if t != params[-1]:  # a zero is the 0.0 of the vertices
            params.append(t)
        if not max_dim:
            continue
        lo = e & -e
        hi = e ^ lo
        adj[lo] |= hi
        adj[hi] |= lo
        p = len(faces)
        if max_dim > 1 and (common := adj[lo] & adj[hi]):
            levels = _edge_levels(e, common, adj, max_dim + 1, p + 1)
            new = [m for level in levels for m, _ in level]
        else:  # e closes no triangle: it is the one new face
            _check_face_budget(p + 1)
            levels, new = [[(e, 0)]], [e]
        faces += new
        births.update(dict.fromkeys(new, t or 0.0))
        if tied:
            continue
        index.update(zip(new, range(p, len(faces))))
        for dim, level in enumerate(levels, 1):
            positions, youngest = lows.get(dim) or lows.setdefault(dim, ([], []))
            grows = dim < max_dim
            for m, C in level:
                x = m & ~e or m
                positions.append(p)
                youngest.append(index[m ^ (x & -x)])
                first.append(index[m | (C & -C)] if grows and C else None)
                if first[i := index[m ^ lo]] is None:
                    first[i] = p
                if first[i := index[m ^ hi]] is None:
                    first[i] = p
                p += 1
    f = Filtration(n, births, tuple(params))
    f.final()  # the complex is checked here, as from_births checks it
    if tied:
        f.order  # the checked walk, made here so that it is timed with the filtration
    else:
        f.__dict__["order"] = FaceOrder._built(faces, index, lows, first)
    return f


def boundary_masks(K: SimplicialComplex, k: int) -> tuple[Sequence[int], Sequence[int], list[list[tuple[int, int]]]]:
    """The classical boundary in dimension k on masks: the row masks
    ((k-1)-faces, or the empty face 0 at k = 0, the augmentation), the column
    masks (k-faces) and, per column, (row index, sign) per facet, lowest
    vertex first, sign (-1)^u, u from 1."""
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
