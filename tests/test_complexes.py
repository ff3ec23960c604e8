from __future__ import annotations

import math
import random
import struct
from itertools import combinations

import pytest

from idealtda import complexes, verify
from idealtda.complexes import (
    FaceOrder,
    Filtration,
    Graph,
    SimplicialComplex,
    boundary_masks,
    clique_complex,
    face_mask,
    full_subcomplex,
    mask_face,
    maximal_clique_masks,
    maximal_faces,
    minimal_nonfaces,
    validate_distance_matrix,
    vr_filtration,
)
from idealtda.linalg import GF2, QQ, PrimeField
from idealtda.persistence import _boundary_dense


def random_complex(rng, n):
    gens = [(rng.randint(1, n),)]
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(4, n))
        gens.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return SimplicialComplex.from_faces(n, gens, close=True)


def simplex(n, vertices):
    return SimplicialComplex.from_faces(n, [tuple(vertices)], close=True)


def has_face(K, face):
    return face_mask(face) in K.face_masks


def faces_of_dim(K, k):
    """The k-faces as vertex tuples in colex order (reversed tuples sorted),
    with no mask index read."""
    return sorted((f for f in K.faces() if len(f) == k + 1), key=lambda f: f[::-1])


def boundary_entries(K, k):
    """The tuple-face oracle of ``boundary_masks``: the row faces ((k-1)-faces,
    or the empty face () alone at k = 0), the column faces, and (row index,
    column index) -> the sign (-1)^u, u the removed vertex's position from 1."""
    cols = faces_of_dim(K, k)
    rows = faces_of_dim(K, k - 1) if k else [()]
    row_index = {f: i for i, f in enumerate(rows)}
    entries = {}
    for j, sigma in enumerate(cols):
        for u, v in enumerate(sigma, start=1):
            tau = tuple(w for w in sigma if w != v)
            entries[(row_index[tau], j)] = -1 if u % 2 else 1
    return rows, cols, entries


def test_face_mask_roundtrip_and_validation():
    assert face_mask((1, 3, 4)) == 0b1101
    assert mask_face(0b1101) == (1, 3, 4)
    with pytest.raises(ValueError):
        face_mask((0,))
    with pytest.raises(ValueError):
        face_mask((2, 2))
    for bad in [(1.0,), ("1",), (True, 2), (False,)]:
        with pytest.raises(ValueError, match="not a positive integer"):
            face_mask(bad)
    with pytest.raises(ValueError, match="True"):
        SimplicialComplex.from_faces(2, [(True, 2)], close=True)


def test_from_faces_rejects_non_closed():
    with pytest.raises(ValueError):
        SimplicialComplex.from_faces(3, [(1, 2)])
    K = SimplicialComplex.from_faces(3, [(1, 2)], close=True)
    assert sorted(K.faces()) == [(1,), (2,), (1, 2)] or K.faces() == [(1,), (2,), (1, 2)]


def test_faces_outside_universe_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex.from_faces(2, [(3,)])


def test_negative_masks_are_rejected_without_looping():
    # a negative int has infinitely many set bits, so no bit walk may start
    # on one; the other out-of-range masks keep their messages
    with pytest.raises(ValueError, match=r"^face \(3,\) has vertices outside 1..2$"):
        SimplicialComplex(2, frozenset({0b01, 0b100}))
    with pytest.raises(ValueError, match="^the empty face is never stored in a complex$"):
        SimplicialComplex(2, frozenset({0, 0b01}))
    with pytest.raises(ValueError, match="^mask -1 is negative$"):
        mask_face(-1)
    with pytest.raises(ValueError, match="^face mask -1 is negative$"):
        SimplicialComplex(3, frozenset({-1}))
    with pytest.raises(ValueError, match="^face mask -6 is negative$"):
        SimplicialComplex(3, frozenset({0b1, 0b10, -6}))
    with pytest.raises(ValueError, match="^face 1 is the negative mask -2$"):
        FaceOrder([1, -2])
    with pytest.raises(ValueError, match="^face 2 is the negative mask -3$"):
        FaceOrder([0b1, 0b10, -3, 0b11])
    with pytest.raises(ValueError, match="negative"):
        Filtration.from_births(2, {0b1: 0.0, -1: 0.0})


def test_closure_exhaustive_subface_check():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 8)
        K = random_complex(rng, n)
        for f in K.faces():
            for size in range(1, len(f)):
                for sub in combinations(f, size):
                    assert has_face(K, sub)


def test_canonical_face_order_is_colex():
    K = SimplicialComplex.from_faces(4, [(1, 2, 3), (1, 4)], close=True)
    assert [mask_face(m) for m in K.masks_of_dim(1)] == [(1, 2), (1, 3), (2, 3), (1, 4)]


def test_clique_complex_demo(demo_graph):
    K = clique_complex(demo_graph, max_dim=3)
    want = {(1,), (2,), (3,), (4,), (3, 4), (1, 2), (1, 3), (2, 3), (1, 2, 3)}
    assert set(K.faces()) == want


def test_clique_complex_edgeless_and_k4():
    K = clique_complex(Graph.from_edges(3, []))
    assert set(K.faces()) == {(1,), (2,), (3,)}
    k4 = Graph.from_edges(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    K = clique_complex(k4, max_dim=2)
    assert set(K.faces()) == {
        f for size in (1, 2, 3) for f in combinations(range(1, 5), size)
    }


def test_clique_complex_matches_predicate_oracle():
    rng = random.Random(1)
    graphs = [(rng.randint(1, 9), density) for density in (0.0, 0.25, 0.5, 0.75, 1.0) for _ in range(8)]
    for n, density in graphs:
        edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density}
        g = Graph.from_edges(n, edges)
        for max_dim in (None, 0, 1, 2):
            K = clique_complex(g, max_dim)
            top = n if max_dim is None else max_dim + 1
            # oracle: a subset is a face iff every pair is an edge
            want = [
                comb
                for size in range(1, top + 1)
                for comb in combinations(range(1, n + 1), size)
                if all(pair in edges for pair in combinations(comb, 2))
            ]
            assert sorted(K.faces()) == sorted(want)


def test_full_subcomplex_triangle():
    K = SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True)
    sub = full_subcomplex(K, (2, 3))
    assert set(sub.faces()) == {(2,), (3,), (2, 3)}
    assert full_subcomplex(K, (1, 2, 3)) == K
    empty = full_subcomplex(K, ())
    assert empty.is_empty


def test_full_subcomplex_matches_filter_oracle():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 7)
        K = random_complex(rng, n)
        W = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        sub = full_subcomplex(K, W)
        assert set(sub.faces()) == {f for f in K.faces() if set(f) <= set(W)}


def test_maximal_faces_demo(demo_clique_complex):
    assert maximal_faces(demo_clique_complex) == {(1, 2, 3), (3, 4)}


def test_maximal_faces_simplex_and_path_step():
    S = simplex(5, (1, 3, 5))
    assert maximal_faces(S) == {(1, 3, 5)}
    K = SimplicialComplex.from_faces(3, [(1, 2), (1, 3)], close=True)
    assert maximal_faces(K) == {(1, 2), (1, 3)}


def test_maximal_faces_inclusion_scan_oracle_and_closure():
    rng = random.Random(3)
    for _ in range(25):
        K = random_complex(rng, rng.randint(1, 8))
        maxf = maximal_faces(K)
        # oracle: pairwise-inclusion scan
        want = {
            f
            for f in K.faces()
            if not any(set(f) < set(g) for g in K.faces())
        }
        assert maxf == want
        # antichain
        for a in maxf:
            for b in maxf:
                assert not (set(a) < set(b))
        # downward closure of the maximal faces reproduces K
        closed = SimplicialComplex.from_faces(K.n, maxf, close=True)
        assert closed == K


def test_minimal_nonfaces_demo(demo_clique_complex):
    assert minimal_nonfaces(demo_clique_complex) == {(1, 4), (2, 4)}


def test_minimal_nonfaces_full_simplex_is_empty():
    S = simplex(4, (1, 2, 3, 4))
    assert minimal_nonfaces(S) == frozenset()


def test_minimal_nonfaces_exhaustive_oracle():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 5)
        K = random_complex(rng, n)
        got = minimal_nonfaces(K)
        want = set()
        for size in range(1, n + 1):
            for comb in combinations(range(1, n + 1), size):
                if has_face(K, comb):
                    continue
                proper = all(
                    has_face(K, sub)
                    for k in range(1, size)
                    for sub in combinations(comb, k)
                )
                if proper:
                    want.add(comb)
        assert got == want
        for a in got:
            for b in got:
                assert not (set(a) < set(b))


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        validate_distance_matrix([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        validate_distance_matrix([[1.0]])
    with pytest.raises(ValueError, match="negative"):
        validate_distance_matrix([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="entries"):
        validate_distance_matrix([[0.0, 1.0], [1.0]])
    with pytest.raises(ValueError, match="empty"):
        validate_distance_matrix([])


def test_vr_filtration_three_point_fixture(three_point_dist):
    f = vr_filtration(three_point_dist, max_dim=2)
    root2 = math.sqrt(2.0)
    assert f.params == (0.0, 1.0, root2)
    step0, step1, step2 = (K for _, K in f.steps)
    assert set(step0.faces()) == {(1,), (2,), (3,)}
    assert set(step1.faces()) == {(1,), (2,), (3,), (1, 2), (1, 3)}
    assert set(step2.faces()) == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)}
    # edges are born exactly at half their distance (closed convention)
    assert f.birth_map[face_mask((1, 2))] == 1.0
    assert f.birth_map[face_mask((2, 3))] == root2


def test_vr_filtration_single_point():
    f = vr_filtration([[0.0]])
    assert f.params == (0.0,)
    assert set(f.final().faces()) == {(1,)}


def test_vr_filtration_duplicate_points_merge_at_zero():
    dist = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    f = vr_filtration(dist)
    assert f.params == (0.0, 0.5)
    assert has_face(f.steps[0][1], (1, 2))


def _oracle_metric(rng, n, kind):
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "uniform":
                dist[i][j] = dist[j][i] = rng.uniform(0.2, 2.0)
            elif kind == "ties":
                dist[i][j] = dist[j][i] = rng.randint(1, 3)
            else:  # zeros of either sign, chosen apart on each side of the diagonal
                dist[i][j], dist[j][i] = rng.choice([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 1.0)])
    return dist


def test_vr_filtration_brute_force_oracle():
    rng = random.Random(5)
    for _ in range(10):
        n = 5
        dist = _oracle_metric(rng, n, "uniform")
        f = vr_filtration(dist, max_dim=2)
        for t, K in f.steps:
            want = set()
            for size in (1, 2, 3):
                for comb in combinations(range(1, n + 1), size):
                    if all(dist[a - 1][b - 1] / 2.0 <= t for a, b in combinations(comb, 2)):
                        want.add(comb)
            assert set(K.faces()) == want
        # monotone steps
        for (_, a), (_, b) in zip(f.steps, f.steps[1:]):
            assert a.face_masks <= b.face_masks
    # births bit for bit: test_vr_order_is_the_checked_walk_and_the_oracle


def test_face_budget(monkeypatch):
    # each build passes with the budget at its exact face count and refuses
    # one below it; the five-point VR filtrations check the budget once per
    # level of each edge's new faces, tie-free and tied, whole and at max_dim 2,
    # and the clique complex counts every face, also at max_dim 1 and 0
    triangle = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    distinct = [[abs(i - j) + (i + j) / 16 if i != j else 0.0 for j in range(5)] for i in range(5)]
    tied = [[float(i != j) for j in range(5)] for i in range(5)]
    builds = (
        (7, lambda: vr_filtration(triangle).birth_map),
        (7, lambda: clique_complex(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])).face_masks),
        (6, lambda: clique_complex(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), max_dim=1).face_masks),
        (3, lambda: clique_complex(Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), max_dim=0).face_masks),
        (7, lambda: SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True).face_masks),
        (31, lambda: vr_filtration(distinct).birth_map),
        (31, lambda: vr_filtration(tied).birth_map),
        (25, lambda: vr_filtration(distinct, max_dim=2).birth_map),
        (25, lambda: vr_filtration(tied, max_dim=2).birth_map),
    )
    for count, build in builds:
        monkeypatch.setattr(complexes, "MAX_FACES", count)
        assert len(build()) == count
        monkeypatch.setattr(complexes, "MAX_FACES", count - 1)
        with pytest.raises(ValueError, match=f"more than {count - 1} faces"):
            build()


def test_vr_equals_clique_complex_of_threshold_graph(three_point_dist):
    f = vr_filtration(three_point_dist, max_dim=2)
    n = 3
    for t, K in f.steps:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if three_point_dist[i - 1][j - 1] / 2.0 <= t
        ]
        assert K == clique_complex(Graph.from_edges(n, edges), max_dim=2)


def test_filtration_validation():
    births = {face_mask((1,)): 0.0, face_mask((2,)): 0.0, face_mask((1, 2)): 1.0}
    with pytest.raises(ValueError, match="strictly increasing"):
        Filtration(2, births, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        Filtration(2, births, (1.0, 0.0))
    with pytest.raises(ValueError, match="at least one step"):
        Filtration(2, {}, ())
    with pytest.raises(ValueError, match="critical parameter"):
        Filtration(2, births, (0.0,))
    with pytest.raises(ValueError, match="subface"):
        Filtration.from_births(2, {face_mask((1, 2)): 0.0, face_mask((1,)): 1.0, face_mask((2,)): 0.0})
    with pytest.raises(ValueError, match="outside"):
        Filtration.from_births(2, {face_mask((3,)): 0.0})
    with pytest.raises(ValueError, match="empty face"):
        Filtration.from_births(2, {0: 0.0, face_mask((1,)): 0.0})
    f = Filtration(2, births, (0.0, 1.0))
    assert f.complex_at(0.5).faces() == [(1,), (2,)]
    assert f.final().faces() == [(1,), (2,), (1, 2)]


def test_filtration_rejects_nan_parameters():
    # a NaN birth or parameter is refused before any order is built on it,
    # by the raw constructor, from_births (births and extra params) and single
    nan = float("nan")
    with pytest.raises(ValueError, match=r"face \(2,\) is born at NaN"):
        Filtration.from_births(2, {1: 0.0, 2: nan, 3: 1.0})
    with pytest.raises(ValueError, match="a filtration parameter is NaN"):
        Filtration.from_births(2, {1: 0.0, 2: 0.0}, params=[nan, 1.0])
    with pytest.raises(ValueError, match=r"face \(1,\) is born at NaN"):
        Filtration(1, {1: nan}, (nan,))
    with pytest.raises(ValueError, match="a filtration parameter is NaN"):
        Filtration(1, {1: 0.0}, (0.0, nan))
    with pytest.raises(ValueError, match=r"face \(1, 2\) is born at NaN"):
        Filtration.single(SimplicialComplex(2, frozenset({3})), nan)
    with pytest.raises(ValueError, match="a filtration parameter is NaN"):
        Filtration.single(SimplicialComplex(2, frozenset()), nan)


@pytest.mark.parametrize("inf", [math.inf, -math.inf], ids=["inf", "-inf"])
def test_filtration_rejects_infinite_parameters(inf):
    # an infinite death would pass for the None that means "never ends"
    text = str(inf)
    with pytest.raises(ValueError, match=rf"face \(3,\) is born at {text}"):
        Filtration.from_births(3, {1: 0.0, 2: 0.0, 4: inf})
    with pytest.raises(ValueError, match=rf"face \(1,\) is born at {text}"):
        Filtration.from_births(1, {1: inf})
    with pytest.raises(ValueError, match=f"a filtration parameter is {text}"):
        Filtration.from_births(2, {1: 0.0, 2: 0.0}, params=[inf, 1.0])
    with pytest.raises(ValueError, match=rf"face \(1,\) is born at {text}"):
        Filtration(1, {1: inf}, (inf,))
    with pytest.raises(ValueError, match=f"a filtration parameter is {text}"):
        Filtration(1, {1: 0.0}, (0.0, inf) if inf > 0 else (inf, 0.0))
    with pytest.raises(ValueError, match=rf"face \(1, 2\) is born at {text}"):
        Filtration.single(SimplicialComplex(2, frozenset({3})), inf)
    with pytest.raises(ValueError, match=f"a filtration parameter is {text}"):
        Filtration.single(SimplicialComplex(2, frozenset()), inf)
    # an int beyond the float range is finite
    assert Filtration.from_births(1, {1: 10**400}).params == (10**400,)


def test_filtration_helpers(three_point_dist):
    f = vr_filtration(three_point_dist)
    assert f.index_at(0.5) == 0
    assert f.index_at(1.0) == 1
    assert f.index_at(-1.0) == -1
    assert f.complex_at(-1.0).is_empty
    assert f.complex_at(100.0) == f.final()
    single = Filtration.single(f.final())
    assert single.params == (0.0,)


def test_boundary_masks_hollow_triangle_signs():
    K = SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)], close=True)
    rows, cols, columns = boundary_masks(K, 1)
    assert [mask_face(m) for m in rows] == [(1,), (2,), (3,)]
    assert [mask_face(m) for m in cols] == [(1, 2), (1, 3), (2, 3)]
    # removing the smaller vertex carries -1
    assert columns == [[(1, -1), (0, 1)], [(2, -1), (0, 1)], [(2, -1), (1, 1)]]


def test_boundary_masks_augmentation_at_degree_zero():
    K = SimplicialComplex.from_faces(2, [(1,), (2,)], close=True)
    assert boundary_masks(K, 0) == ((0,), (0b01, 0b10), [[(0, -1)], [(0, -1)]])


def test_boundary_squares_to_zero():
    rng = random.Random(6)
    for _ in range(10):
        K = random_complex(rng, rng.randint(2, 7))
        for k in range(K.max_dim):
            lower = boundary_masks(K, k)[2]
            for col in boundary_masks(K, k + 1)[2]:
                prod = {}
                for t, s1 in col:
                    for i, s2 in lower[t]:
                        prod[i] = prod.get(i, 0) + s1 * s2
                assert not any(prod.values())


def _boundary_cases():
    """200 seeded random complexes of up to 8 vertices, and the 9-simplex."""
    rng = random.Random(27)
    cases = [
        verify.random_complex(rng, rng.randint(1, 8), max_gen=rng.randint(1, 6), max_size=rng.randint(1, 6))
        for _ in range(200)
    ]
    return cases + [simplex(9, range(1, 10))]


def test_masks_of_dim_reads_one_cached_colex_index():
    # the index equals the old filter-and-sort in every dimension, out of
    # range included; it is built once and handed out as immutable tuples
    for K in _boundary_cases() + [SimplicialComplex(3, frozenset())]:
        for k in range(-2, K.max_dim + 3):
            want = sorted(m for m in K.face_masks if m.bit_count() == k + 1)
            got = K.masks_of_dim(k)
            assert type(got) is tuple and list(got) == want, (K, k)
        index = K._colex
        assert all(type(dim) is tuple for dim in index)
        assert sum(map(len, index)) == len(K.face_masks) and len(index) == K.max_dim + 1
        assert all(K.masks_of_dim(k) is index[k] for k in range(K.max_dim + 1))
    # the rips paths never build it: a full VR complex would pay a whole sort
    from idealtda.persistence import ph_barcode, prime_barcode

    f = vr_filtration(verify.random_metric(random.Random(5), 7))
    prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f)
    assert "_colex" not in vars(f.final())


def test_boundary_masks_is_the_mask_twin_of_boundary_entries():
    # rows, columns and signed entries agree with the tuple oracle in every
    # dimension, the augmentation (k = 0) included; facets lowest vertex first
    for K in _boundary_cases():
        for k in range(K.max_dim + 1):
            rows, cols, columns = boundary_masks(K, k)
            want_rows, want_cols, want = boundary_entries(K, k)
            assert [mask_face(m) for m in rows] == want_rows, (K, k)
            assert [mask_face(m) for m in cols] == want_cols, (K, k)
            assert {(i, j): s for j, col in enumerate(columns) for i, s in col} == want, (K, k)
            for m, col in zip(cols, columns):
                assert [rows[i] for i, _ in col] == [m ^ b for b in complexes._iter_bits(m)]
                assert [s for _, s in col] == [(-1) ** u for u in range(1, len(col) + 1)]


def test_boundary_dense_is_the_dense_oracle_after_norm():
    for K in _boundary_cases():
        for field in (QQ, GF2, PrimeField(7)):
            for k in range(K.max_dim + 1):
                rows, cols, entries = boundary_entries(K, k)
                want = [[field.zero] * len(cols) for _ in rows]
                for (i, j), s in entries.items():
                    want[i][j] = field.norm(s)
                got = _boundary_dense(K, k, field)
                assert got == want, (K, field.name, k)
                assert all(type(x) is int for row in got for x in row)


def test_maximal_clique_masks():
    g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    got = {mask_face(m) for m in maximal_clique_masks(g)}
    assert got == {(1, 2, 3), (3, 4)}
    assert maximal_clique_masks(Graph.from_edges(2, [])) == [0b01, 0b10]


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 3)])
    for bad in [(True, 3), (1.5, 3), (1, 3.0), ("1", 3), (1, 2, 3)]:
        with pytest.raises(ValueError, match="bad edge"):
            Graph.from_edges(3, [bad])


def test_graph_is_neighbour_masks():
    g = Graph.from_edges(4, [(2, 1), (3, 4)])
    assert g.adjacency == (0, 0b0010, 0b0001, 0b1000, 0b0100)
    assert g.edges == frozenset({(1, 2), (3, 4)})
    assert Graph(3, (0, 0b110, 0b101, 0b011)) == Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    for n, adjacency, message in [
        (2, (0, 0), "n \\+ 1 neighbour masks"),
        (2, (1, 0, 0), "n \\+ 1 neighbour masks"),
        (2, (0, 0b100, 0), "outside 1..2"),
        (2, (0, 0b01, 0), "loop at vertex 1"),
        (3, (0, 0b110, 0b001, 0), "not symmetric"),  # sparse: 3 misses 1
        (3, (0, 0b110, 0b101, 0b001), "not symmetric"),  # dense: 3 misses 2
    ]:
        with pytest.raises(ValueError, match=message):
            Graph(n, adjacency)


def _order_oracle(faces):
    """What FaceOrder finds on a face order, by the definitions: the error
    message of the first broken face, or (index, first_cofacet, lows)."""
    faces = list(faces)
    for j, m in enumerate(faces):
        if m < 0:
            return f"face {j} is the negative mask {m}"

    def verts(m):
        return tuple(v + 1 for v in range(m.bit_length()) if m >> v & 1)

    seen = {}
    for j, m in enumerate(faces):
        if m == 0:
            return f"face {j} is the empty face"
        if m.bit_count() > 1:
            for v in range(m.bit_length()):
                if m >> v & 1 and m ^ (1 << v) not in seen:
                    sub = m ^ (1 << v)
                    return f"face {j} {verts(m)} comes before subface {verts(sub)}: subfaces must precede faces"
        if m in seen:
            return f"face {j} repeats face {seen[m]}"
        seen[m] = j
    first = [
        min((j for j, c in enumerate(faces) if c & m == m and c.bit_count() == m.bit_count() + 1), default=None)
        for m in faces
    ]
    lows = {}
    for j, m in enumerate(faces):
        if m.bit_count() > 1:
            positions, youngest = lows.setdefault(m.bit_count() - 1, ([], []))
            positions.append(j)
            youngest.append(max(seen[m ^ (1 << v)] for v in range(m.bit_length()) if m >> v & 1))
    return seen, first, lows


def _broken_orders(rng, faces):
    """Copies of a face order with one fault each: two faces swapped, a face
    repeated or dropped, an empty or a negative mask inserted."""
    faces = list(faces)
    for fault in ("swap", "repeat", "drop", "empty", "negative"):
        out = faces[:]
        j = rng.randrange(len(out))
        if fault == "swap":
            i = rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
        elif fault == "repeat":
            out.insert(rng.randrange(j, len(out)) + 1, out[j])
        elif fault == "drop":
            del out[j]
        else:
            out.insert(j, 0 if fault == "empty" else -rng.randint(1, 1 << len(faces).bit_length()))
        yield out


def test_face_order_and_maximal_faces_match_brute_force_oracles():
    rng = random.Random(20)
    orders = []
    for _ in range(12):
        n = rng.randint(1, 7)
        for kind in ("uniform", "ties"):
            for max_dim in (None, 1, 2):
                orders.append(vr_filtration(_oracle_metric(rng, n, kind), max_dim))
    for _ in range(12):
        n = rng.randint(1, 7)
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.6])
        K = clique_complex(g, rng.choice([None, 1, 2]))
        orders.append(Filtration.single(K))
    for f in orders:
        faces = f.order.faces
        order = FaceOrder(faces)
        index, first, lows = _order_oracle(faces)
        assert (order.index, order.first_cofacet, order.lows) == (index, first, lows)
        K = f.final()
        want = sorted(m for m in K.face_masks if not any(o != m and o & m == m for o in K.face_masks))
        assert sorted(complexes._maximal_masks(K)) == want
        for broken in _broken_orders(rng, faces):
            want = _order_oracle(broken)
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    FaceOrder(broken)
                assert str(err.value) == want
            else:  # a swap within a level, or a maximal face dropped, keeps the order valid
                order = FaceOrder(broken)
                assert (order.index, order.first_cofacet, order.lows) == want


def test_vr_order_is_the_checked_walk_and_the_oracle():
    # a tie-free vr_filtration finds its order's fields by closed forms,
    # without the walk, and a tied one walks: either way they must be what
    # FaceOrder's walk and the definitions find, with births and params bit
    # for bit and the faces in (birth, dim, colex)
    bits = struct.Struct(">d").pack
    rng = random.Random(29)
    cases = 0
    for n in range(1, 10):
        metrics = [_oracle_metric(rng, n, kind) for kind in ("uniform", "ties", "zeros")]
        metrics.append(verify.random_metric(rng, n))
        for dist in metrics:
            halves = {face_mask((a, b)): dist[a - 1][b - 1] / 2.0 for a, b in combinations(range(1, n + 1), 2)}
            want_params = sorted({0.0, *halves.values()})
            for max_dim in (None, 0, 1, 2, 3):
                f = vr_filtration(dist, max_dim)
                order = f.order
                want = _order_oracle(order.faces)
                assert (order.index, order.first_cofacet, order.lows) == want, (dist, max_dim)
                walk = FaceOrder(order.faces)
                assert (walk.index, walk.first_cofacet, walk.lows) == want
                # births bit for bit, -0.0 included: the first maximum over
                # the pairs in lexicographic order, read from the upper triangle
                top = n if max_dim is None else min(max_dim + 1, n)
                births = {}
                for size in range(1, top + 1):
                    for face in combinations(range(1, n + 1), size):
                        pairs = [halves[face_mask(pair)] for pair in combinations(face, 2)]
                        births[face_mask(face)] = max(pairs) if pairs else 0.0
                assert {m: bits(t) for m, t in f.birth_map.items()} == {m: bits(t) for m, t in births.items()}
                assert list(map(bits, f.params)) == list(map(bits, want_params))
                assert list(order.faces) == sorted(births, key=lambda m: (births[m], m.bit_count(), m))
                cases += 1
    assert cases == 9 * 4 * 5


def test_maximal_masks_match_brute_force_on_truncated_complexes():
    # faces with as many vertices as the largest face are taken unprobed; the
    # truncations leave both those and smaller maximal faces
    rng = random.Random(22)
    complexes_seen = [SimplicialComplex(3, frozenset()), SimplicialComplex.from_faces(1, [(1,)])]
    for _ in range(40):
        n = rng.randint(2, 10)
        max_dim = rng.choice([0, 1, 2, 3])
        if rng.random() < 0.5:
            g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5])
            complexes_seen.append(clique_complex(g, max_dim))
        else:
            complexes_seen.append(vr_filtration(_oracle_metric(rng, n, "uniform"), max_dim).final())
        complexes_seen.append(random_complex(rng, n))
    smaller = 0
    for K in complexes_seen:
        want = sorted(m for m in K.face_masks if not any(o != m and o & m == m for o in K.face_masks))
        assert sorted(complexes._maximal_masks(K)) == want
        smaller += sum(m.bit_count() <= K.max_dim for m in want)
    assert smaller  # some maximal faces were found by the probe


def test_maximal_masks_match_brute_force_on_simplices_and_near_simplices():
    # a nonempty complex with 2^k - 1 faces, k the size of its largest face,
    # is a simplex and gets its one maximal face unprobed (the vertex mask is
    # never read); the near misses around that count take the probe
    rng = random.Random(37)
    cases = [(SimplicialComplex(12, frozenset()), False)]
    for k in range(1, 11):
        cases.append((simplex(12, sorted(rng.sample(range(1, 13), k))), True))
    for k in range(2, 8):
        top = sorted(rng.sample(range(1, 13), k))
        boundary = SimplicialComplex.from_faces(12, combinations(top, k - 1), close=True)
        assert len(boundary.face_masks) == (1 << k) - 2
        cases.append((boundary, False))
        rest = sorted(set(range(1, 13)) - set(top))
        cases.append((SimplicialComplex.from_faces(12, [top, (rng.choice(rest),)], close=True), False))
        other = rng.sample(rest, rng.randint(1, min(k, len(rest))))
        cases.append((SimplicialComplex.from_faces(12, [top, other], close=True), False))
    whole = simplex(6, range(1, 7))
    for dim in range(6):
        skeleton = frozenset(m for m in whole.face_masks if m.bit_count() <= dim + 1)
        cases.append((SimplicialComplex(6, skeleton), dim == 5))
    for K, is_simplex in cases:
        want = sorted(m for m in K.face_masks if not any(o != m and o & m == m for o in K.face_masks))
        assert sorted(complexes._maximal_masks(K)) == want
        assert maximal_faces(K) == {mask_face(m) for m in want}
        assert (len(want) == 1) == is_simplex
        if is_simplex:
            assert "vertex_mask" not in K.__dict__
