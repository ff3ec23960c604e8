from __future__ import annotations

import dataclasses
import math
import random
import time
from itertools import permutations

import pytest

from idealtda import cli, persistence
from idealtda.complexes import FaceOrder, Filtration, SimplicialComplex, _iter_bits, face_mask, vr_filtration
from idealtda.ideals import sr_associated_primes
from idealtda.linalg import GF2, QQ, PrimeField, _boundary_columns, _reduce_columns
from idealtda.monomials import LinearPrime, minimal_primes_squarefree
from idealtda.persistence import (
    Barcode,
    betti_numbers,
    betti_profile,
    coverage_report,
    jump_witness,
    ph_barcode,
    prime_barcode,
    step_associated_primes,
    witness_between_steps,
)
from idealtda.ideals import stanley_reisner
from idealtda.serialize import MAX_N
from idealtda.verify import NoResurrectionError, intervals_from_runs, random_metric, witness_per_step

ROOT2 = math.sqrt(2.0)


@pytest.fixture
def three_point_filtration(three_point_dist):
    return vr_filtration(three_point_dist, max_dim=2)


def test_sr_prime_barcode_three_points(three_point_filtration):
    bc = prime_barcode(three_point_filtration, "SR")
    by_prime = {LinearPrime(m): (b, d) for m, b, d in bc.bars}
    assert by_prime[LinearPrime.of((2,))] == (1.0, ROOT2)
    assert by_prime[LinearPrime.of((3,))][1] == ROOT2
    # the three vertex-epoch primes die when the first edges arrive
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert by_prime[LinearPrime.of(pair)] == (0.0, 1.0)
    # the full-simplex epoch is emitted as the zero prime's bar
    assert by_prime[LinearPrime.of(())] == (ROOT2, None)
    assert (0, ROOT2, None) in bc.bars
    # exactly those two primes die at sqrt(2)
    dying = {LinearPrime(m) for m, _, d in bc.bars if d == ROOT2}
    assert dying == {LinearPrime.of((2,)), LinearPrime.of((3,))}


def test_edge_prime_barcode_three_points(three_point_filtration):
    bc = prime_barcode(three_point_filtration, "EDGE")
    by_prime = {LinearPrime(m): (b, d) for m, b, d in bc.bars}
    assert by_prime[LinearPrime.of(())][1] == 1.0  # edgeless epoch
    assert by_prime[LinearPrime.of((1,))] == (1.0, ROOT2)
    assert by_prime[LinearPrime.of((2, 3))][1] is None


def test_single_step_barcode_is_all_infinite(demo_clique_complex):
    f = Filtration.single(demo_clique_complex, t=0.25)
    bc = prime_barcode(f, "SR")
    assert {LinearPrime(m) for m, _, _ in bc.bars} == sr_associated_primes(demo_clique_complex)
    assert all(b == 0.25 and d is None for _, b, d in bc.bars)


def test_prime_barcode_invariants_on_random_filtrations():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 6)
        f = vr_filtration(random_metric(rng, n))
        for kind in ("SR", "EDGE"):
            bc = prime_barcode(f, kind)
            for _, b, d in bc.bars:
                assert d is None or b < d
            # exactly one interval per prime
            primes = [m for m, _, _ in bc.bars]
            assert len(primes) == len(set(primes))


def test_step_associated_primes_matches_transversal_oracle():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(2, 6)
        f = vr_filtration(random_metric(rng, n))
        per_step = step_associated_primes(f, "SR")
        for (t, K), ass in zip(f.steps, per_step):
            assert ass == minimal_primes_squarefree(stanley_reisner(K))


def _assert_closed_forms_match_per_step_route(f):
    for kind in ("SR", "EDGE"):
        oracle = intervals_from_runs(step_associated_primes(f, kind), f.params, kind)
        assert prime_barcode(f, kind).bars == oracle, kind


def test_closed_form_barcodes_match_per_step_route_on_vr():
    rng = random.Random(6)
    for trial in range(48):
        n = rng.randint(1, 9)
        if trial % 2:
            # integer distances: many tied births
            dist = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = dist[j][i] = float(rng.randint(1, 3))
        else:
            dist = random_metric(rng, n)
        _assert_closed_forms_match_per_step_route(
            vr_filtration(dist, (None, 0, 1, 2)[trial % 4])
        )


def test_closed_form_barcodes_match_per_step_route_from_births():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
        K = SimplicialComplex.from_faces(n, gens, close=True)
        births: dict[int, float] = {}
        # subfaces first, so every face is born no earlier than its subfaces
        for m in sorted(K.face_masks, key=int.bit_count):
            subs = [births[m ^ (1 << v)] for v in range(n) if m >> v & 1 and m ^ (1 << v)]
            births[m] = max([float(rng.randint(1, 4))] + subs)
        # forced parameters before the first birth and between births
        params = [float(rng.randint(-1, 5)) for _ in range(rng.randint(1, 3))]
        _assert_closed_forms_match_per_step_route(Filtration.from_births(n, births, params))


def test_edge_closed_form_when_an_outside_vertex_hangs_on_the_removed_end():
    # on a path and a star (vertex 6 isolated) an insertion often kills a set I
    # with a vertex outside I adjacent to the removed end only, so I - {x} is
    # not maximal; every insertion order, with distinct and with paired births
    n = 6
    path = [(1, 2), (2, 3), (3, 4), (4, 5)]
    star = [(1, 2), (1, 3), (1, 4), (1, 5)]
    for edges in (path, star):
        for order in permutations(edges):
            for tie in (1, 2):
                births = {1 << v: 0.0 for v in range(n)}
                for t, e in enumerate(order, start=1):
                    births[face_mask(e)] = float((t + tie - 1) // tie)
                _assert_closed_forms_match_per_step_route(Filtration.from_births(n, births))


def _edge_bars_by_scan(f):
    """The EDGE closed form as it was before it read f.order: the edges come
    from a scan of the whole birth map, sorted by (birth, mask)."""
    full = (1 << f.n) - 1
    adj = [0] * (f.n + 1)
    live = {full: f.params[0]}
    out = []
    for t, e in sorted((t, m) for m, t in f.birth_map.items() if m.bit_count() == 2):
        lo = e & -e
        hi = e ^ lo
        adj[lo.bit_length()] |= hi
        adj[hi.bit_length()] |= lo
        for I in [I for I in live if I & e == e]:
            b = live.pop(I)
            if b < t:
                out.append((full & ~I, b, t))
            for x in (lo, hi):
                J = I ^ x
                if all(adj[u.bit_length()] & J for u in _iter_bits(adj[x.bit_length()] & ~I)):
                    live[J] = t
    out.extend((full & ~I, b, None) for I, b in live.items())
    return out


def _edge_scan_cases(rng):
    for trial in range(120):
        n = rng.randint(1, 8)
        kind = trial % 3
        dist = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if kind == 0:
                    dist[i][j] = dist[j][i] = rng.uniform(0.2, 2.0)
                elif kind == 1:  # integer distances: many tied births
                    dist[i][j] = dist[j][i] = float(rng.randint(1, 3))
                else:  # zeros of either sign, apart on each side of the diagonal
                    dist[i][j], dist[j][i] = rng.choice([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 1.0)])
        yield vr_filtration(dist, (None, 1, 2)[trial // 3 % 3])
    for _ in range(40):
        n = rng.randint(1, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
        K = SimplicialComplex.from_faces(n, gens, close=True)
        yield Filtration.single(K, rng.choice((0.0, -0.0, 0.5)))
        births: dict[int, float] = {}
        for m in sorted(K.face_masks, key=int.bit_count):
            subs = [births[m ^ (1 << v)] for v in range(n) if m >> v & 1 and m ^ (1 << v)]
            births[m] = max([rng.choice((-0.0, 0.0, 1.0, 2.0))] + subs)
        yield Filtration.from_births(n, births, [3.0])
        yield Filtration(n, births, tuple(sorted(set(births.values()) | {3.0})))  # raw: walks on first access


def test_edge_intervals_read_the_edges_off_the_order():
    # the same bars, in the same order, with every birth and death bit for
    # bit (-0.0 included), as the edges of a (birth, mask) scan of the births
    cases = 0
    for f in _edge_scan_cases(random.Random(30)):
        got, want = persistence._edge_intervals(f), _edge_bars_by_scan(f)
        assert [(m, repr(b), repr(d)) for m, b, d in got] == [(m, repr(b), repr(d)) for m, b, d in want]
        cases += 1
    assert cases == 120 + 3 * 40


def test_closed_form_barcodes_on_empty_complexes():
    for n in (0, 3):
        f = Filtration.single(SimplicialComplex(n, frozenset()), t=0.5)
        _assert_closed_forms_match_per_step_route(f)
        for kind in ("SR", "EDGE"):
            ((_, b, d),) = prime_barcode(f, kind).bars
            assert (b, d) == (0.5, None)
        assert prime_barcode(f, "SR").bars[0][0] == LinearPrime.of(tuple(range(1, n + 1))).mask
        assert prime_barcode(f, "EDGE").bars[0][0] == LinearPrime.of(()).mask


def test_prime_barcode_final_step_assertion(three_point_filtration, monkeypatch):
    monkeypatch.setattr(persistence, "step_associated_primes", lambda f, kind: [frozenset()])
    for kind in ("SR", "EDGE"):
        with pytest.raises(AssertionError, match="final decomposition"):
            prime_barcode(three_point_filtration, kind)


def test_final_check_still_fires_on_untruncated_vr(monkeypatch):
    # the final complex of an untruncated VR filtration is the full simplex,
    # whose one maximal face the final check finds without a probe; the check
    # still runs on every call and refuses endless SR bars that differ from it
    rng = random.Random(37)
    real_intervals, real_steps = persistence._sr_intervals, persistence.step_associated_primes
    calls = []
    monkeypatch.setattr(
        persistence, "step_associated_primes", lambda f, kind: calls.append(kind) or real_steps(f, kind)
    )
    corruptions = (
        # the top face's bar (the zero prime) dies after all
        lambda bars: [(m, b, b + 1.0 if m == 0 else d) for m, b, d in bars],
        # the face without vertex 1 never dies: prime P_{1} is endless too
        lambda bars: [*bars, (0b1, bars[0][1], None)],
    )
    for n in range(3, 9):
        points = [(rng.random(), rng.random()) for _ in range(n)]
        f = vr_filtration([[math.dist(p, q) for q in points] for p in points])
        assert f.final().face_masks == frozenset(range(1, 1 << n))
        assert {m for m, _, d in prime_barcode(f, "SR").bars if d is None} == {0}
        for corrupt in corruptions:
            with monkeypatch.context() as patch:
                patch.setattr(persistence, "_sr_intervals", lambda f, corrupt=corrupt: corrupt(real_intervals(f)))
                with pytest.raises(AssertionError, match="final decomposition"):
                    prime_barcode(f, "SR")
    assert calls == ["SR"] * 18


def _alive(barcode, t):
    return [key for key, birth, death in barcode.bars if birth <= t and (death is None or t < death)]


def _assert_bars_recover_the_steps(f, ph=None):
    """At every parameter t the bars alive at t give back K_t and G_t: the
    complements of the live SR primes are the facets of K_t, found by
    probing each face's facets, and a vertex pair lies in no live EDGE set
    (the complement of an EDGE prime) exactly when it is an edge of G_t,
    the 1-skeleton of K_t.  With ``ph`` (the PH barcode of ``f``), the PH
    bars alive at t also count the Betti numbers of K_t, by the rank
    route."""
    universe = (1 << f.n) - 1
    sr, edge = prime_barcode(f, "SR"), prime_barcode(f, "EDGE")
    for t in f.params:
        K = [m for m, birth in f.birth_map.items() if birth <= t]
        covered = {m ^ bit for m in K for bit in _iter_bits(m)}
        assert sorted(universe ^ m for m in _alive(sr, t)) == sorted(set(K) - covered), t
        neighbours = [0] * f.n
        for m in K:
            if m.bit_count() == 2:
                lo = m & -m
                neighbours[lo.bit_length() - 1] |= m ^ lo
                neighbours[(m ^ lo).bit_length() - 1] |= lo
        # the union of the live sets that contain v is v and its non-neighbours
        union = [0] * f.n
        for I in (universe ^ m for m in _alive(edge, t)):
            for bit in _iter_bits(I):
                union[bit.bit_length() - 1] |= I
        assert union == [universe ^ adj for adj in neighbours], t
        if ph is not None:
            betti = persistence.classical_betti(SimplicialComplex(f.n, frozenset(K)), GF2)
            assert [ph.count_at(t, k) for k in betti] == list(betti.values()), t


def test_bars_recover_the_complex_the_graph_and_the_betti_numbers():
    # seeded VR filtrations on at most 8 points, with and without ties
    rng = random.Random(40)
    for tie_prob in (0.0, 0.5):
        for _ in range(40):
            n, max_dim = rng.randint(1, 8), rng.choice([None, 0, 1, 2])
            f = vr_filtration(random_metric(rng, n, tie_prob), max_dim)
            _assert_bars_recover_the_steps(f, ph_barcode(f))


def test_bars_recover_the_complex_and_the_graph_at_ladder_size():
    # the n=30 row of the scripts/bench.py ladder: 4525 faces over 436 steps
    f = vr_filtration(random_metric(random.Random(30), 30, 0.0), 2)
    assert (len(f.birth_map), len(f.params)) == (4525, 436)
    _assert_bars_recover_the_steps(f)


def test_custom_ideal_family_recipe(three_point_filtration):
    # the bars of any monotone square-free family: decompose every step and
    # read off the runs; on the face ideals they are the SR closed form
    f = three_point_filtration
    runs = [frozenset(sr_associated_primes(K)) for _, K in f.steps]
    assert intervals_from_runs(runs, f.params, "SR") == prime_barcode(f, "SR").bars


def test_no_resurrection_error_raised_on_corrupt_runs():
    ass = [
        frozenset({LinearPrime.of((1,))}),
        frozenset(),
        frozenset({LinearPrime.of((1,))}),
    ]
    with pytest.raises(NoResurrectionError):
        intervals_from_runs(ass, (0.0, 1.0, 2.0), "SR")


def test_interval_suite_checks_closed_forms_against_runs(monkeypatch, inject_prime_fault):
    from idealtda import verify

    real = verify.prime_barcode
    monkeypatch.setattr(
        verify, "prime_barcode", lambda f, kind: dataclasses.replace(real(f, kind), bars=())
    )
    res = verify.suite_prime_interval_uniqueness(random.Random(0), 3)
    assert res.failures == 6
    assert "SR closed-form bars differ from the per-step runs" in res.detail[0]
    inject_prime_fault()
    faulty = verify.suite_prime_interval_uniqueness(random.Random(0), 3)
    assert faulty.failures == 6
    assert "resurrects" in faulty.detail[0]


def test_betti_profile_three_points(three_point_filtration):
    prof = betti_profile(three_point_filtration, GF2)
    assert prof.at(0.0, 0) == 3
    assert prof.at(1.0, 0) == 1
    assert prof.at(ROOT2, 0) == 1
    assert prof.at(5.0, 1) == 0
    # contractible from t=1 onward: all higher betti vanish
    assert prof.betti[-1] == (1, 0, 0)
    with pytest.raises(ValueError, match="precedes the filtration"):
        prof.at(-0.5, 0)


def test_betti_isolated_vertices_and_hollow_triangle():
    K = SimplicialComplex.from_faces(4, [(1,), (2,), (3,), (4,)])
    assert betti_numbers(K, GF2) == [4]
    hollow = SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)], close=True)
    assert betti_numbers(hollow, GF2) == [1, 1]
    assert betti_numbers(hollow, QQ) == [1, 1]
    assert betti_numbers(hollow, GF2, reduced=True) == [0, 0, 1]
    filled = SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True)
    assert betti_numbers(filled, GF2) == [1, 0, 0]


def test_betti_fields_agree_on_random_complexes():
    rng = random.Random(2)
    f997 = PrimeField(997)
    for _ in range(15):
        n = rng.randint(1, 6)
        gens = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))) for _ in range(3)]
        K = SimplicialComplex.from_faces(n, gens + [(1,)], close=True)
        assert betti_numbers(K, GF2) == betti_numbers(K, QQ) == betti_numbers(K, f997)


def test_ph_barcode_three_points(three_point_filtration):
    ph = ph_barcode(three_point_filtration)
    bars0 = [(b, d) for dim, b, d in ph.bars if dim == 0]
    assert bars0.count((0.0, 1.0)) == 2
    assert bars0.count((0.0, None)) == 1
    # the 1-cycle is created and filled at the same parameter: no dim-1 bar
    assert all(dim != 1 for dim, _, _ in ph.bars)
    # sqrt(2) is an SR prime endpoint but no PH endpoint
    assert all(abs(e - ROOT2) > 1e-9 for e in ph.finite_endpoints())


def test_ph_barcode_single_vertex():
    f = vr_filtration([[0.0]])
    ph = ph_barcode(f)
    assert ph.bars == ((0, 0.0, None),)


def test_ph_bar_counts_match_betti_profile():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 6)
        f = vr_filtration(random_metric(rng, n))
        ph = ph_barcode(f)
        prof = betti_profile(f, GF2)
        top = f.final().max_dim
        for t in f.params:
            for k in range(top + 1):
                assert ph.count_at(t, k) == prof.at(t, k)
        for (_, K), row in zip(f.steps, prof.betti):
            assert list(row) == betti_numbers(K, GF2, top=top)


def test_ph_bar_counts_match_betti_profile_over_gf5():
    rng = random.Random(13)
    f5 = PrimeField(5)
    for _ in range(5):
        f = vr_filtration(random_metric(rng, rng.randint(2, 5)))
        ph = ph_barcode(f, f5)
        prof = betti_profile(f, f5)
        top = f.final().max_dim
        for t in f.params:
            for k in range(top + 1):
                assert ph.count_at(t, k) == prof.at(t, k)
        for (_, K), row in zip(f.steps, prof.betti):
            assert list(row) == betti_numbers(K, f5, top=top)


RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def _profile_cases(rng):
    for max_dim in (None, 0, 1, 2):
        for _ in range(3):
            yield vr_filtration(random_metric(rng, rng.randint(1, 6)), max_dim)
    yield Filtration.single(SimplicialComplex(3, frozenset()), 0.5)
    # vertices 1 and 2 and their edge, with two forced steps before the first birth
    yield Filtration.from_births(3, {0b001: 1.0, 0b010: 2.0, 0b011: 2.0}, params=[-1.0, 0.0, 3.0])
    # the 6-vertex projective plane, one dimension per step: H_1 has 2-torsion,
    # so its Betti numbers over GF(2) differ from those over Q and GF(5)
    rp2 = SimplicialComplex.from_faces(6, RP2_TRIANGLES, close=True)
    yield Filtration.from_births(6, {m: float(m.bit_count()) for m in rp2.face_masks})


def _reduce_cases():
    rng = random.Random(17)
    for n in range(1, 11):
        for max_dim in (None, 0, 1, 2, 3):
            for tie_prob in (0.0, 0.5):
                yield vr_filtration(random_metric(rng, n, tie_prob), max_dim)
    yield Filtration.single(SimplicialComplex.from_faces(6, [range(1, 7)], close=True))
    rp2 = SimplicialComplex.from_faces(6, RP2_TRIANGLES, close=True)
    yield Filtration.from_births(6, {m: float(m.bit_count()) for m in rp2.face_masks})


def test_persistence_reduce_gf2_matches_dict_route():
    # the bitmask route with clearing against the dict reduction of the signed columns
    for f in _reduce_cases():
        births = f.birth_map
        order = sorted(births, key=lambda m: (births[m], m.bit_count(), m))
        want = _reduce_columns(_boundary_columns(order), GF2)
        assert persistence.persistence_reduce(order, GF2) == want


def _check_face_order(f):
    # the one walk against a brute-force scan: the (birth, dimension, colex)
    # order, each face's position, each face's youngest facet, and each
    # face's first cofacet, whose birth is the earliest of the vertices
    # that extend the face
    births, order = f.birth_map, f.order
    faces, index = order.faces, order.index
    assert list(faces) == sorted(births, key=lambda m: (births[m], m.bit_count(), m))
    assert index == {m: j for j, m in enumerate(faces)}
    lows = {}
    for j, m in enumerate(faces):
        if m.bit_count() > 1:
            low = max(index[m & ~(1 << v)] for v in range(f.n) if m >> v & 1)
            positions, youngest = lows.setdefault(m.bit_count() - 1, ([], []))
            positions.append(j)
            youngest.append(low)
    assert order.lows == lows
    assert len(order.first_cofacet) == len(faces)
    for m in births:
        cofacets = [m | 1 << v for v in range(f.n) if not m >> v & 1 and m | 1 << v in births]
        j = order.first_cofacet[index[m]]
        if not cofacets:
            assert j is None
            continue
        assert j == min(index[c] for c in cofacets)
        assert births[faces[j]] == min(births[c] for c in cofacets)


def test_face_order_matches_a_brute_force_scan():
    # from_births builds the order while it checks the subfaces; a raw or
    # single filtration builds it on first access
    for f in _reduce_cases():
        _check_face_order(f)
        _check_face_order(Filtration(f.n, f.birth_map, f.params))
        _check_face_order(Filtration.single(f.final(), f.params[-1]))


@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
def test_persistence_reduce_takes_a_face_order_or_masks(field):
    for f in _reduce_cases():
        masks = list(f.order.faces)
        want = persistence.persistence_reduce(masks, field)
        assert persistence.persistence_reduce(FaceOrder(masks), field) == want


def test_tie_free_vr_filtrations_make_no_checked_walk(monkeypatch, tmp_path):
    # a tie-free vr_filtration builds its order by closed forms and a tied
    # one walks all its faces once, before it returns; a truncating PH and a
    # complex's single-step filtration walk their faces, once each
    built = []
    init = FaceOrder.__init__

    def counting_init(self, faces):
        built.append(len(faces))
        init(self, faces)

    def tie_count(dist):
        halves = [x for j, row in enumerate(dist) for x in row[:j]]
        return len(halves) - len(set(halves))

    monkeypatch.setattr(FaceOrder, "__init__", counting_init)
    for tie_prob, want in ((0.0, 0), (0.5, 1)):
        dist = random_metric(random.Random(8), 7, tie_prob)
        assert bool(tie_count(dist)) == bool(want)
        built.clear()
        f = vr_filtration(dist, max_dim=2)
        walked = list(built)  # so a timer of vr_filtration, not of SR, books the walk
        prime_barcode(f, "SR")
        prime_barcode(f, "EDGE")
        ph_barcode(f)
        assert walked == built == [len(f.birth_map)] * want
    # a -0.0 and a 0.0 half-distance tie too
    built.clear()
    f = vr_filtration([[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ph_barcode(f)
    assert built == [7]
    # a max_dim that drops faces checks and indexes their subsequence anew
    built.clear()
    f = vr_filtration(random_metric(random.Random(8), 5, 0.0))
    prime_barcode(f, "SR")
    ph_barcode(f, GF2, 1)
    assert built == [25]
    # the CLI: vr_filtration truncates itself, a complex is truncated by PH
    cx = tmp_path / "c.json"
    cx.write_text('{"n": 4, "faces": [[1, 2, 3, 4]]}')
    cases = [(cx, "complex-json", [15, 14])]
    for name, tie_prob, want in (("free", 0.0, []), ("tied", 0.25, [6 + 15])):
        dist = random_metric(random.Random(3), 6, tie_prob)
        assert bool(tie_count(dist)) == bool(want)
        csv = tmp_path / f"{name}.csv"
        csv.write_text("\n".join(",".join(map(str, row)) for row in dist) + "\n")
        cases.append((csv, "dist-csv", want))
    for path, fmt, want in cases:
        built.clear()
        argv = ["barcodes", "--input", str(path), "--format", fmt, "--max-dim", "1", "--out", str(tmp_path / path.stem)]
        assert cli.main(argv) == 0
        assert built == want


def test_sr_rejects_a_raw_filtration_born_before_its_subfaces():
    for births in ({0b01: 0.0, 0b10: 1.0, 0b11: 0.0}, {0b01: 0.0, 0b11: 0.0}):
        f = Filtration(2, births, tuple(sorted(set(births.values()))))
        with pytest.raises(ValueError, match="before subface"):
            prime_barcode(f, "SR")


def test_edge_rejects_a_raw_filtration_born_before_its_subfaces():
    # EDGE reads its edges off the checked order, which refuses such a filtration
    for births in ({0b01: 0.0, 0b10: 1.0, 0b11: 0.0}, {0b01: 0.0, 0b11: 0.0}):
        f = Filtration(2, births, tuple(sorted(set(births.values()))))
        with pytest.raises(ValueError, match="before subface"):
            prime_barcode(f, "EDGE")


@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
def test_ph_barcode_max_dim_keeps_low_bars(field):
    # faces above max_dim + 1 never enter the reduction; the low bars stay
    rng = random.Random(23)
    for _ in range(12):
        f = vr_filtration(random_metric(rng, rng.randint(1, 7), 0.5))
        full = ph_barcode(f, field)
        for k in range(4):
            assert ph_barcode(f, field, k).bars == tuple(bar for bar in full.bars if bar[0] <= k)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
@pytest.mark.parametrize("top", [None, 3])
def test_betti_profile_matches_rank_route(reduced, field, top):
    rng = random.Random(41)
    for f in _profile_cases(rng):
        prof = betti_profile(f, field, reduced, top)
        want_top = max(f.final().max_dim, 0) if top is None else top
        assert prof.params == f.params
        for (_, K), row in zip(f.steps, prof.betti, strict=True):
            assert list(row) == betti_numbers(K, field, reduced, want_top)


def test_jump_witness_three_points(three_point_filtration):
    w = jump_witness(three_point_filtration, 0, 1.0)
    assert w == LinearPrime.of((2,))
    # witness at a non-critical interior parameter: nothing changes
    assert jump_witness(three_point_filtration, 0, 0.5) is None


def test_jump_witness_validates_range(three_point_filtration):
    with pytest.raises(ValueError):
        jump_witness(three_point_filtration, 0, 0.0)
    with pytest.raises(ValueError):
        jump_witness(three_point_filtration, 0, 2.0)


def test_jump_witness_rejects_negative_k0():
    # b_{-1} is not tracked: -1 would read b_0 and -3 would index past it
    f = vr_filtration([[0, 1, 1.2], [1, 0, 1.5], [1.2, 1.5, 0]])
    for k0 in (-1, -3):
        with pytest.raises(ValueError, match=f"k0={k0}"):
            jump_witness(f, k0, 0.6)
    assert jump_witness(f, 0, 0.6) is not None


def test_jump_witness_none_on_constant_segment(three_point_dist):
    # truncating to vertices only freezes the complex at every threshold
    f = vr_filtration(three_point_dist, max_dim=0)
    assert jump_witness(f, 0, 1.0) is None


def test_every_betti_jump_has_witness():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(2, 6)
        f = vr_filtration(random_metric(rng, n))
        prof = betti_profile(f, GF2)
        for i in range(1, len(f.steps)):
            if prof.betti[i] != prof.betti[i - 1]:
                assert witness_between_steps(f, i) is not None


def test_witness_between_equal_steps_is_none():
    f = Filtration.from_births(2, {0b01: 0.0, 0b10: 0.0}, params=[0.0, 1.0])
    assert f.steps[0][1] == f.steps[1][1]
    assert witness_between_steps(f, 1) is None


def _witness_cases(rng):
    for n in range(1, 8):
        for max_dim in (None, 0, 1, 2):
            for tie_prob in (0.0, 0.5):
                yield vr_filtration(random_metric(rng, n, tie_prob), max_dim)
    yield Filtration.single(SimplicialComplex(3, frozenset()), 0.5)
    # forced steps before, between and after the births, and tied births
    yield Filtration.from_births(3, {0b001: 1.0, 0b010: 2.0, 0b011: 2.0}, params=[-1.0, 0.0, 1.5, 3.0])
    yield Filtration.from_births(3, {0b001: 0.0, 0b010: 0.0, 0b100: 0.0, 0b011: 1.0, 0b110: 1.0}, params=[0.0, 0.5, 1.0, 2.0])
    yield Filtration.from_births(2, {0b01: 0.0, 0b10: 0.0}, params=[0.0, 1.0])
    rp2 = SimplicialComplex.from_faces(6, RP2_TRIANGLES, close=True)
    yield Filtration.from_births(6, {m: float(m.bit_count()) for m in rp2.face_masks})


def test_witness_between_steps_is_the_per_step_witness_at_every_step(monkeypatch):
    # the first call keeps every step's witness with f, so a scan of all
    # steps builds the SR bars once
    calls = []
    sr_intervals = persistence._sr_intervals

    def counting(f):
        calls.append(f)
        return sr_intervals(f)

    monkeypatch.setattr(persistence, "_sr_intervals", counting)
    found = {True: 0, False: 0}
    for f in _witness_cases(random.Random(31)):
        calls.clear()
        for i in range(1, len(f.params)):
            got = witness_between_steps(f, i)
            assert got == witness_per_step(f, i), (f.params, i)
            found[got is None] += 1
        assert len(calls) == (len(f.params) > 1), f.params
    assert found[True] and found[False] > 300, found


def _dense_jump_witness(f, k0, t0, field):
    """jump_witness by dense ranks of the two step complexes."""
    hi = f.index_at(t0)
    if f.params[hi] != t0:
        return None
    lo = f.params[hi - 1]
    if betti_numbers(f.complex_at(lo), field, top=k0)[k0] == betti_numbers(f.complex_at(t0), field, top=k0)[k0]:
        return None
    return witness_per_step(f, hi)


@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
def test_jump_witness_is_the_dense_rank_route(field):
    jumps = 0
    for f in _witness_cases(random.Random(37)):
        params = f.params
        ts = list(params[1:-1]) + [(a + b) / 2 for a, b in zip(params[1:-2], params[2:-1])]
        for k0 in range(3):
            for t0 in ts:
                got = jump_witness(f, k0, t0, field)
                assert got == _dense_jump_witness(f, k0, t0, field), (params, k0, t0)
                jumps += got is not None
    assert jumps > 100, jumps


def test_witnesses_read_only_the_bars(monkeypatch):
    cases = list(_witness_cases(random.Random(43)))[::5]
    want = [
        ([witness_between_steps(f, i) for i in range(1, len(f.params))],
         [jump_witness(f, k0, t, GF2) for k0 in range(2) for t in f.params[1:-1]])
        for f in cases
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("a witness built a step complex or a decomposition")

    monkeypatch.setattr(Filtration, "complex_at", forbidden)
    for name in ("betti_numbers", "sr_associated_primes", "step_associated_primes"):
        monkeypatch.setattr(persistence, name, forbidden)
    for f, (steps, jumps) in zip(cases, want, strict=True):
        assert [witness_between_steps(f, i) for i in range(1, len(f.params))] == steps
        assert [jump_witness(f, k0, t, GF2) for k0 in range(2) for t in f.params[1:-1]] == jumps
    assert any(w for steps, _ in want for w in steps) and any(w for _, jumps in want for w in jumps)


def test_witnesses_reject_a_raw_filtration_born_before_its_subfaces():
    f = Filtration(2, {0b01: 0.0, 0b10: 2.0, 0b11: 1.0}, (0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="before subface"):
        witness_between_steps(f, 1)
    with pytest.raises(ValueError, match="before subface"):
        jump_witness(f, 0, 1.0)


def test_production_path_builds_no_step_complexes():
    f = vr_filtration(random_metric(random.Random(8), 7), max_dim=2)
    prime_barcode(f, "SR")
    prime_barcode(f, "EDGE")
    ph_barcode(f)
    betti_profile(f, GF2, reduced=True)
    witness_between_steps(f, len(f.params) - 1)
    jump_witness(f, 0, f.params[1])
    assert "steps" not in vars(f)
    # the lazy view agrees with the birth map
    for t, K in f.steps:
        assert K.face_masks == {m for m, b in f.birth_map.items() if b <= t}


def test_coverage_report_fixtures(three_point_dist, three_point_filtration):
    bc = prime_barcode(three_point_filtration, "SR")
    rep = coverage_report(three_point_dist, bc)
    assert rep.ok and rep.pairs_checked == 3
    two = [[0.0, 3.0], [3.0, 0.0]]
    rep2 = coverage_report(two, prime_barcode(vr_filtration(two), "SR"))
    assert rep2.ok and rep2.pairs_checked == 1


def test_coverage_report_random_and_violation_detection():
    rng = random.Random(5)
    for _ in range(10):
        dist = random_metric(rng, rng.randint(2, 5))
        f = vr_filtration(dist)
        assert coverage_report(dist, prime_barcode(f, "SR")).ok
    # a barcode missing an endpoint is reported
    fake = prime_barcode(vr_filtration([[0.0, 2.0], [2.0, 0.0]]), "SR")
    bad = coverage_report([[0.0, 9.0], [9.0, 0.0]], fake)
    assert not bad.ok and bad.violations == ((1, 2, 4.5),)


def _endpoint_barcode(endpoints):
    # a barcode whose finite endpoints are exactly the given values
    bars = tuple((LinearPrime.of((1,)).mask, e, None) for e in endpoints)
    return Barcode("SR", bars)


def test_coverage_report_tolerance_boundary():
    two = [[0.0, 2.0], [2.0, 0.0]]  # one target, 1.0
    tol = 0.25  # a power of two, so 1.0 +- tol is exact
    assert coverage_report(two, _endpoint_barcode([0.5, 1.0, 3.0]), tol).ok
    assert coverage_report(two, _endpoint_barcode([1.25]), tol).ok
    assert coverage_report(two, _endpoint_barcode([0.0, 0.75]), tol).ok
    just_over = math.nextafter(1.25, 2.0)
    rep = coverage_report(two, _endpoint_barcode([0.0, just_over]), tol)
    assert rep.violations == ((1, 2, 1.0),)
    rep = coverage_report(two, _endpoint_barcode([math.nextafter(0.75, 0.0), just_over]), tol)
    assert rep.violations == ((1, 2, 1.0),)
    # duplicate endpoints on either side of the target
    assert coverage_report(two, _endpoint_barcode([1.0, 1.0, 1.0]), tol).ok
    assert coverage_report(two, _endpoint_barcode([0.5, 0.5, 1.25, 1.25]), tol).ok
    assert not coverage_report(two, _endpoint_barcode([0.5, 0.5, 2.0, 2.0]), tol).ok


def test_coverage_report_matches_scan_of_all_endpoints():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 6)
        dist = random_metric(rng, n, 0.5)
        ends = [dist[i][j] / 2.0 for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7]
        ends = [e + rng.choice((0.0, 1e-12, -1e-12, 3e-13, -3e-13)) for e in ends]
        ends += [rng.uniform(0.0, 1.0) for _ in range(rng.randint(0, 3))]
        rep = coverage_report(dist, _endpoint_barcode(ends))
        want = tuple(
            (i + 1, j + 1, dist[i][j] / 2.0)
            for i in range(n)
            for j in range(i + 1, n)
            if not any(abs(e - dist[i][j] / 2.0) <= 1e-12 for e in ends)
        )
        assert rep.pairs_checked == n * (n - 1) // 2
        assert rep.violations == want


def test_barcode_count_at():
    # a bar is alive on [birth, death), and forever when death is None
    one, two = LinearPrime.of((1,)).mask, LinearPrime.of((2,)).mask
    bc = Barcode("SR", ((one, 1.0, 2.0), (two, 1.0, None)))
    assert [bc.count_at(t, one) for t in (0.5, 1.0, 1.5, 2.0)] == [0, 1, 1, 0]
    assert [bc.count_at(t, two) for t in (0.5, 1.0, 100.0)] == [0, 1, 1]
    assert bc.count_at(1.5, LinearPrime.of((3,)).mask) == 0


def _linear_prime_order(bars):
    # (birth, finite deaths first, death, prime), primes by LinearPrime.sort_key
    return sorted(
        bars, key=lambda bar: (bar[1], bar[2] is None, bar[2] if bar[2] is not None else 0.0, LinearPrime(bar[0]).sort_key())
    )


def test_bar_order_is_the_linear_prime_order():
    rng = random.Random(19)
    for _ in range(300):
        masks = set()
        sizes = [rng.randrange(6) for _ in range(3)]  # few sizes, so equal popcounts meet
        for _ in range(rng.randrange(40)):
            length = rng.choice((1, 3, 8, 40, 63, 64, 65, 200, MAX_N))
            size = min(rng.choice(sizes) if rng.random() < 0.7 else rng.randrange(length + 1), length)
            masks.add(sum(1 << v for v in rng.sample(range(length), size)))
        times = [0.0, -0.0, 0.5, 1.0]
        bars = [(m, rng.choice(times), rng.choice(times + [None])) for m in masks]
        rng.shuffle(bars)
        want = _linear_prime_order(bars)
        got = persistence._sorted_bars(list(bars))
        assert [(m, repr(b), repr(d)) for m, b, d in got] == [(m, repr(b), repr(d)) for m, b, d in want]
        # the prime order alone: one birth and one death for every bar
        same = [(m, 0.0, None) for m in masks]
        assert persistence._sorted_bars(same) == tuple(sorted(same, key=lambda bar: LinearPrime(bar[0]).sort_key()))


def test_finite_endpoints_scan_the_bars():
    rng = random.Random(20)
    for _ in range(20):
        f = vr_filtration(random_metric(rng, rng.randint(1, 7)), rng.choice((None, 1, 2)))
        for bc in (prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f)):
            assert bc.finite_endpoints() == [t for _, b, d in bc.bars for t in (b, d) if t is not None]


def _disjoint_edges(k: int) -> Filtration:
    """k disjoint edges at one parameter: 2^k maximal independent sets."""
    return Filtration.single(SimplicialComplex.from_faces(2 * k, [(2 * i + 1, 2 * i + 2) for i in range(k)], close=True))


def test_edge_bar_budget_is_exact(monkeypatch):
    # 3 disjoint edges have 8 EDGE bars: within a budget of 8, over one of 7
    monkeypatch.setattr(persistence, "MAX_EDGE_BARS", 8)
    assert len(prime_barcode(_disjoint_edges(3), "EDGE").bars) == 8
    monkeypatch.setattr(persistence, "MAX_EDGE_BARS", 7)
    with pytest.raises(ValueError, match=r"the EDGE barcode has more than 7 bars \(persistence.MAX_EDGE_BARS\) by parameter 0.0"):
        prime_barcode(_disjoint_edges(3), "EDGE")
    # the budget counts EDGE bars only: SR gives one bar per edge
    monkeypatch.setattr(persistence, "MAX_EDGE_BARS", 2)
    assert len(prime_barcode(_disjoint_edges(3), "SR").bars) == 3


def test_edge_bar_budget_stops_the_enumeration_early():
    # 2^20 EDGE bars; the enumeration stops after the 19th edge
    f = _disjoint_edges(20)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {persistence.MAX_EDGE_BARS} bars"):
        prime_barcode(f, "EDGE")
    assert time.perf_counter() - start < 5
