from __future__ import annotations

import dataclasses
import math
import random
from itertools import permutations

import pytest

from idealtda import persistence
from idealtda.complexes import Filtration, SimplicialComplex, face_mask, vr_filtration
from idealtda.ideals import sr_associated_primes
from idealtda.linalg import GF2, QQ, PrimeField, _boundary_columns, _reduce_columns
from idealtda.monomials import LinearPrime, minimal_primes_squarefree
from idealtda.persistence import (
    NoResurrectionError,
    PrimeBarcode,
    PrimeInterval,
    betti_numbers,
    betti_profile,
    coverage_report,
    jump_witness,
    ph_barcode,
    prime_barcode,
    step_associated_primes,
    witness_between_steps,
    _intervals_from_runs,
)
from idealtda.ideals import stanley_reisner
from idealtda.verify import random_metric

ROOT2 = math.sqrt(2.0)


@pytest.fixture
def three_point_filtration(three_point_dist):
    return vr_filtration(three_point_dist, max_dim=2)


def test_sr_prime_barcode_three_points(three_point_filtration):
    bc = prime_barcode(three_point_filtration, "SR")
    by_prime = {iv.prime: iv for iv in bc.intervals}
    assert by_prime[LinearPrime.of((2,))].birth == 1.0
    assert by_prime[LinearPrime.of((2,))].death == ROOT2
    assert by_prime[LinearPrime.of((3,))].death == ROOT2
    # the three vertex-epoch primes die when the first edges arrive
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert by_prime[LinearPrime.of(pair)].birth == 0.0
        assert by_prime[LinearPrime.of(pair)].death == 1.0
    # full-simplex epoch is emitted and flagged
    zero = by_prime[LinearPrime.of(())]
    assert zero.birth == ROOT2 and zero.death is None
    assert zero.is_zero_ideal_epoch
    # exactly those two primes die at sqrt(2)
    dying = {iv.prime for iv in bc.intervals if iv.death == ROOT2}
    assert dying == {LinearPrime.of((2,)), LinearPrime.of((3,))}


def test_edge_prime_barcode_three_points(three_point_filtration):
    bc = prime_barcode(three_point_filtration, "EDGE")
    by_prime = {iv.prime: iv for iv in bc.intervals}
    assert by_prime[LinearPrime.of(())].death == 1.0  # edgeless epoch
    assert by_prime[LinearPrime.of((1,))].birth == 1.0
    assert by_prime[LinearPrime.of((1,))].death == ROOT2
    assert by_prime[LinearPrime.of((2, 3))].death is None


def test_single_step_barcode_is_all_infinite(demo_clique_complex):
    f = Filtration.single(demo_clique_complex, t=0.25)
    bc = prime_barcode(f, "SR")
    assert {iv.prime for iv in bc.intervals} == sr_associated_primes(demo_clique_complex)
    assert all(iv.birth == 0.25 and iv.death is None for iv in bc.intervals)


def test_prime_barcode_invariants_on_random_filtrations():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 6)
        f = vr_filtration(random_metric(rng, n))
        for kind in ("SR", "EDGE"):
            bc = prime_barcode(f, kind)
            for iv in bc.intervals:
                assert iv.death is None or iv.birth < iv.death
            # exactly one interval per prime
            primes = [iv.prime for iv in bc.intervals]
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
        oracle = _intervals_from_runs(step_associated_primes(f, kind), f.params, kind)
        assert prime_barcode(f, kind).intervals == oracle, kind


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


def test_closed_form_barcodes_on_empty_complexes():
    for n in (0, 3):
        f = Filtration.single(SimplicialComplex(n, frozenset()), t=0.5)
        _assert_closed_forms_match_per_step_route(f)
        for kind in ("SR", "EDGE"):
            (iv,) = prime_barcode(f, kind).intervals
            assert (iv.birth, iv.death) == (0.5, None)
        assert prime_barcode(f, "SR").intervals[0].prime == LinearPrime.of(tuple(range(1, n + 1)))
        assert prime_barcode(f, "EDGE").intervals[0].prime == LinearPrime.of(())


def test_prime_barcode_final_step_assertion(three_point_filtration, monkeypatch):
    monkeypatch.setattr(persistence, "step_associated_primes", lambda f, kind: [frozenset()])
    for kind in ("SR", "EDGE"):
        with pytest.raises(AssertionError, match="final decomposition"):
            prime_barcode(three_point_filtration, kind)


def test_custom_ideal_family_hook(three_point_filtration):
    bc = prime_barcode(three_point_filtration, ass_fn=sr_associated_primes)
    assert bc.kind == "CUSTOM"
    assert bc.primes() == prime_barcode(three_point_filtration, "SR").primes()


def test_no_resurrection_error_raised_on_corrupt_runs():
    ass = [
        frozenset({LinearPrime.of((1,))}),
        frozenset(),
        frozenset({LinearPrime.of((1,))}),
    ]
    with pytest.raises(NoResurrectionError):
        _intervals_from_runs(ass, (0.0, 1.0, 2.0), "SR")


def test_interval_suite_checks_closed_forms_against_runs(monkeypatch):
    from idealtda import verify

    real = verify.prime_barcode
    monkeypatch.setattr(
        verify, "prime_barcode", lambda f, kind: dataclasses.replace(real(f, kind), intervals=())
    )
    res = verify.suite_prime_interval_uniqueness(random.Random(0), 3)
    assert res.failures == 6
    assert "SR closed-form bars differ from the per-step runs" in res.detail[0]
    faulty = verify.suite_prime_interval_uniqueness(random.Random(0), 3, inject_fault=True)
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
    bars0 = list(ph.by_dim[0])
    assert bars0.count((0.0, 1.0)) == 2
    assert bars0.count((0.0, None)) == 1
    # the 1-cycle is created and filled at the same parameter: no dim-1 bar
    assert 1 not in ph.by_dim
    # sqrt(2) is an SR prime endpoint but no PH endpoint
    assert all(abs(e - ROOT2) > 1e-9 for e in ph.finite_endpoints())


def test_ph_barcode_single_vertex():
    f = vr_filtration([[0.0]])
    ph = ph_barcode(f)
    assert ph.by_dim == {0: ((0.0, None),)}


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
    yield Filtration.single(SimplicialComplex.simplex(6, range(1, 7)))
    rp2 = SimplicialComplex.from_faces(6, RP2_TRIANGLES, close=True)
    yield Filtration.from_births(6, {m: float(m.bit_count()) for m in rp2.face_masks})


def test_persistence_reduce_gf2_matches_dict_route():
    # the bitmask route with clearing against the dict reduction of the signed columns
    for f in _reduce_cases():
        births = f.birth_map
        order = sorted(births, key=lambda m: (births[m], m.bit_count(), m))
        want = _reduce_columns(_boundary_columns(order), GF2)
        assert persistence.persistence_reduce(order, GF2) == want


@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
def test_ph_barcode_max_dim_keeps_low_bars(field):
    # faces above max_dim + 1 never enter the reduction; the low bars stay
    rng = random.Random(23)
    for _ in range(12):
        f = vr_filtration(random_metric(rng, rng.randint(1, 7), 0.5))
        full = ph_barcode(f, field)
        for k in range(4):
            assert ph_barcode(f, field, k).bars == tuple((d, b) for d, b in full.bars if d <= k)


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
    assert w is not None
    assert w.level == "associated"
    assert w.prime == LinearPrime.of((2,))
    # witness at a non-critical interior parameter: nothing changes
    assert jump_witness(three_point_filtration, 0, 0.5) is None


def test_jump_witness_validates_range(three_point_filtration):
    with pytest.raises(ValueError):
        jump_witness(three_point_filtration, 0, 0.0)
    with pytest.raises(ValueError):
        jump_witness(three_point_filtration, 0, 2.0)


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
    intervals = tuple(PrimeInterval(LinearPrime.of((1,)), e, None, "SR") for e in endpoints)
    return PrimeBarcode("SR", intervals, tuple(sorted(set(endpoints))))


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


def test_prime_interval_alive_at():
    iv = PrimeInterval(LinearPrime.of((1,)), 1.0, 2.0, "SR")
    assert iv.alive_at(1.0) and iv.alive_at(1.5)
    assert not iv.alive_at(2.0) and not iv.alive_at(0.5)
    forever = PrimeInterval(LinearPrime.of((1,)), 1.0, None, "SR")
    assert forever.alive_at(100.0)
