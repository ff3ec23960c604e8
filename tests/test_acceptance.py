"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output); together they pin down the exact fixtures, the property
suites at full trial counts, and the CLI determinism guarantee.
"""

from __future__ import annotations

import json
import math
import random
import time

from idealtda.cli import main
from idealtda.complexes import clique_complex, vr_filtration
from idealtda.ideals import complement_graph, edge_ideal, stanley_reisner
from idealtda.labelled import boundary_matrices, graded_slice, slice_iso_check
from idealtda.monomials import AtomTable, FactoredElement, LinearPrime, MonomialIdeal
from idealtda.persistence import ph_barcode, prime_barcode
from idealtda.verify import (
    suite_associated_prime_oracles,
    suite_betti_jump_witness,
    suite_clique_complement_identity,
    suite_evaluation_equivalence,
    suite_fraction_field_ranks,
    suite_graded_slice_homology,
    suite_half_distance_coverage,
    suite_prime_interval_uniqueness,
    suite_vertex_cover_oracles,
)

ROOT2 = math.sqrt(2.0)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"[{num:>2}/10] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_01_three_point_cloud_prime_deaths(three_point_dist):
    start = time.perf_counter()
    f = vr_filtration(three_point_dist, max_dim=2)
    sr = prime_barcode(f, "SR")
    dying = {LinearPrime(m): d for m, _, d in sr.bars if d is not None}
    primes_at_root2 = {p for p, d in dying.items() if abs(d - ROOT2) <= 1e-12}
    ph = ph_barcode(f)
    ph_hits_root2 = any(abs(e - ROOT2) <= 1e-12 for e in ph.finite_endpoints())
    elapsed = time.perf_counter() - start
    ok = (
        primes_at_root2 == {LinearPrime.of((2,)), LinearPrime.of((3,))}
        and not ph_hits_root2
        and elapsed < 1.0
    )
    _report(1, "3-point cloud: prime deaths at sqrt(2), no PH endpoint there", ok)


def test_02_four_vertex_ideal_identities(demo_graph, demo_clique_complex, demo_hollow_complex):
    start = time.perf_counter()
    X4 = AtomTable.for_variables(4)

    def sf(*support):
        return FactoredElement.from_support(X4, support)

    def ideal(*gens):
        return MonomialIdeal.from_generators(X4, gens)

    complement_clique = clique_complex(complement_graph(demo_graph))
    ok = (
        stanley_reisner(demo_clique_complex) == ideal(sf(1, 4), sf(2, 4))
        and stanley_reisner(complement_clique)
        == edge_ideal(demo_clique_complex)
        == ideal(sf(1, 2), sf(1, 3), sf(2, 3), sf(3, 4))
        and edge_ideal(complement_clique) == ideal(sf(1, 4), sf(2, 4))
        and stanley_reisner(demo_hollow_complex) == ideal(sf(1, 4), sf(2, 4), sf(1, 2, 3))
        and stanley_reisner(demo_hollow_complex) != edge_ideal(complement_clique)
    )
    elapsed = time.perf_counter() - start
    _report(2, "4-vertex ideal identities, exact structural equality", ok and elapsed < 1.0)


def test_03_clique_complement_identity_500():
    res = suite_clique_complement_identity(random.Random(103), 500, nmax=8)
    _report(3, "clique-complement identity on 500 random graphs", res.failures == 0)


def test_04_no_resurrection_200():
    res = suite_prime_interval_uniqueness(random.Random(104), 200, nmax=7)
    _report(4, "one interval per prime on 200 random filtrations", res.failures == 0)


def test_05_jump_witness_and_coverage_200():
    witness = suite_betti_jump_witness(random.Random(105), 200, nmax=7)
    coverage = suite_half_distance_coverage(random.Random(205), 200, nmax=7)
    _report(
        5,
        "betti-jump witnesses and half-distance coverage on 200 filtrations",
        witness.failures == 0 and coverage.failures == 0,
    )


def test_06_worked_example_matrix_fixtures(worked_labelled):
    start = time.perf_counter()
    names = worked_labelled.table.atoms
    bm = boundary_matrices(worked_labelled)
    d1_ok = bm.matrix(1).render(names) == [
        ["x2*x3", "x2*x4", "0", "x3*x4"],
        ["-x1", "0", "x4", "0"],
        ["0", "-x1", "-x3", "0"],
        ["0", "0", "0", "-x1"],
    ]
    d2_ok = [row[0] for row in bm.matrix(2).render(names)] == ["-x4", "x3", "-x1", "0"]
    sl = graded_slice(worked_labelled, (0, 1, 1, 1))
    mats = sl.matrices
    slice_ok = (
        mats[1] == [[1], [-1], [0]]
        and mats[0] == [[-1, -1, -1]]
        and slice_iso_check(graded_slice(worked_labelled, (0, 1, 1, 1)))
    )
    elapsed = time.perf_counter() - start
    _report(6, "worked labelled example: exact matrices and graded slice", d1_ok and d2_ok and slice_ok and elapsed < 1.0)


def test_07_evaluation_and_rank_equivalence_200():
    betti = suite_evaluation_equivalence(random.Random(107), 200, nmax=7, tvars=4)
    ranks = suite_fraction_field_ranks(random.Random(207), 200, nmax=7, tvars=4)
    _report(
        7,
        "evaluation betti and fraction-field ranks on 200 labelled complexes",
        betti.failures == 0 and ranks.failures == 0,
    )


def test_08_graded_slice_homology_100x5():
    res = suite_graded_slice_homology(random.Random(108), 100, alphas_per=5, nmax=7, tvars=4)
    _report(8, "graded slice homology on 100 labelled complexes x 5 degrees", res.failures == 0)


def test_09_oracle_agreement_500_each():
    ass = suite_associated_prime_oracles(random.Random(109), 500, nmax=7)
    covers = suite_vertex_cover_oracles(random.Random(209), 500, nmax=8)
    _report(
        9,
        "combinatorial vs transversal prime routes on 500+500 instances",
        ass.failures == 0 and covers.failures == 0,
    )


def test_10_cli_determinism(three_point_dist, tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("\n".join(",".join(repr(x) for x in row) for row in three_point_dist))
    runs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        assert main(["barcodes", "--input", str(csv), "--out", str(out), "--svg"]) == 0
        runs.append(
            (
                (out / "barcodes.json").read_bytes(),
                (out / "report.json").read_bytes(),
                (out / "barcodes.svg").read_bytes(),
            )
        )
    payload = json.loads(runs[0][0])
    has_all_kinds = [g["kind"] for g in payload["barcodes"]] == ["SR", "EDGE", "PH"]
    _report(10, "byte-identical CLI output across repeated runs", len(set(runs)) == 1 and has_all_kinds)
