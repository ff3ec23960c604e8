"""Metamorphic relations for the barcodes at ladder sizes.

The oracles of the other tests are exponential and stop at about ten
vertices.  A metamorphic relation needs none: it compares two runs of the
production path on related inputs (Chen, Cheung and Yiu 1998; Segura et
al., IEEE TSE 2016).  Both relations run at n=16 untruncated and at n=30
with max_dim 2, each on a seeded metric with many ties, whose order is the
checked walk, and on a tie-free one, whose order is the closed form of
``vr_filtration``:

- relabel the vertices by a seeded permutation: the SR and EDGE bars map by
  it, as sets, and the PH bars are equal;
- double every distance: every birth and death doubles exactly (a float
  doubles without rounding), and the bars keep their order; also on
  subnormal metrics whose halves are exact.

At the same sizes the closed-form order equals the walk over its faces.
One more relation crosses the input formats: a ``points-json`` cloud and the
``dist-csv`` of its distances give the same outputs, apart from the input
recorded in the metadata.

Two relations cover the labelled chain complexes at the sizes of the
labelled ladder of ``scripts/bench.py``: full simplices of 127, 255 and
511 faces with monomial and composite labels, seeded as there, and a
168-face complex with three 2-dimensional holes, reduced and not:

- multiply every vertex label by one common atom: each face label gains
  that atom once, so every entry m_sigma / m_tau of the k >= 1 matrices
  stays the same, only the augmentation row gains the atom, and the
  fraction-field ranks stay the same, as the evaluation oracle's do;
- relabel the vertices by a seeded permutation: the ranks, the Betti
  numbers and the verdicts of the chain and diagonal checks stay the same.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from idealtda import cli
from idealtda.complexes import FaceOrder, SimplicialComplex, vr_filtration
from idealtda.labelled import (
    boundary_matrices,
    chain_condition_check,
    diag_relation_check,
    evaluate_chain,
    fraction_field_ranks,
    make_labelled,
)
from idealtda.linalg import GF2, QQ
from idealtda.monomials import AtomTable, FactoredElement
from idealtda.persistence import betti_from_ranks, classical_boundary_ranks, ph_barcode, prime_barcode
from idealtda.verify import RingPolynomial, admissible_point, random_metric

# (n, max_dim, tie probability)
SIZES = [
    pytest.param(16, None, 0.5, id="n16-full"),
    pytest.param(16, None, 0.0, id="n16-full-tie-free"),
    pytest.param(30, 2, 0.5, id="n30-max-dim-2"),
    pytest.param(30, 2, 0.0, id="n30-max-dim-2-tie-free"),
]


def _barcodes(dist, max_dim):
    """The SR, EDGE and PH barcodes of the VR filtration, as `barcodes` computes them."""
    f = vr_filtration(dist, max_dim)
    return prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f, GF2, max_dim)


def _metric(n, tie_prob):
    return random_metric(random.Random(n), n, tie_prob)


def _relabel(mask, perm):
    out = 0
    for i, p in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << p
    return out


@pytest.mark.parametrize("n, max_dim, tie_prob", SIZES)
def test_relabelled_vertices_relabel_the_prime_bars(n, max_dim, tie_prob):
    dist = _metric(n, tie_prob)
    perm = list(range(n))
    random.Random(n + 1).shuffle(perm)  # vertex i + 1 becomes vertex perm[i] + 1
    moved = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            moved[perm[i]][perm[j]] = dist[i][j]
    sr, edge, ph = _barcodes(dist, max_dim)
    sr2, edge2, ph2 = _barcodes(moved, max_dim)
    for bc, bc2 in ((sr, sr2), (edge, edge2)):
        assert len(bc.bars) == len(bc2.bars) == len(set(bc2.bars))
        assert {(_relabel(m, perm), b, d) for m, b, d in bc.bars} == set(bc2.bars), bc.kind
    assert ph2.bars == ph.bars
    assert len(edge.bars) > n and len(ph.bars) > n  # the relation compares real work


@pytest.mark.parametrize("n, max_dim, tie_prob", SIZES)
def test_doubled_distances_double_every_endpoint(n, max_dim, tie_prob):
    dist = _metric(n, tie_prob)
    doubled = [[2 * x for x in row] for row in dist]
    for bc, bc2 in zip(_barcodes(dist, max_dim), _barcodes(doubled, max_dim)):
        want = tuple((key, 2 * b, None if d is None else 2 * d) for key, b, d in bc.bars)
        assert bc2.bars == want, bc.kind


@pytest.mark.parametrize("n, max_dim", [(10, None), (16, 2)])
def test_doubled_subnormal_distances_double_every_endpoint(n, max_dim):
    # even multiples of the least subnormal 5e-324 halve exactly, and so do
    # their doubles, so each distinct distance is a step of its own
    rng = random.Random(n)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = 2 * rng.randint(1, 40) * 5e-324
    doubled = [[2 * x for x in row] for row in dist]
    assert all(x / 2 * 2 == x for row in dist + doubled for x in row)
    assert len(vr_filtration(dist, max_dim).params) == len({x for row in dist for x in row})
    for bc, bc2 in zip(_barcodes(dist, max_dim), _barcodes(doubled, max_dim)):
        want = tuple((key, 2 * b, None if d is None else 2 * d) for key, b, d in bc.bars)
        assert bc2.bars == want, bc.kind


@pytest.mark.parametrize("n, max_dim, tie_prob", [size for size in SIZES if size.values[2] == 0.0])
def test_the_closed_form_order_is_the_walk(n, max_dim, tie_prob):
    f = vr_filtration(_metric(n, tie_prob), max_dim)
    order = f.__dict__["order"]  # set by the closed forms, not walked
    births = f.birth_map
    assert list(order.faces) == sorted(births, key=lambda m: (births[m], m.bit_count(), m))
    walk = FaceOrder(order.faces)
    assert order.index == walk.index
    assert order.lows == walk.lows
    assert order.first_cofacet == walk.first_cofacet


def _gaussian_cloud():
    rng = random.Random(13)
    return [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(13)]


GRID = [[i, j] for i in range(4) for j in range(4)]
OUTPUTS = ("barcodes.json", "barcodes.svg", "report.json")


@pytest.mark.parametrize("points", [_gaussian_cloud(), GRID], ids=["n13-gaussian", "grid-4x4"])
def test_points_and_their_distances_give_the_same_outputs(tmp_path, monkeypatch, points):
    # the grid has ties, so its order is the walk; the cloud has none
    monkeypatch.chdir(tmp_path)
    dist = [[math.dist(p, q) for q in points] for p in points]
    halves = [d for j, row in enumerate(dist) for d in row[:j]]
    assert (len(set(halves)) < len(halves)) == (points is GRID)
    inputs = {
        "points-json": json.dumps({"points": points}),
        "dist-csv": "".join(",".join(map(repr, row)) + "\n" for row in dist),
    }
    outputs = {}
    for fmt, text in inputs.items():
        (tmp_path / fmt).write_text(text, encoding="utf-8")
        assert cli.main(["barcodes", "--input", fmt, "--format", fmt, "--out", fmt + "-out", "--svg"]) == 0
        outputs[fmt] = {name: (tmp_path / (fmt + "-out") / name).read_bytes() for name in OUTPUTS}
    got, want = outputs["points-json"], outputs["dist-csv"]
    assert got["barcodes.svg"] == want["barcodes.svg"]
    assert got["report.json"] == want["report.json"]
    # the keys are sorted, so the bars come before the metadata
    bars, meta = got["barcodes.json"].split(b'\n  "meta": ')
    want_bars, want_meta = want["barcodes.json"].split(b'\n  "meta": ')
    assert bars == want_bars
    assert json.loads(meta[:-2]) == {**json.loads(want_meta[:-2]), "input": "points-json", "format": "points-json"}
    assert sum(len(bc["intervals"]) for bc in json.loads(got["barcodes.json"])["barcodes"]) > len(points)


def _labelled_table(kind):
    """The atoms of the labelled ladder's rows of this kind."""
    if kind == "monomial":
        return AtomTable.for_variables(4)
    x1, x2 = RingPolynomial.variable(2, 0), RingPolynomial.variable(2, 1)
    expansions = {"x1+x2": x1 + x2, "x1-x2+1": x1 - x2 + 1}
    return AtomTable(("x1", "x2") + tuple(expansions), tuple(expansions.items()))


def _ladder_complex(shape, n):
    if shape == "simplex":
        return SimplicialComplex.from_faces(n, [tuple(range(1, n + 1))], close=True)
    rng = random.Random(0)
    return SimplicialComplex.from_faces(n, [sorted(rng.sample(range(1, n + 1), 5)) for _ in range(10)], close=True)


# (label kind, shape, vertices): 127, 255 and 511 faces, and 168 with holes
LABELLED_SIZES = [
    pytest.param(kind, shape, n, id=f"{kind}-{shape}-{n}")
    for kind, shape, n in (
        ("composite", "simplex", 7),
        ("composite", "simplex", 8),
        ("composite", "simplex", 9),
        ("monomial", "simplex", 9),
        ("composite", "holes", 9),
        ("monomial", "holes", 9),
    )
]


def _labelled_pair(kind, shape, n):
    """The complex and its labels, exponents 0..2 seeded by Random(n) as
    the labelled ladder seeds them."""
    table = _labelled_table(kind)
    rng = random.Random(n)
    labels = [FactoredElement(table, tuple(rng.randint(0, 2) for _ in table.atoms)) for _ in range(n)]
    return _ladder_complex(shape, n), labels


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
@pytest.mark.parametrize("kind, shape, n", LABELLED_SIZES)
def test_a_common_atom_leaves_the_label_quotients(kind, shape, n, reduced):
    K, labels = _labelled_pair(kind, shape, n)
    LC = make_labelled(K, labels, reduced=reduced)
    common = FactoredElement.from_support(LC.table, (3,)).exps  # x3, or the composite x1+x2

    def times_common(exps):
        return tuple(a + b for a, b in zip(exps, common))

    scaled = make_labelled(K, [FactoredElement(LC.table, times_common(m.exps)) for m in labels], reduced=reduced)
    for cm, cm2 in zip(boundary_matrices(LC).matrices, boundary_matrices(scaled).matrices, strict=True):
        if cm.k:
            assert cm2 == cm
        else:  # the augmentation row: d({v}) = -m_v * (), and m_v gains the atom
            assert cm2.columns == tuple(tuple((i, s, times_common(e)) for i, s, e in col) for col in cm.columns)
    ranks = fraction_field_ranks(LC)
    assert fraction_field_ranks(scaled) == ranks == classical_boundary_ranks(K, QQ, reduced=reduced)
    assert evaluate_chain(scaled, admissible_point(scaled)).ranks() == ranks  # the evaluation oracle


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
@pytest.mark.parametrize("kind, shape, n", LABELLED_SIZES)
def test_relabelled_vertices_keep_the_labelled_ranks_and_verdicts(kind, shape, n, reduced):
    K, labels = _labelled_pair(kind, shape, n)
    perm = list(range(1, n + 1))
    random.Random(n + 1).shuffle(perm)  # vertex v becomes vertex perm[v - 1]
    moved_labels = [None] * n
    for v, label in zip(perm, labels):
        moved_labels[v - 1] = label
    moved = SimplicialComplex.from_faces(n, [[perm[v - 1] for v in face] for face in K.faces()])
    results = []
    for LC in (make_labelled(K, labels, reduced=reduced), make_labelled(moved, moved_labels, reduced=reduced)):
        ranks = fraction_field_ranks(LC)
        betti = betti_from_ranks({k: LC.ncells(k) for k in LC.dims()}, ranks)
        results.append((ranks, betti, chain_condition_check(LC), diag_relation_check(LC)))
    assert results[1] == results[0]
    ranks, betti, chain, diag = results[0]
    assert chain and diag and ranks == classical_boundary_ranks(K, QQ, reduced=reduced)
    assert sum(betti.values()) == (4 if shape == "holes" else 1) - reduced
    # the labels moved with their vertices, so the labelled matrices differ
    LC, LC2 = make_labelled(K, labels), make_labelled(moved, moved_labels)
    assert any(a != b for a, b in zip(boundary_matrices(LC).matrices, boundary_matrices(LC2).matrices))
