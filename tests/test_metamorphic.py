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
  doubles without rounding), and the bars keep their order.

At the same sizes the closed-form order equals the walk over its faces.
One more relation crosses the input formats: a ``points-json`` cloud and the
``dist-csv`` of its distances give the same outputs, apart from the input
recorded in the metadata.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from idealtda import cli
from idealtda.complexes import FaceOrder, vr_filtration
from idealtda.linalg import GF2
from idealtda.persistence import ph_barcode, prime_barcode
from idealtda.verify import random_metric

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
