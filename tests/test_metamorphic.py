"""Metamorphic relations for the barcodes at ladder sizes.

The oracles of the other tests are exponential and stop at about ten
vertices.  A metamorphic relation needs none: it compares two runs of the
production path on related inputs (Chen, Cheung and Yiu 1998; Segura et
al., IEEE TSE 2016).  Both relations run on seeded metrics with many ties,
at n=16 untruncated and at n=30 with max_dim 2:

- relabel the vertices by a seeded permutation: the SR and EDGE bars map by
  it, as sets, and the PH bars are equal;
- double every distance: every birth and death doubles exactly (a float
  doubles without rounding), and the bars keep their order.
"""

from __future__ import annotations

import random

import pytest

from idealtda.complexes import vr_filtration
from idealtda.linalg import GF2
from idealtda.persistence import ph_barcode, prime_barcode
from idealtda.verify import random_metric

SIZES = [pytest.param(16, None, id="n16-full"), pytest.param(30, 2, id="n30-max-dim-2")]


def _barcodes(dist, max_dim):
    """The SR, EDGE and PH barcodes of the VR filtration, as `barcodes` computes them."""
    f = vr_filtration(dist, max_dim)
    return prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f, GF2, max_dim)


def _metric(n):
    return random_metric(random.Random(n), n, 0.5)


def _relabel(mask, perm):
    out = 0
    for i, p in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << p
    return out


@pytest.mark.parametrize("n, max_dim", SIZES)
def test_relabelled_vertices_relabel_the_prime_bars(n, max_dim):
    dist = _metric(n)
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


@pytest.mark.parametrize("n, max_dim", SIZES)
def test_doubled_distances_double_every_endpoint(n, max_dim):
    dist = _metric(n)
    doubled = [[2 * x for x in row] for row in dist]
    for bc, bc2 in zip(_barcodes(dist, max_dim), _barcodes(doubled, max_dim)):
        want = tuple((key, 2 * b, None if d is None else 2 * d) for key, b, d in bc.bars)
        assert bc2.bars == want, bc.kind
