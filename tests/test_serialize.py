from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from idealtda.complexes import vr_filtration
from idealtda.monomials import AtomTable, FactoredElement, MonomialIdeal
from idealtda.persistence import ph_barcode, prime_barcode
from idealtda.serialize import (
    MAX_EXPONENT,
    MAX_N,
    InputError,
    barcodes_svg,
    complex_from_dict,
    complex_to_dict,
    dumps_json,
    factored_from_dict,
    factored_to_dict,
    ideal_from_dict,
    ideal_to_dict,
    labelled_from_dict,
    labelled_to_dict,
    parse_distance_csv,
    parse_points_json,
    ph_barcode_to_dict,
    points_to_distances,
    prime_barcode_to_dict,
)


def test_parse_distance_csv_good():
    text = "0, 1.5\n1.5, 0\n"
    assert parse_distance_csv(text) == [[0.0, 1.5], [1.5, 0.0]]


def test_parse_distance_csv_errors():
    with pytest.raises(InputError, match="2:2"):
        parse_distance_csv("0,1\n1,zz\n")
    with pytest.raises(InputError, match="expected 2 columns"):
        parse_distance_csv("0,1\n1\n")
    with pytest.raises(InputError, match="empty"):
        parse_distance_csv("\n\n")


def test_points_to_distances_345_triangle():
    pts = [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]
    d = points_to_distances(pts)
    assert d[0][1] == 3.0 and d[0][2] == 4.0 and d[1][2] == 5.0
    assert d[1][0] == 3.0


def test_parse_points_json_errors():
    with pytest.raises(InputError, match="'points'"):
        parse_points_json({"n": 2})
    with pytest.raises(InputError, match="nonempty"):
        parse_points_json({"points": []})
    with pytest.raises(InputError, match="coordinates"):
        parse_points_json({"points": [[1, 2], [1]]})
    with pytest.raises(InputError, match="numbers"):
        parse_points_json({"points": [["a"]]})


def test_complex_roundtrip_via_maximal_faces(demo_clique_complex):
    data = complex_to_dict(demo_clique_complex)
    assert data == {"n": 4, "faces": [[3, 4], [1, 2, 3]]}
    assert complex_from_dict(data) == demo_clique_complex
    with pytest.raises(InputError):
        complex_from_dict({"n": 3})
    with pytest.raises(InputError):
        complex_from_dict({"n": 2, "faces": [[3]]})


def test_factored_and_ideal_roundtrip():
    table = AtomTable.for_variables(3)
    m = FactoredElement(table, (1, 0, 2))
    data = factored_to_dict(m)
    assert data == {"atoms": ["x1", "x2", "x3"], "exp": [1, 0, 2]}
    assert factored_from_dict(data, table) == m
    with pytest.raises(InputError, match="does not match"):
        factored_from_dict({"atoms": ["y1"], "exp": [1]}, table)

    ideal = MonomialIdeal.from_generators(
        table, [FactoredElement.from_support(table, (1, 2))]
    )
    round_tripped = ideal_from_dict(ideal_to_dict(ideal))
    assert round_tripped == ideal


@pytest.mark.parametrize("value", [1.7, 1.0, True, "1", None])
def test_factored_and_ideal_from_dict_reject_non_integers(value):
    table = AtomTable.for_variables(2)
    with pytest.raises(InputError, match="exponent 2 is not an integer"):
        factored_from_dict({"atoms": ["x1", "x2"], "exp": [1, value]}, table)
    with pytest.raises(InputError, match="'ambient_n' is not an integer"):
        ideal_from_dict({"ambient_n": value, "generators": []})
    gen = {"atoms": ["x1", "x2"], "exp": [value, 0]}
    with pytest.raises(InputError, match="exponent 1 is not an integer"):
        ideal_from_dict({"ambient_n": 2, "generators": [gen]})


def test_vertex_count_bound():
    assert complex_from_dict({"n": MAX_N, "faces": [[1, MAX_N]]}).n == MAX_N
    with pytest.raises(InputError, match="'n' exceeds the supported maximum"):
        complex_from_dict({"n": MAX_N + 1, "faces": [[1, 2]]})
    with pytest.raises(InputError, match="'ambient_n' exceeds the supported maximum"):
        ideal_from_dict({"ambient_n": MAX_N + 1, "generators": []})


def test_factored_exponent_bound():
    table = AtomTable.for_variables(2)
    assert factored_from_dict({"atoms": ["x1", "x2"], "exp": [MAX_EXPONENT, 0]}, table).exps == (MAX_EXPONENT, 0)
    with pytest.raises(InputError, match="exponent 2 exceeds the supported maximum"):
        factored_from_dict({"atoms": ["x1", "x2"], "exp": [0, MAX_EXPONENT + 1]}, table)


def test_labelled_roundtrip_with_expansions(poly_labelled):
    data = labelled_to_dict(poly_labelled)
    assert data["atoms"] == ["x1", "x2", "x1+x2"]
    assert data["atom_polys"] == {"x1+x2": [[1, [0, 1]], [1, [1, 0]]]}
    back = labelled_from_dict(data)
    assert back.complex == poly_labelled.complex
    assert back.vertex_labels == poly_labelled.vertex_labels
    assert back.table == poly_labelled.table


def test_labelled_roundtrip_rational_coefficient():
    data = {
        "n": 2,
        "faces": [[1, 2]],
        "atoms": ["x1", "x2", "s"],
        "atom_polys": {"s": [["-1/2", [0, 1]], [3, [1, 0]]]},
        "labels": [[1, 0, 0], [0, 0, 1]],
    }
    LC = labelled_from_dict(data)
    assert LC.table.expansion_map["s"].terms == {(0, 1): Fraction(-1, 2), (1, 0): 3}
    assert labelled_to_dict(LC) == data


def test_labelled_roundtrip_plain(worked_labelled):
    data = labelled_to_dict(worked_labelled)
    assert "atom_polys" not in data
    back = labelled_from_dict(data, reduced=True)
    assert back == worked_labelled


def test_labelled_from_dict_errors():
    base = {"n": 2, "faces": [[1, 2]], "atoms": ["x1"], "labels": [[1]]}
    with pytest.raises(InputError, match="expected 2 labels"):
        labelled_from_dict(base)
    bad = dict(base, labels=[[1], [1, 2]])
    with pytest.raises(InputError, match="vertex 2"):
        labelled_from_dict(bad)
    with pytest.raises(InputError, match="malformed"):
        labelled_from_dict({"faces": []})


def test_barcode_dicts(three_point_dist):
    f = vr_filtration(three_point_dist, max_dim=2)
    sr = prime_barcode_to_dict(prime_barcode(f, "SR"))
    assert sr["kind"] == "SR"
    assert {"prime", "dim", "birth", "death"} == set(sr["intervals"][0])
    deaths = {tuple(iv["prime"]): iv["death"] for iv in sr["intervals"]}
    assert deaths[()] == "inf"
    assert deaths[(2,)] == pytest.approx(math.sqrt(2.0))
    ph = ph_barcode_to_dict(ph_barcode(f))
    assert ph["kind"] == "PH"
    assert all(iv["prime"] is None for iv in ph["intervals"])
    assert any(iv["death"] == "inf" for iv in ph["intervals"])


def test_dumps_json_is_canonical():
    a = dumps_json({"b": 1, "a": [1.5, "inf"]})
    b = dumps_json({"a": [1.5, "inf"], "b": 1})
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


def test_svg_valid_xml_one_rect_per_interval(three_point_dist):
    f = vr_filtration(three_point_dist, max_dim=2)
    groups = [
        ("SR", prime_barcode_to_dict(prime_barcode(f, "SR"))["intervals"]),
        ("EDGE", prime_barcode_to_dict(prime_barcode(f, "EDGE"))["intervals"]),
        ("PH", ph_barcode_to_dict(ph_barcode(f))["intervals"]),
    ]
    svg = barcodes_svg(groups)
    root = ET.fromstring(svg)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == sum(len(g) for _, g in groups)
    group_ids = {e.get("id") for e in root.iter() if e.tag.rsplit("}", 1)[-1] == "g"}
    assert group_ids == {"group-SR", "group-EDGE", "group-PH"}
    # deterministic output
    assert svg == barcodes_svg(groups)


def test_svg_degenerate_single_vertex():
    f = vr_filtration([[0.0]])
    groups = [("PH", ph_barcode_to_dict(ph_barcode(f))["intervals"])]
    root = ET.fromstring(barcodes_svg(groups))
    assert len([e for e in root.iter() if e.tag.endswith("rect")]) == 1
