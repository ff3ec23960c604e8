from __future__ import annotations

import io
import json
import math
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from idealtda.complexes import vr_filtration
from idealtda.persistence import KIND_PH, Barcode, ph_barcode, prime_barcode
from idealtda.serialize import (
    CHUNK,
    MAX_EXPONENT,
    MAX_N,
    InputError,
    barcodes_svg,
    complex_from_dict,
    dumps_json,
    labelled_from_dict,
    parse_distance_csv,
    parse_points_json,
    ph_barcode_to_dict,
    points_to_distances,
    prime_barcode_to_dict,
)
from idealtda.verify import random_metric


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
    assert complex_from_dict({"n": 4, "faces": [[3, 4], [1, 2, 3]]}) == demo_clique_complex
    with pytest.raises(InputError):
        complex_from_dict({"n": 3})
    with pytest.raises(InputError):
        complex_from_dict({"n": 2, "faces": [[3]]})


def test_vertex_count_bound():
    assert complex_from_dict({"n": MAX_N, "faces": [[1, MAX_N]]}).n == MAX_N
    with pytest.raises(InputError, match="'n' exceeds the supported maximum"):
        complex_from_dict({"n": MAX_N + 1, "faces": [[1, 2]]})
    labelled = {"n": MAX_N + 1, "faces": [[1, 2]], "atoms": ["x1"], "labels": [[1]] * (MAX_N + 1)}
    with pytest.raises(InputError, match="'n' exceeds the supported maximum"):
        labelled_from_dict(labelled)


@pytest.mark.parametrize("value", [1.7, 1.0, True, "1", None])
def test_labelled_and_complex_from_dict_reject_non_integers(value, poly_labelled, labelled_to_dict):
    text = re.escape(json.dumps(value))
    with pytest.raises(InputError, match=rf"'n' is not an integer: {text}\)$"):
        complex_from_dict({"n": value, "faces": []})
    data = labelled_to_dict(poly_labelled)
    with pytest.raises(InputError, match=rf"'n' is not an integer: {text}\)$"):
        labelled_from_dict(dict(data, n=value))
    labels = [list(row) for row in data["labels"]]
    labels[1][2] = value
    with pytest.raises(InputError, match=rf"vertex 2 \(exponent 3 is not an integer: {text}\)$"):
        labelled_from_dict(dict(data, labels=labels))
    expansion = [[1, [0, value]], [1, [1, 0]]]
    with pytest.raises(InputError, match=rf"term 1 exponent 2 is not an integer: {text}\)$"):
        labelled_from_dict(dict(data, atom_polys={"x1+x2": expansion}))


def test_labelled_exponent_bound(poly_labelled, labelled_to_dict):
    data = labelled_to_dict(poly_labelled)
    at_bound = dict(data, labels=[[0, 0, 1], [MAX_EXPONENT, 0, 0], [1, 1, 0]])
    assert labelled_from_dict(at_bound).vertex_labels[1].exps == (MAX_EXPONENT, 0, 0)
    with pytest.raises(InputError, match=r"vertex 2 \(exponent 1 exceeds the supported maximum"):
        labelled_from_dict(dict(data, labels=[[0, 0, 1], [MAX_EXPONENT + 1, 0, 0], [1, 1, 0]]))
    expansion = [[1, [0, MAX_EXPONENT]], [1, [1, 0]]]
    assert labelled_from_dict(dict(data, atom_polys={"x1+x2": expansion})).table.expansions
    expansion = [[1, [0, MAX_EXPONENT + 1]], [1, [1, 0]]]
    with pytest.raises(InputError, match="term 1 exponent 2 exceeds the supported maximum"):
        labelled_from_dict(dict(data, atom_polys={"x1+x2": expansion}))


def test_labelled_roundtrip_with_expansions(poly_labelled, labelled_to_dict):
    data = labelled_to_dict(poly_labelled)
    assert data["atoms"] == ["x1", "x2", "x1+x2"]
    assert data["atom_polys"] == {"x1+x2": [[1, [0, 1]], [1, [1, 0]]]}
    back = labelled_from_dict(data)
    assert back.complex == poly_labelled.complex
    assert back.vertex_labels == poly_labelled.vertex_labels
    assert back.table == poly_labelled.table


def test_labelled_roundtrip_rational_coefficient(labelled_to_dict):
    data = {
        "n": 2,
        "faces": [[1, 2]],
        "atoms": ["x1", "x2", "s"],
        "atom_polys": {"s": [["-1/2", [0, 1]], [3, [1, 0]]]},
        "labels": [[1, 0, 0], [0, 0, 1]],
    }
    LC = labelled_from_dict(data)
    assert dict(LC.table.expansions)["s"].terms == {(0, 1): Fraction(-1, 2), (1, 0): 3}
    assert labelled_to_dict(LC) == data


def test_labelled_roundtrip_plain(worked_labelled, labelled_to_dict):
    data = labelled_to_dict(worked_labelled)
    assert "atom_polys" not in data
    back = labelled_from_dict(data, reduced=True)
    assert back == worked_labelled


@pytest.mark.parametrize("atom, text", [(7, "7"), (None, "null"), (["x"], '["x"]')], ids=["int", "null", "list"])
def test_atom_names_must_be_strings(atom, text):
    labelled = {"n": 2, "faces": [[1, 2]], "atoms": ["x1", atom], "labels": [[1, 0], [0, 1]]}
    with pytest.raises(InputError, match=rf"^in.json: 'atoms' entry 2 is not a string: {re.escape(text)}$"):
        labelled_from_dict(labelled, origin="in.json")
    with pytest.raises(InputError, match=rf"^in.json: 'atoms' entry 1 is not a string: {re.escape(text)}$"):
        labelled_from_dict(dict(labelled, atoms=[atom, "y"]), origin="in.json")
    with pytest.raises(InputError, match="'atoms' must be a list"):
        labelled_from_dict(dict(labelled, atoms="xy"))


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
    barcodes = [prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f)]
    svg = barcodes_svg(barcodes)
    root = ET.fromstring(svg)
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == sum(len(bc.bars) for bc in barcodes)
    group_ids = {e.get("id") for e in root.iter() if e.tag.rsplit("}", 1)[-1] == "g"}
    assert group_ids == {"group-SR", "group-EDGE", "group-PH"}
    # deterministic output
    assert svg == barcodes_svg(barcodes)


def test_svg_degenerate_single_vertex():
    f = vr_filtration([[0.0]])
    root = ET.fromstring(barcodes_svg([ph_barcode(f)]))
    assert len([e for e in root.iter() if e.tag.endswith("rect")]) == 1


# --- the writers against their oracles ---------------------------------------

_SCALARS = [
    0, -1, 7, 10**30, -(10**30), 2**64,
    -0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1, 1.5, -2.75, 1e300,
    True, False, None,
    "", "a", "inf", "<x1,x2>", 'say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f",
    "café ☃ \U0001f600",
]
_STRINGS = [t for t in _SCALARS if type(t) is str] + ["-x1^2*s", "\u2603\x00", "\"\\"]
_KEYS = {
    "str": ["a", "b", "birth", "", 'q"uote', "\\", "\n", "üß", "\U0001f600"],
    "num": [0, 1, -3, 10**20, 0.5, -2.25, 1e16, 5e-324, True, False],
    "none": [None],
}


def _payload(rng: random.Random, depth: int):
    r = rng.random()
    if depth == 0 or r < 0.35:
        return rng.choice(_SCALARS)
    if r < 0.45:  # all ints, as a prime's vertices
        return [rng.randrange(-(10 ** rng.randrange(1, 31)), 10 ** rng.randrange(1, 31)) for _ in range(rng.randrange(6))]
    if r < 0.55:  # all strings, as a rendered boundary row
        return [rng.choice(_STRINGS) for _ in range(rng.randrange(6))]
    if r < 0.75:
        items = [_payload(rng, depth - 1) for _ in range(rng.randrange(5))]
        return items if rng.random() < 0.7 else tuple(items)
    # keys of one family, so the standard library can sort them
    keys = _KEYS[rng.choice(("str", "str", "num", "none"))]
    return {rng.choice(keys): _payload(rng, depth - 1) for _ in range(rng.randrange(5))}


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class _Int(int):
    pass


class _Float(float):
    def __repr__(self):
        return "not JSON"


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


def test_dumps_json_matches_the_standard_library_on_random_payloads():
    rng = random.Random(14)
    for _ in range(500):
        obj = _payload(rng, rng.randrange(5))
        assert dumps_json(obj) == _stdlib_json(obj), obj
    # subclasses miss the exact-type dispatch and take the isinstance fallbacks
    subclassed = (
        [_Int(3), _Float(1.5), 1.5, _Float(-0.0), 0.0, _Str("s"), _List([1, _Int(2)]), _List()],
        _Dict({_Str("k"): _Float(2.5), "j": _Dict()}),
        {"a": _List([_Dict({"b": 1.5}), _Float(1.5)]), "b": (_Int(-7), True, None)},
    )
    # lists of exact ints or exact strings are joined in one call; any other
    # item, a bool or a subclass among them, sends the list item by item
    mixed = ([1, True, 2], [_Int(1), 2], ["a", _Str("b")], ("a", "b"), [[1, 2], [], ["x"]], _STRINGS)
    for obj in ([], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [1, [2, [3]]], ([1, 2], (3,)), _SCALARS, _KEYS) + subclassed + mixed:
        assert dumps_json(obj) == _stdlib_json(obj), obj


def test_dumps_json_matches_the_standard_library_on_a_barcode_payload(three_point_dist):
    f = vr_filtration(three_point_dist, max_dim=2)
    payload = {
        "meta": {"input": "in.csv", "max_dim": 2, "seed": 0},
        "barcodes": [
            prime_barcode_to_dict(prime_barcode(f, "SR")),
            prime_barcode_to_dict(prime_barcode(f, "EDGE")),
            ph_barcode_to_dict(ph_barcode(f)),
        ],
    }
    assert dumps_json(payload) == _stdlib_json(payload)


@pytest.mark.parametrize(
    "obj, error",
    [
        (math.nan, ValueError),
        (math.inf, ValueError),
        ([1, {"a": -math.inf}], ValueError),
        ({math.nan: 1}, ValueError),
        ({1, 2}, TypeError),
        ([Fraction(1, 2)], TypeError),
        ({"a": object()}, TypeError),
        ({(1, 2): 3}, TypeError),
        ({"a": 1, 2: 3}, TypeError),  # keys the standard library cannot sort
    ],
)
def test_dumps_json_refuses_what_the_standard_library_refuses(obj, error):
    with pytest.raises(error):
        _stdlib_json(obj)
    with pytest.raises(error):
        dumps_json(obj)


def _svg_oracle(groups) -> str:
    """The dict-walking SVG writer that barcodes_svg replaced, kept as its oracle."""
    bar_h, gap, left, right_pad, top = 14.0, 6.0, 150.0, 40.0, 30.0
    span = 520.0
    finite: list[float] = []
    total = 0
    for _, intervals in groups:
        total += len(intervals)
        for iv in intervals:
            finite.append(iv["birth"])
            if iv["death"] != "inf":
                finite.append(iv["death"])
    tmax = max(finite, default=1.0)
    if tmax <= 0:
        tmax = 1.0

    def x(t: float) -> float:
        return left + span * (t / tmax)  # t / tmax <= 1, as in barcodes_svg: no product overflows

    def escape(text: str) -> str:
        return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    height = top * 2 + total * (bar_h + gap) + len(groups) * 24
    width = left + span + right_pad
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<line x1="{left}" y1="{top - 10}" x2="{left}" y2="{height - 10}" '
        'stroke="#888" stroke-width="1"/>',
    ]
    y = top
    palette = {"SR": "#1f77b4", "EDGE": "#2ca02c", "PH": "#d62728"}
    for kind, intervals in groups:
        color = palette.get(kind, "#555555")
        lines.append(f'<g id="group-{escape(kind)}">')
        lines.append(
            f'<text x="8" y="{y + 10:.1f}" font-size="13" font-family="monospace">'
            f"{escape(kind)}</text>"
        )
        y += 24
        for iv in intervals:
            x0 = x(iv["birth"])
            infinite = iv["death"] == "inf"
            x1 = left + span + right_pad / 2 if infinite else x(iv["death"])
            if iv["prime"] is not None:
                label = "<0>" if not iv["prime"] else "<" + ",".join(f"x{v}" for v in iv["prime"]) + ">"
            else:
                label = f"dim {iv['dim']}"
            lines.append(
                f'<text x="12" y="{y + bar_h - 3:.1f}" font-size="11" '
                f'font-family="monospace">{escape(label)}</text>'
            )
            lines.append(
                f'<rect class="bar" x="{x0:.3f}" y="{y:.1f}" '
                f'width="{max(x1 - x0, 1.0):.3f}" height="{bar_h:.1f}" fill="{color}"/>'
            )
            if infinite:
                ax = left + span + right_pad / 2
                ay = y + bar_h / 2
                lines.append(
                    f'<path d="M {ax:.1f} {ay - 5:.1f} L {ax + 9:.1f} {ay:.1f} '
                    f'L {ax:.1f} {ay + 5:.1f} Z" fill="{color}"/>'
                )
            y += bar_h + gap
        lines.append("</g>")
    lines.append(
        f'<text x="{left}" y="{height - 2:.0f}" font-size="10" font-family="monospace">0</text>'
    )
    lines.append(
        f'<text x="{left + span - 20:.0f}" y="{height - 2:.0f}" font-size="10" '
        f'font-family="monospace">{tmax:.4g}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _to_dict(barcode) -> dict:
    return ph_barcode_to_dict(barcode) if barcode.kind == KIND_PH else prime_barcode_to_dict(barcode)


class _Pieces(io.StringIO):
    """An open text file that keeps each piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, piece):
        self.pieces.append(piece)
        return super().write(piece)


def _streamed(payload, draw: bool) -> tuple[str, str | None]:
    """What ``dumps_json(payload, file, svg=...)`` writes to the two files
    (None for the SVG file when ``draw`` is false), checked to come a chunk
    of bars at a time: no piece holds more than CHUNK bars, counted by
    ``"birth"`` and ``<rect``."""
    fh, sh = _Pieces(), _Pieces() if draw else None
    assert dumps_json(payload, fh, svg=sh) is None
    for file, mark in ((fh, '"birth"'), (sh, "<rect")):
        if file is not None:
            assert max((piece.count(mark) for piece in file.pieces), default=0) <= CHUNK
    return fh.getvalue(), sh and sh.getvalue()


def _assert_writers_match_their_oracles(barcodes) -> None:
    """dumps_json and barcodes_svg read the bars; the interval dicts, the
    standard library and _svg_oracle are their oracles, of the returned
    texts and of the two files that one walk over the bars writes alike,
    and the JSON file is the same without the SVG one."""
    dicts = [_to_dict(bc) for bc in barcodes]
    for bc, d in zip(barcodes, dicts):
        assert dumps_json(bc) == dumps_json(d) == _stdlib_json(d)
    payload = {"meta": {"seed": 0, "note": "a\x00b"}, "barcodes": barcodes}
    want = _stdlib_json(dict(payload, barcodes=dicts))
    want_svg = _svg_oracle([(d["kind"], d["intervals"]) for d in dicts])
    assert dumps_json(payload) == want and barcodes_svg(barcodes) == want_svg
    assert _streamed(payload, True) == (want, want_svg)
    assert _streamed(payload, False) == (want, None)


def test_barcode_writers_match_their_oracles_on_seeded_filtrations():
    rng = random.Random(14)
    seen = {"zero prime": False, "infinite bar": False, "tmax <= 0": False}
    for n in range(1, 10):
        for max_dim in (1, 2):
            for _ in range(3):
                f = vr_filtration(random_metric(rng, n, 0.3), max_dim)
                sr = prime_barcode(f, "SR")
                barcodes = [
                    sr,
                    prime_barcode(f, "EDGE"),
                    ph_barcode(f),
                    Barcode("<other & kind>", sr.bars[:2]),
                ]
                _assert_writers_match_their_oracles(barcodes)
                bars = [iv for bc in barcodes for iv in _to_dict(bc)["intervals"]]
                seen["zero prime"] |= any(iv["prime"] == [] for iv in bars)
                seen["infinite bar"] |= any(iv["death"] == "inf" for iv in bars)
                seen["tmax <= 0"] |= all(t == "inf" or t <= 0 for iv in bars for t in (iv["birth"], iv["death"]))
    assert all(seen.values()), seen
    assert barcodes_svg([]) == _svg_oracle([])


@pytest.mark.parametrize("scale", [1e306, 1e307, 1e308])
def test_barcode_writers_match_their_oracles_near_the_float_limit(scale):
    # every distance lies in [0.7, 1] * scale: a coordinate scaled as
    # span * t / tmax overflows at the largest ends, span * (t / tmax) does not
    rng = random.Random(int(math.log10(scale)))
    for n, max_dim in ((5, None), (7, 2)):
        dist = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = rng.uniform(0.7, 1.0) * scale
        f = vr_filtration(dist, max_dim)
        assert 520.0 * max(f.params) == math.inf
        _assert_writers_match_their_oracles([prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f)])


def _repeated_value_barcodes(rng: random.Random, values, masks) -> list:
    """SR, EDGE and PH barcodes whose births and deaths come from a few
    values, so each value repeats within one call; groups may be empty."""
    def pick():
        return rng.choice(values)

    def death():
        return rng.choice(values + [None])

    primes = [
        Barcode(kind, tuple((rng.choice(masks), pick(), death()) for _ in range(rng.randrange(12))))
        for kind in ("SR", "EDGE")
    ]
    dims = sorted(rng.sample(range(4), rng.randrange(4)))
    ph = Barcode("PH", tuple((k, pick(), death()) for k in dims for _ in range(rng.randrange(1, 6))))
    return primes + [ph]


def test_writers_keep_signed_zeros_among_repeated_values():
    rng = random.Random(19)
    masks = [0] + [sum(1 << v for v in rng.sample(range(9), rng.randrange(1, 5))) for _ in range(20)]
    texts = []
    for _ in range(200):
        barcodes = _repeated_value_barcodes(rng, [0.0, -0.0, 0.5, 1.25, 2.0], masks)
        _assert_writers_match_their_oracles(barcodes)
        texts.append(dumps_json({"barcodes": barcodes}))
    # both zeros were written within one call, in either order
    assert any(t.index('": -0.0') < t.index('": 0.0') for t in texts if '": -0.0' in t and '": 0.0' in t)
    assert any(t.index('": 0.0') < t.index('": -0.0') for t in texts if '": -0.0' in t and '": 0.0' in t)


def test_writers_read_vertices_on_both_sides_of_each_byte_boundary():
    # chunk texts are cached per 8 bits: primes that cross a boundary, that
    # sit on one side of it, and that reach vertex MAX_N
    rng = random.Random(21)
    edges = [v for b in (8, 16, 64) for v in (b, b + 1)] + [1, MAX_N - 1, MAX_N]
    masks = [0, (1 << MAX_N) - 1] + [1 << v - 1 for v in edges]
    masks += [sum(1 << v - 1 for v in rng.sample(edges, rng.randrange(2, 6))) for _ in range(40)]
    masks += [sum(1 << v for v in rng.sample(range(MAX_N), rng.randrange(1, 40))) for _ in range(40)]
    values = [0.0, -0.0, 1e-05, 0.1, 1.5, 2.0, 1e16, 5e-324]
    for _ in range(30):
        _assert_writers_match_their_oracles(_repeated_value_barcodes(rng, values, masks))
    bars = tuple((m, 0.5, None) for m in masks)
    _assert_writers_match_their_oracles([Barcode("SR", bars), Barcode("PH", ())])
    full = dumps_json(Barcode("EDGE", (((1 << MAX_N) - 1, 0.0, 1.0),)))
    assert '"prime": [\n' + ",\n".join(f"{' ' * 8}{v}" for v in range(1, MAX_N + 1)) + "\n      ]" in full


def test_writers_refuse_what_the_dict_route_refuses():
    for bars in (((1, math.nan, None),), ((1, 0.5, math.inf),), ((1, Fraction(1, 2), None),), ((-1, 0.5, None),)):
        bc = Barcode("SR", bars)
        for obj in (bc, [bc]):
            with pytest.raises((ValueError, TypeError)) as want:
                dumps_json(_to_dict(bc) if obj is bc else [_to_dict(bc)])
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                dumps_json(obj)


def _chunk_barcode(kind: str, count: int) -> Barcode:
    """``count`` seeded bars of ``kind``: SR opens with the zero prime, and
    the first bar is born at -0.0 and never dies."""
    rng = random.Random(count)
    values = [0.0, -0.0, 0.5, 1.25]
    if kind == "PH":
        keys = sorted(rng.randrange(3) for _ in range(count))
    else:
        keys = [rng.randrange(1, 1 << 12) for _ in range(count)]
        if kind == "SR" and keys:
            keys[0] = 0
    bars = [(key, rng.choice(values), rng.choice(values + [None])) for key in keys]
    if bars:
        bars[0] = (keys[0], -0.0, None)
    return Barcode(kind, tuple(bars))


_COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK]


# each kind at each count, then one payload of all three kinds whose chunk
# boundaries fall at other bars of the drawing than those of any one kind
@pytest.mark.parametrize(
    "kind, count", [(kind, count) for kind in ("EDGE", "PH", "SR") for count in _COUNTS] + [("SR+EDGE+PH", CHUNK + 45)]
)
def test_streamed_files_match_their_oracles_at_chunk_boundaries(kind, count, tmp_path):
    # a count that is a multiple of CHUNK ends a chunk at the last bar,
    # where no separator may follow
    barcodes = [_chunk_barcode(k, count + 83 * i) for i, k in enumerate(kind.split("+"))]
    _assert_writers_match_their_oracles(barcodes)
    payload = {"meta": {"seed": 0}, "barcodes": barcodes}
    json_path, svg_path = tmp_path / "barcodes.json", tmp_path / "barcodes.svg"
    with open(json_path, "w", encoding="utf-8") as fh, open(svg_path, "w", encoding="utf-8") as sh:
        assert dumps_json(payload, fh, svg=sh) is None
    want = dumps_json(payload).encode()
    assert json_path.read_bytes() == want and svg_path.read_bytes() == barcodes_svg(barcodes).encode()
    # a run without --svg writes the same barcodes.json
    with open(json_path, "w", encoding="utf-8") as fh:
        dumps_json(payload, fh)
    assert json_path.read_bytes() == want


def test_streamed_barcodes_json_holds_far_less_than_its_text(tmp_path):
    # the whole text, its joins and its UTF-8 copy took about twice the
    # file's size; one walk writing both files a chunk of bars at a time
    # takes a small fraction of it
    f = vr_filtration(random_metric(random.Random(28), 28, 0.0), 2)
    payload = {"meta": {"seed": 0}, "barcodes": [prime_barcode(f, "SR"), prime_barcode(f, "EDGE"), ph_barcode(f)]}
    del f
    path = tmp_path / "barcodes.json"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh, open(tmp_path / "barcodes.svg", "w", encoding="utf-8") as sh:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            dumps_json(payload, fh, svg=sh)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4, (peak, size)
