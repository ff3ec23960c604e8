from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
import weakref
import xml.etree.ElementTree as ET

import pytest

from idealtda import cli, labelled, serialize
from idealtda.cli import MAX_VERIFY_N, main
from idealtda.complexes import MAX_FACES
from idealtda.labelled import BoundaryMatrices, ChainMatrix, InadmissiblePointError
from idealtda.linalg import MAX_MODULUS, QQ, parse_field
from idealtda.persistence import MAX_EDGE_BARS, betti_from_ranks, classical_betti, classical_boundary_ranks
from idealtda.serialize import MAX_EXPONENT, MAX_LABELLED_FACES, dumps_json
from idealtda.verify import random_complex as verify_random_complex, random_metric


@pytest.fixture
def three_csv(tmp_path, three_point_dist):
    path = tmp_path / "three.csv"
    path.write_text(
        "\n".join(",".join(repr(x) for x in row) for row in three_point_dist) + "\n"
    )
    return path


@pytest.fixture
def worked_json(tmp_path):
    data = {
        "n": 4,
        "faces": [[1, 2, 3], [1, 4]],
        "atoms": ["x1", "x2", "x3", "x4"],
        "labels": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]],
    }
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(data))
    return path


def test_barcodes_three_points(three_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["barcodes", "--input", str(three_csv), "--out", str(out), "--svg"]) == 0
    payload = json.loads((out / "barcodes.json").read_text())
    kinds = [g["kind"] for g in payload["barcodes"]]
    assert kinds == ["SR", "EDGE", "PH"]
    sr = payload["barcodes"][0]["intervals"]
    deaths = {tuple(iv["prime"]): iv["death"] for iv in sr}
    assert deaths[(2,)] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert deaths[(3,)] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    report = json.loads((out / "report.json").read_text())
    assert report["coverage"]["ok"] is True
    root = ET.parse(out / "barcodes.svg").getroot()
    total = sum(len(g["intervals"]) for g in payload["barcodes"])
    assert len([e for e in root.iter() if e.tag.endswith("rect")]) == total


def test_barcodes_deterministic(three_csv, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["barcodes", "--input", str(three_csv), "--out", str(a)]) == 0
    assert main(["barcodes", "--input", str(three_csv), "--out", str(b)]) == 0
    assert (a / "barcodes.json").read_bytes() == (b / "barcodes.json").read_bytes()


# six points in four places (1 = 3 and 2 = 6), integer ties, and -0 cells that
# reach barcodes.json as -0.0 births
_TIED_CSV = "0,1,-0,2,1,1\n1,0,1,2,2,-0\n0,1,0,2,1,1\n2,2,2,0,1,2\n1,2,1,1,0,2\n1,-0,1,2,2,0\n"
_SEVEN_POINTS = '{"points": [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0.5], [0.5, 2], [1.5, 1.5]]}'


def _seeded_csv(n: int, seed: int) -> str:
    """A random metric on n points, distances rounded to three decimals."""
    rng = random.Random(seed)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = round(rng.uniform(0.1, 2.0), 3)
    return "".join(",".join(repr(x) for x in row) + "\n" for row in dist)


@pytest.mark.parametrize(
    "name, text, fmt, flags, digests",
    [
        (
            "in.csv",
            _TIED_CSV,
            "dist-csv",
            [],
            (
                "9738c21822789ce80d0890895fa9594ba1441ba2a009236e8b2ce980d717b283",
                "8994d94741327a0749ab73c43533329486b608ef0cd5c5b2774a3472e9cb373a",
                "b13570325989c057ca305467e156e20cd9485d117c89ef26ce86b94867d8a4c4",
            ),
        ),
        (
            "in.json",
            _SEVEN_POINTS,
            "points-json",
            [],
            (
                "d92cf5df2e7adf3ba157124e2462e6c7b954f11434ece359a7b1fac94a789a6f",
                "89b2216d8f4e99da8a5cd4af682f98507b1078396ffb39b5509ddcd8e2e95e41",
                "08bfdf12e56213b9e546e59f294944f0f31f93cd3fdf3531276c9e96994323e4",
            ),
        ),
        (
            # the whole 5-simplex reaches PH, which reduces only the faces up to dimension 2
            "in.json",
            '{"n": 6, "faces": [[1, 2, 3, 4, 5, 6]]}',
            "complex-json",
            ["--max-dim", "1"],
            (
                "5df8ae38b087b3b5c627d028db8a012133ced417c75dde091e54b0b0b0871b16",
                "051336eba5f216c5db3bf85aa8bfc55923c7d9fec567567c50f6be96b2ac8083",
                "85380a7ede746f36b8e31327ed86ff2480afd2994b29c7b96bc33e19f5ef790f",
            ),
        ),
        (
            "in.csv",
            _seeded_csv(9, 9),
            "dist-csv",
            ["--max-dim", "2"],
            (
                "555e39238998ea4bc70639534653879c3584d0ec6ac6882e4708cafcdad58260",
                "a701451832511d6c3f2d83584b594afc7187b9b9305f3b956f103a02d86ec55e",
                "30221780e324118a1d51e83383e58ef7eb7330acd9ca02305cee68337696fb44",
            ),
        ),
    ],
    ids=["tied-signed-zero-csv", "seven-points-full-vr", "simplex-complex-max-dim-1", "seeded-nine-points-max-dim-2"],
)
def test_barcodes_output_bytes(tmp_path, monkeypatch, name, text, fmt, flags, digests):
    # pins barcodes.json, report.json and barcodes.svg byte for byte; relative
    # paths, because the input path is recorded in the metadata
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert main(["barcodes", "--input", name, "--format", fmt, "--out", "out", "--svg"] + flags) == 0
    for file, digest in zip(("barcodes.json", "report.json", "barcodes.svg"), digests):
        assert hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() == digest, file


def test_barcodes_drops_the_filtration_and_writes_from_the_bars(three_csv, tmp_path, monkeypatch):
    filtrations, barcodes = [], []
    vr = cli.vr_filtration

    def weak_filtration(*args, **kwargs):
        result = vr(*args, **kwargs)
        filtrations.append(weakref.ref(result))
        return result

    def keep_barcode(fn):
        def wrapper(*args, **kwargs):
            barcodes.append(fn(*args, **kwargs))
            return barcodes[-1]

        return wrapper

    def dumps_after_compute(obj, file=None, svg=None):
        gc.collect()
        assert filtrations and all(ref() is None for ref in filtrations)
        if "barcodes" in obj:  # the barcodes themselves, not their interval dicts, to both open files
            assert all(a is b for a, b in zip(obj["barcodes"], barcodes, strict=True))
            assert file is not None and svg is not None
            assert file.name.endswith("barcodes.json") and svg.name.endswith("barcodes.svg")
        return dumps_json(obj, file, svg=svg)

    def no_dicts(barcode):
        raise AssertionError("interval dicts built on the production path")

    monkeypatch.setattr(cli, "vr_filtration", weak_filtration)
    for name in ("prime_barcode", "ph_barcode"):
        monkeypatch.setattr(cli, name, keep_barcode(getattr(cli, name)))
    for module in (cli, serialize):
        for name in ("prime_barcode_to_dict", "ph_barcode_to_dict"):
            monkeypatch.setattr(module, name, no_dicts)
    monkeypatch.setattr(cli, "dumps_json", dumps_after_compute)
    assert main(["barcodes", "--input", str(three_csv), "--out", str(tmp_path / "o"), "--svg"]) == 0
    assert len(filtrations) == 1 and len(barcodes) == 3


def test_barcodes_points_and_complex_formats(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[0, 0], [2, 0], [0, 2]]}))
    out1 = tmp_path / "o1"
    assert main(["barcodes", "--input", str(pts), "--format", "points-json", "--out", str(out1)]) == 0
    payload = json.loads((out1 / "barcodes.json").read_text())
    sr = payload["barcodes"][0]["intervals"]
    assert any(iv["death"] == pytest.approx(math.sqrt(2.0)) for iv in sr if iv["death"] != "inf")

    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({"n": 3, "faces": [[1, 2], [3]]}))
    out2 = tmp_path / "o2"
    assert main(["barcodes", "--input", str(cx), "--format", "complex-json", "--out", str(out2)]) == 0
    payload = json.loads((out2 / "barcodes.json").read_text())
    assert all(iv["death"] == "inf" for g in payload["barcodes"] for iv in g["intervals"])


def test_barcodes_input_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["barcodes", "--input", str(empty), "--out", str(tmp_path / "x")]) == 2
    assert "empty" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,zz\n")
    assert main(["barcodes", "--input", str(bad), "--out", str(tmp_path / "y")]) == 2
    assert ":2:2" in capsys.readouterr().err

    assert main(["barcodes", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "z")]) == 2

    asym = tmp_path / "asym.csv"
    asym.write_text("0,1\n2,0\n")
    assert main(["barcodes", "--input", str(asym), "--out", str(tmp_path / "w")]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_barcodes_field_modulus_bound(three_csv, tmp_path, capsys):
    # trial division on a 19-digit prime would run for minutes: refused at once
    argv = ["barcodes", "--input", str(three_csv), "--out", str(tmp_path / "o")]
    start = time.perf_counter()
    assert main(argv + ["--field", "fp:1000000000000000003"]) == 2
    assert time.perf_counter() - start < 0.5
    assert str(MAX_MODULUS) in capsys.readouterr().err
    assert main(argv + ["--field", "fp:1000003"]) == 0
    payload = json.loads((tmp_path / "o" / "barcodes.json").read_text())
    assert payload["meta"]["field"] == "fp:1000003"


@pytest.mark.parametrize("count", [4301, 5000])
def test_barcodes_field_refuses_a_long_modulus_by_its_length(three_csv, tmp_path, capsys, count):
    # more digits than int() converts: the modulus bound refuses them first
    argv = ["barcodes", "--input", str(three_csv), "--out", str(tmp_path / "o"), "--field", "fp:" + "1" * count]
    assert main(argv) == 2
    want = f"error: modulus of {count} digits exceeds the largest supported modulus {MAX_MODULUS}\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("spec", ["fp:abc", "fp:", "fp:+7", "fp:\u0667"])
def test_barcodes_field_suffix_is_ascii_digits(three_csv, tmp_path, capsys, spec):
    argv = ["barcodes", "--input", str(three_csv), "--out", str(tmp_path / "o"), "--field", spec]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: unknown field descriptor {spec!r} (expected q, f2 or fp:<p>)\n"
    assert not (tmp_path / "o").exists()


def test_usage_error_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["barcodes", "--input", "x", "--format", "nope", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_labelled_report_with_alpha(worked_json, tmp_path):
    out = tmp_path / "rep"
    assert main(
        ["labelled", "--input", str(worked_json), "--alpha", "0,1,1,1", "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diag_relation"] is True
    assert report["chain_condition"] is True
    assert report["ranks"]["equal"] is True
    d1 = report["boundary_matrices"]["1"]
    assert d1["entries"] == [
        ["x2*x3", "x2*x4", "0", "x3*x4"],
        ["-x1", "0", "x4", "0"],
        ["0", "-x1", "-x3", "0"],
        ["0", "0", "0", "-x1"],
    ]
    assert report["slice"]["iso"] is True
    assert report["slice"]["matrices"]["1"] == [["1"], ["-1"], ["0"]]
    assert report["slice"]["matrices"]["0"] == [["-1", "-1", "-1"]]


def test_labelled_report_inadmissible_point(tmp_path):
    data = {
        "n": 3,
        "faces": [[1, 2, 3]],
        "atoms": ["x1", "x2", "x1+x2"],
        "atom_polys": {"x1+x2": [[1, [1, 0]], [1, [0, 1]]]},
        "labels": [[0, 0, 1], [1, 0, 0], [1, 1, 0]],
    }
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "rep"
    assert main(
        ["labelled", "--input", str(path), "--point", "x1=1,x2=-1", "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    ev = report["evaluation"]
    assert ev["admissible"] is False
    assert ev["vanishing"] == [[1, "(x1+x2)"]]
    assert ev["window"] == [2, 3]
    assert ev["window_equal"] is True


def test_labelled_admissible_point_report(tmp_path, worked_json):
    out = tmp_path / "rep2"
    assert main(
        ["labelled", "--input", str(worked_json), "--point", "x1=1,x2=2,x3=1/2,x4=-3", "--out", str(out)]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["evaluation"]["admissible"] is True
    assert report["evaluation"]["equal"] is True


# the 6-vertex real projective plane: 6 vertices, 15 edges, 10 triangles
_RP2 = [
    [1, 2, 4], [1, 2, 6], [1, 3, 5], [1, 3, 6], [1, 4, 5],
    [2, 3, 4], [2, 3, 5], [2, 5, 6], [3, 4, 6], [4, 5, 6],
]


@pytest.mark.parametrize(
    "field, betti",
    [("f2", {"0": 1, "1": 1, "2": 1}), ("q", {"0": 1, "1": 0, "2": 0})],
)
def test_labelled_admissible_point_over_each_field(tmp_path, field, betti):
    labels = [[1, 0], [0, 1], [1, 1], [2, 0], [0, 2], [0, 0]]
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({"n": 6, "faces": _RP2, "atoms": ["x1", "x2"], "labels": labels}))
    out = tmp_path / "rep"
    argv = ["labelled", "--input", str(path), "--field", field, "--point", "x1=1,x2=3", "--out", str(out)]
    assert main(argv) == 0
    ev = json.loads((out / "report.json").read_text())["evaluation"]
    assert ev == {"admissible": True, "betti": betti, "classical_betti": betti, "equal": True}


def test_labelled_unit_labels_all_trivial(tmp_path):
    data = {
        "n": 3,
        "faces": [[1, 2], [2, 3]],
        "atoms": ["x1"],
        "labels": [[0], [0], [0]],
    }
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "rep"
    assert main(["labelled", "--input", str(path), "--point", "x1=5", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["labels"] == ["1", "1", "1"]
    assert report["boundary_matrices"]["1"]["entries"] == [
        ["1", "0"],
        ["-1", "1"],
        ["0", "-1"],
    ]
    assert report["diag_relation"] is True
    assert report["ranks"]["equal"] is True
    assert report["evaluation"]["equal"] is True


_POLY_LABELLED = {
    "n": 3,
    "faces": [[1, 2, 3]],
    "atoms": ["x1", "x2", "x1+x2"],
    "atom_polys": {"x1+x2": [[1, [1, 0]], [1, [0, 1]]]},
    "labels": [[0, 0, 1], [1, 0, 0], [1, 1, 0]],
}


@pytest.mark.parametrize(
    "data, flags, digest",
    [
        (
            None,
            ["--alpha", "0,1,1,1", "--point", "x1=1,x2=2,x3=1/2,x4=-3"],
            "9f3847186d88f9b22932310d2815b08320d05967fb4b2f7eab42a8fc32a6ce61",
        ),
        (
            _POLY_LABELLED,
            ["--point", "x1=1,x2=-1"],
            "8b217ae13e33cdf52db81093d8e6236db13a3d452d5168651e8c51fad33e6275",
        ),
    ],
    ids=["worked-alpha-point", "composite-inadmissible-point"],
)
def test_labelled_report_bytes(tmp_path, worked_json, data, flags, digest):
    # pins report.json byte for byte: matrices, verdicts, ranks, evaluation, slice
    path = worked_json
    if data is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
    out = tmp_path / "rep"
    assert main(["labelled", "--input", str(path), "--out", str(out)] + flags) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest


def test_labelled_bad_flags(worked_json, tmp_path, capsys):
    assert main(["labelled", "--input", str(worked_json), "--alpha", "1,a", "--out", str(tmp_path / "o")]) == 2
    assert main(["labelled", "--input", str(worked_json), "--point", "x1", "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "point, message",
    [
        ("x1", "bad --point entry 'x1'"),
        ("x1=3", "missing coordinates for variables: x2"),
        ("x1=1e100000,x2=1", "bad --point value '1e100000'"),
        ("x1=1e1000000,x2=1", "bad --point value '1e1000000'"),
        ("x1=1,x2=1,x9=5", "--point names unknown variables: x9"),
        ("x1=1,x2=1,x1=2", "bad --point entry 'x1=2': x1 is given twice"),
        (" =1,x1=1,x2=1", "bad --point entry ' =1'"),
    ],
    ids=["malformed", "missing-variable", "exponent", "large-exponent", "unknown-variable", "repeated", "empty-name"],
)
def test_labelled_point_checked_before_rank_work(tmp_path, capsys, monkeypatch, point, message):
    def no_rank_work(LC):
        raise AssertionError("rank work started before the point was checked")

    monkeypatch.setattr(cli, "fraction_field_ranks", no_rank_work)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_POLY_LABELLED))
    assert main(["labelled", "--input", str(path), "--point", point, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


_F2_WINDOW = {"n": 3, "faces": [[1, 2]], "atoms": ["x1", "x2"], "labels": [[0, 1], [0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "data, flags, message",
    [
        (None, ["--alpha", "1,2"], "bad --alpha '1,2': alpha length must match the number of variables"),
        (None, ["--alpha=-1,0,0,0"], "bad --alpha '-1,0,0,0': exponents must be nonnegative"),
        (
            _POLY_LABELLED,
            ["--alpha", "0,1,1"],
            "bad --alpha '0,1,1': graded slices need monomial labels over variable atoms only",
        ),
        (
            _POLY_LABELLED,
            ["--field", "f2", "--point", "x1=1/2,x2=1"],
            "bad --point 'x1=1/2,x2=1': coordinate denominators are not invertible in f2",
        ),
        # x2 = 2 kills both vertices of the complex over GF(2), so the window
        # scans vertex 3 too, whose label x1 = 1/2 is not in GF(2)
        (
            _F2_WINDOW,
            ["--field", "f2", "--point", "x1=1/2,x2=2"],
            "bad --point 'x1=1/2,x2=2': coordinate denominators are not invertible in f2",
        ),
    ],
    ids=["alpha-length", "alpha-negative", "alpha-composite-atom", "point-denominator", "window-denominator"],
)
def test_labelled_options_checked_before_rank_work(tmp_path, worked_json, capsys, monkeypatch, data, flags, message):
    def no_rank_work(LC):
        raise AssertionError("rank work started before the options were checked")

    monkeypatch.setattr(cli, "boundary_matrices", no_rank_work)
    path = worked_json
    if data is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
    assert main(["labelled", "--input", str(path), "--out", str(tmp_path / "o")] + flags) == 2
    assert message in capsys.readouterr().err


def test_labelled_early_point_check_is_no_stricter_than_evaluation(tmp_path):
    # vertex 3 lies outside the complex, so evaluation never takes its label
    # x1 = 1/2 into GF(2) while the vertices of the complex survive
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_F2_WINDOW))
    out = tmp_path / "o"
    assert main(["labelled", "--input", str(path), "--field", "f2", "--point", "x1=1/2,x2=1", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["evaluation"]["admissible"] is True


_HOLLOW_TRIANGLE = {"n": 3, "faces": [[1, 2], [1, 3], [2, 3]], "atoms": ["x1"], "labels": [[1], [0], [2]]}


def _labelled_report(tmp_path, data, flags) -> dict:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert main(["labelled", "--input", str(path), "--out", str(tmp_path / "o")] + flags) == 0
    return json.loads((tmp_path / "o" / "report.json").read_text())


def test_labelled_admissible_point_ranks_nothing_twice(tmp_path, worked_json, monkeypatch):
    # diag_relation holds and the point is admissible, so the evaluation's
    # Betti numbers are the classical ones; the slice is the reduced complex
    # of its subcomplex, so its Betti numbers are the subcomplex's
    def unused(*args):
        raise AssertionError("a rank the report already has was computed again")

    monkeypatch.setattr(cli, "evaluate_chain", unused)
    monkeypatch.setattr(labelled.EvaluatedChain, "betti", unused)
    flags = ["--alpha", "0,1,1,1", "--point", "x1=1,x2=2,x3=1/2,x4=-3"]
    report = _labelled_report(tmp_path, json.loads(worked_json.read_text()), flags)
    assert report["diag_relation"] is True and report["evaluation"]["equal"] is True
    assert report["slice"]["iso"] is True
    assert report["slice"]["betti"] == report["slice"]["subcomplex_betti"] == {"-1": 0, "0": 1, "1": 0}


def test_labelled_broken_entry_is_reported_from_the_evaluated_ranks(tmp_path, monkeypatch):
    # one flipped sign makes d_1 of the hollow triangle invertible: the
    # evaluation must rank its own matrices, not reuse the classical ranks
    tampered = []

    def load(data, **kwargs):
        LC = serialize.labelled_from_dict(data, **kwargs)
        bm = labelled.boundary_matrices(LC)
        cm = bm.matrix(1)
        (i, sign, exps), *rest = cm.columns[0]
        columns = (((i, -sign, exps), *rest), *cm.columns[1:])
        flipped = ChainMatrix(cm.k, cm.rows, cm.cols, columns)
        LC.__dict__["_boundary"] = BoundaryMatrices(tuple(flipped if m is cm else m for m in bm.matrices))
        tampered.append(LC)
        return LC

    calls = []

    def evaluate(*args):
        calls.append(args)
        return labelled.evaluate_chain(*args)

    monkeypatch.setattr(cli, "labelled_from_dict", load)
    monkeypatch.setattr(cli, "evaluate_chain", evaluate)
    report = _labelled_report(tmp_path, _HOLLOW_TRIANGLE, ["--point", "x1=2"])
    assert report["diag_relation"] is False and len(calls) == 1
    (LC,) = tampered
    got = labelled.evaluate_chain(LC, cli._parse_point("x1=2"), QQ).betti()
    assert got == {0: 0, 1: 0}
    ev = report["evaluation"]
    assert ev["betti"] == {str(k): v for k, v in got.items()}
    assert ev["classical_betti"] == {"0": 1, "1": 1} and ev["equal"] is False


def test_labelled_perturbed_slice_is_reported_from_its_own_ranks(tmp_path, worked_json, monkeypatch):
    # a zeroed d_1 breaks the isomorphism with the subcomplex: the slice must
    # rank its own matrices
    calls = []

    def perturbed(LC, alpha):
        sl = labelled.graded_slice(LC, alpha)
        sl.matrices[1] = [[0] * len(row) for row in sl.matrices[1]]
        calls.append(sl)
        return sl

    betti = labelled.EvaluatedChain.betti

    def spy(self):
        calls.append(self)
        return betti(self)

    monkeypatch.setattr(cli, "graded_slice", perturbed)
    monkeypatch.setattr(labelled.EvaluatedChain, "betti", spy)
    report = _labelled_report(tmp_path, json.loads(worked_json.read_text()), ["--alpha", "0,1,1,1"])
    sl, ranked = calls
    assert ranked is sl and report["slice"]["iso"] is False
    assert report["slice"]["betti"] == {str(k): v for k, v in betti(sl).items()} == {"-1": 0, "0": 2, "1": 1}
    assert report["slice"]["subcomplex_betti"] == {"-1": 0, "0": 1, "1": 0}


def test_labelled_prime_field_point_is_evaluated(tmp_path, capsys):
    # over GF(3) at x1 = 3, x2 = 1/3 the labels x1*x2 and x2*x3 are 1, but the
    # edge label x1*x2*x3 and both label quotients, x3 and x1, vanish (x3 = 3),
    # or are not in the field (x3 = 1/3): the labels' diagonal is not
    # invertible, so with diag_relation true the evaluated ranks are still
    # not the classical ones, and a prime-field run ranks the evaluated matrices
    data = {"n": 2, "faces": [[1, 2]], "atoms": ["x1", "x2", "x3"], "labels": [[1, 1, 0], [0, 1, 1]]}
    flags = ["--field", "fp:3", "--point", "x1=3,x2=1/3,x3=3"]
    ev = _labelled_report(tmp_path, data, flags)["evaluation"]
    assert ev == {"admissible": True, "betti": {"0": 2, "1": 1}, "classical_betti": {"0": 1, "1": 0}, "equal": False}
    data["labels"] = [[1, 1, 0], [1, 0, 1]]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    argv = ["labelled", "--input", str(path), "--field", "fp:3", "--point", "x1=3,x2=1/3,x3=1/3", "--out", str(tmp_path / "p")]
    assert main(argv) == 2
    assert "coordinate denominators are not invertible in fp:3" in capsys.readouterr().err


def _ranked_sections(LC, field, point, alpha) -> dict:
    """The evaluation and slice sections of the report, each Betti number
    from its own rank route: the evaluated or sliced matrices, and the
    classical ranks of the complex or subcomplex."""
    out = {}
    cl = classical_boundary_ranks(LC.complex, QQ, reduced=LC.reduced)
    if point is not None:
        try:
            ev = labelled.evaluate_chain(LC, point, field)
            got = ev.betti()
            want = betti_from_ranks(ev.ncells, cl) if field is QQ else classical_betti(LC.complex, field, LC.reduced)
            out["evaluation"] = {
                "admissible": True,
                "betti": {str(k): v for k, v in sorted(got.items())},
                "classical_betti": {str(k): v for k, v in sorted(want.items())},
                "equal": got == want,
            }
        except InadmissiblePointError as exc:
            W, restricted = labelled.local_subcomplex(LC, point=point, field=field)
            got = labelled.evaluate_chain(restricted, point, field).betti()
            want = classical_betti(restricted.complex, field, reduced=LC.reduced)
            out["evaluation"] = {
                "admissible": False,
                "vanishing": [[v, label] for v, label in exc.vanishing],
                "window": list(W),
                "window_betti": {str(k): v for k, v in sorted(got.items())},
                "window_classical_betti": {str(k): v for k, v in sorted(want.items())},
                "window_equal": got == want,
            }
    if alpha is not None:
        sl = labelled.graded_slice(LC, alpha)
        got = sl.betti()
        want = classical_betti(sl.subcomplex, QQ, reduced=True)
        out["slice"] = {
            "alpha": list(alpha),
            "window": [list(f) for f in sl.subcomplex.faces()],
            "bases": {
                str(k): [[list(face), str(cof)] for face, cof in basis] for k, basis in sl.bases.items()
            },
            "matrices": {str(k): [[str(e) for e in row] for row in mat] for k, mat in sl.matrices.items()},
            "iso": labelled.slice_iso_check(sl),
            "betti": {str(k): v for k, v in sorted(got.items())},
            "subcomplex_betti": {str(k): want.get(k, 0) for k in sorted(got)},
        }
    return out


def test_labelled_report_bytes_match_the_ranked_sections(tmp_path):
    # seeded labelled inputs over variable and composite atoms, at points
    # that may kill a label, put a denominator or a multiple of p into an
    # atom, with and without --alpha (at times the lcm of the labels, so the
    # slice is the whole complex): the report is byte for byte the one built
    # from the ranked sections, or both refuse the point
    rng = random.Random(41)
    seen = set()
    for t in range(80):
        n = rng.randint(2, 6)
        K = verify_random_complex(rng, n)
        # t % 3 == 1: over GF(3) at x1 = 3, x2 = 1/3, labels that are units
        # whose lcm, and so some label quotient, need not be
        valued = t % 3 == 1
        composite = t % 4 == 3 and not valued
        atoms = ["x1", "x2", "x3"] + (["x1+x2"] if composite else [])
        labels = [[rng.randint(0, 2) for _ in range(3)] + ([rng.randint(0, 1)] if composite else []) for _ in range(n)]
        data = {"n": n, "faces": [list(f) for f in K.faces()], "atoms": atoms, "labels": labels}
        if composite:
            data["atom_polys"] = {"x1+x2": [[1, [1, 0, 0]], [1, [0, 1, 0]]]}
        field_text = rng.choice(("q", "fp:2", "fp:3", "fp:5"))
        choices = ("1", "2", "-1", "3", "5", "1/2", "1/3", "3/5", "0")
        point_text = ",".join(f"x{j}={rng.choice(choices)}" for j in (1, 2, 3)) if rng.random() < 0.8 else None
        if valued:
            x3 = rng.choice(("3", "1/3"))
            units = [[1, 1, 0], [2, 2, 0], [0, 0, 0]] + ([[0, 1, 1], [1, 2, 1]] if x3 == "3" else [[1, 0, 1], [2, 1, 1]])
            labels[:] = [list(rng.choice(units)) for _ in range(n)]
            field_text, point_text = "fp:3", f"x1=3,x2=1/3,x3={x3}"
        alpha = None
        if not composite and t % 2 == 0:
            lcm = [max(col) for col in zip(*labels)]
            alpha = lcm if rng.random() < 0.3 else [rng.randint(0, 2) for _ in range(3)]
        flags = ["--field", field_text]
        flags += ["--point", point_text] if point_text is not None else []
        flags += ["--alpha", ",".join(map(str, alpha))] if alpha is not None else []
        path = tmp_path / f"in{t}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / f"o{t}"
        code = main(["labelled", "--input", str(path), "--out", str(out)] + flags)
        LC = serialize.labelled_from_dict(data, reduced=alpha is not None)
        point = cli._parse_point(point_text) if point_text is not None else None
        if code == 2:
            with pytest.raises(ValueError):
                _ranked_sections(LC, parse_field(field_text), point, alpha)
            seen.add("refused")
            continue
        assert code == 0
        text = (out / "report.json").read_text()
        report = json.loads(text)
        sections = _ranked_sections(LC, parse_field(field_text), point, alpha)
        assert dumps_json({**report, **sections}) == text, (t, data, flags)
        ev = sections.get("evaluation", {})
        seen.add(("admissible", ev.get("admissible"), ev.get("equal")))
        if alpha is not None:
            seen.add(("whole", LC.complex == labelled.graded_slice(LC, alpha).subcomplex))
    assert {"refused", ("admissible", True, True), ("admissible", True, False), ("admissible", False, None)} <= seen
    assert {("whole", True), ("whole", False)} <= seen


def test_labelled_atom_with_a_space_is_written_alike(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 2, "faces": [[1, 2]], "atoms": ["a b", "c"], "labels": [[2, 0], [1, 1]]}))
    out = tmp_path / "o"
    assert main(["labelled", "--input", str(path), "--out", str(out)] + ["--point", "a b=0,c=1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["labels"] == ["(a b)^2", "(a b)*c"]
    assert report["boundary_matrices"]["1"]["entries"] == [["c"], ["-(a b)"]]
    assert report["evaluation"]["vanishing"] == [[1, "(a b)^2"], [2, "(a b)*c"]]


def test_labelled_atom_with_an_operator_is_written_in_parentheses(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"n": 2, "faces": [[1, 2]], "atoms": ["a*b", "x^2"], "labels": [[2, 0], [1, 2]]}))
    out = tmp_path / "o"
    assert main(["labelled", "--input", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["labels"] == ["(a*b)^2", "(a*b)*(x^2)^2"]
    assert report["boundary_matrices"]["1"]["entries"] == [["(x^2)^2"], ["-(a*b)"]]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 2, "faces": [[1, 2]], "atoms": ["x1"], "labels": 5}', "'labels' must be a list, found 5"),
        ('{"n": 2, "faces": [[1, 2]], "atoms": ["x1"], "labels": null}', "'labels' must be a list, found null"),
        (
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1", "p"], "atom_polys": {"p": 5}, "labels": [[1, 0], [0, 1]]}',
            "atom p: expansion must be a list of terms, found 5",
        ),
        (
            '{"n": 2, "faces": [[1, 2]], "atoms": "xy", "labels": [[1, 0], [0, 1]]}',
            "'atoms' must be a list, found \"xy\"",
        ),
        (
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1", 7], "labels": [[1, 0], [0, 1]]}',
            "'atoms' entry 2 is not a string: 7",
        ),
        (
            '{"n": 2, "faces": [[1, 2]], "atoms": [null, "x2"], "labels": [[1, 0], [0, 1]]}',
            "'atoms' entry 1 is not a string: null",
        ),
    ],
    ids=["labels-number", "labels-null", "expansion-number", "atoms-string", "atom-number", "atom-null"],
)
def test_labelled_json_shape_errors(tmp_path, capsys, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert main(["labelled", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and message in err


def test_verify_quick_and_fault_injection(tmp_path, capsys, inject_prime_fault):
    out = tmp_path / "v"
    assert main(["verify", "--trials", "4", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 9
    report = json.loads((out / "report.json").read_text())
    assert all(s["failures"] == 0 for s in report["suites"])

    inject_prime_fault()
    assert main(["verify", "--trials", "4", "--seed", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_degenerate_single_vertex(capsys):
    assert main(["verify", "--trials", "3", "--seed", "0", "--max-n", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "option, value", [("--trials", "-1"), ("--trials", "0"), ("--max-n", "0"), ("--max-n", "-2")]
)
def test_verify_rejects_counts_below_one(capsys, option, value):
    assert main(["verify", option, value]) == 2
    captured = capsys.readouterr()
    assert f"{option} must be at least 1, got {value}" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("fmt", ["dist-csv", "points-json", "complex-json"])
def test_barcodes_rejects_a_negative_max_dim(tmp_path, capsys, fmt):
    # refused before the input is read, so the file need not exist
    out = tmp_path / "o"
    argv = ["barcodes", "--input", str(tmp_path / "none"), "--format", fmt, "--max-dim", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert "--max-dim must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_barcodes_complex_json_max_dim_zero(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"n": 3, "faces": [[1, 2, 3]]}')
    argv = ["barcodes", "--input", str(path), "--format", "complex-json", "--max-dim", "0", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    ph = json.loads((tmp_path / "o" / "barcodes.json").read_text())["barcodes"][2]
    assert ph["kind"] == "PH" and [iv["dim"] for iv in ph["intervals"]] == [0]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_barcodes_rejects_non_finite_csv(tmp_path, capsys, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,1\n{cell},0\n")
    assert main(["barcodes", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"bad.csv:2:1: not a finite number: '{cell}'" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_barcodes_rejects_non_finite_points(tmp_path, capsys, token):
    path = tmp_path / "pts.json"
    path.write_text('{"points": [[0, 0], [1, %s]]}' % token)
    argv = ["barcodes", "--input", str(path), "--format", "points-json", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "point 2 coordinate 2 is not finite" in capsys.readouterr().err


def test_barcodes_names_a_csv_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff,1\n1,0\n")
    assert main(["barcodes", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0")


def test_barcodes_names_points_too_far_apart(tmp_path, capsys):
    # each coordinate is finite, but their distance overflows a float
    path = tmp_path / "far.json"
    path.write_text('{"points": [[0, 0], [1e308, 0], [-1e308, 0]]}')
    argv = ["barcodes", "--input", str(path), "--format", "points-json", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: points 2 and 3 are too far apart for a float distance\n"


def test_barcodes_refuses_a_distance_without_an_exact_half(tmp_path, capsys):
    # 5e-324 / 2 rounds to 0.0, which would give edge {1, 2} the birth of its
    # vertices; 1e-323 = 2 * 5e-324 halves exactly
    path = tmp_path / "tiny.csv"
    path.write_text("0,5e-324,1\n5e-324,0,1\n1,1,0\n")
    assert main(["barcodes", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {path}:1:2: '5e-324' has no exact half as a float\n"
    path.write_text("0,1e-323,1\n1e-323,0,1\n1,1,0\n")
    assert main(["barcodes", "--input", str(path), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "report.json").read_text())["params"] == [0.0, 5e-324, 0.5]
    path = tmp_path / "tiny.json"
    path.write_text('{"points": [[0], [1], [1.5e-323]]}')
    assert main(["barcodes", "--input", str(path), "--format", "points-json", "--out", str(tmp_path / "p")]) == 2
    want = f"error: {path}: points 1 and 3 are 1.5e-323 apart, which has no exact half as a float\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("scale", [1e306, 1e308])
def test_barcodes_svg_coordinates_stay_finite(tmp_path, scale):
    # a coordinate scaled as span * birth / tmax overflows on such cells
    path = tmp_path / "big.csv"
    path.write_text("\n".join(",".join(repr(abs(i - j) * (scale / 2)) for j in range(3)) for i in range(3)))
    assert main(["barcodes", "--input", str(path), "--out", str(tmp_path / "o"), "--svg"]) == 0
    root = ET.fromstring((tmp_path / "o" / "barcodes.svg").read_text())
    numbers = [
        float(token)
        for element in root.iter()
        for name, value in element.attrib.items()
        if name in ("x", "y", "width", "height", "viewBox", "d", "x1", "x2", "y1", "y2")
        for token in value.split()
        if token not in ("M", "L", "Z")
    ]
    assert len(numbers) > 20 and all(map(math.isfinite, numbers))


_LABELLED = '"atoms": ["x1"], "labels": [[1], [1]]'
_HUGE = "1" + "0" * 20
_TOO_MANY = "'n' exceeds the supported maximum of 512"
_EXPANDED = '{"n": 2, "faces": [[1, 2]], "atoms": ["x1", "x2", "s"], "labels": [[1, 0, 0], [0, 0, 1]], %s}'


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("points-json", '{"points": [[0, 0], [true, 2]]}', "point 2 is not a list of numbers"),
        ("complex-json", '{"n": 3, "faces": [[1.7, 2]]}', "face 1 vertex 1 is not an integer: 1.7"),
        ("complex-json", '{"n": 3, "faces": [[1], [2, true]]}', "face 2 vertex 2 is not an integer: true"),
        ("complex-json", '{"n": 3, "faces": [["3", 2]]}', 'face 1 vertex 1 is not an integer: "3"'),
        ("complex-json", '{"n": Infinity, "faces": [[1, 2]]}', "'n' is not an integer: Infinity"),
        ("labelled-json", '{"n": 2, "faces": [[1, 2.0]], %s}' % _LABELLED, "face 1 vertex 2 is not an integer: 2.0"),
        ("labelled-json", '{"n": Infinity, "faces": [[1, 2]], %s}' % _LABELLED, "'n' is not an integer: Infinity"),
        (
            "labelled-json",
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1"], "labels": [[1], [true]]}',
            "bad label for vertex 2 (exponent 1 is not an integer: true)",
        ),
        (
            "labelled-json",
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1"], "labels": [[1], ["1"]]}',
            'bad label for vertex 2 (exponent 1 is not an integer: "1")',
        ),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[1, [1, 0]], [1, [0, 1.5]]]}',
            "atom s: malformed atom expansion term (term 2 exponent 2 is not an integer: 1.5)",
        ),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[1, [1, 0]], [Infinity, [0, 1]]]}',
            "atom s: expansion term 2 coefficient is not a rational number: Infinity",
        ),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[true, [1, 0]], [1, [0, 1]]]}',
            "atom s: expansion term 1 coefficient is not a rational number: true",
        ),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[0.1, [1, 0]], [1, [0, 1]]]}',
            "atom s: expansion term 1 coefficient is not a rational number: 0.1",
        ),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[1, [1, 0]], ["1e999999999", [0, 1]]]}',
            'atom s: expansion term 2 coefficient is not a rational number: "1e999999999"',
        ),
        ("labelled-json", _EXPANDED % '"atom_polys": []', "'atom_polys' must be an object, found []"),
        ("labelled-json", _EXPANDED % '"atom_polys": {"s": []}', "atom 's' expands to the zero polynomial"),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[1, [1, 0]], [-1, [1, 0]]]}',
            "atom 's' expands to the zero polynomial",
        ),
        ("complex-json", '{"n": %s, "faces": [[1, 2]]}' % _HUGE, _TOO_MANY),
        ("complex-json", '{"n": 513, "faces": [[1, 2]]}', _TOO_MANY),
        ("labelled-json", '{"n": %s, "faces": [[1, 2]], %s}' % (_HUGE, _LABELLED), _TOO_MANY),
        ("labelled-json", '{"n": 513, "faces": [[1, 2]], %s}' % _LABELLED, _TOO_MANY),
    ],
)
def test_json_inputs_reject_non_integers(tmp_path, capsys, fmt, text, message):
    path = tmp_path / "in.json"
    path.write_text(text)
    command = "labelled" if fmt == "labelled-json" else "barcodes"
    assert main([command, "--input", str(path), "--format", fmt, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


_TWO_LABELS = '"atoms": ["x1", "x2"], "labels": [[1, 0], [0, 1]]'
_NOT_ITERABLE = "'int' object is not iterable"


@pytest.mark.parametrize(
    "fmt, text, message",
    [
        ("complex-json", '{"n": 3, "faces": [[1, 2], 5]}', f"malformed complex JSON ({_NOT_ITERABLE})"),
        (
            "complex-json",
            '{"n": 3, "faces": [[1, 2, false]]}',
            "malformed complex JSON (face 1 vertex 3 is not an integer: false)",
        ),
        (
            "labelled-json",
            '{"n": 2, "faces": [[1, 2], 5], %s}' % _TWO_LABELS,
            f"malformed labelled-complex JSON ({_NOT_ITERABLE})",
        ),
        (
            "labelled-json",
            '{"n": 2, "faces": [[1, 2, false]], %s}' % _TWO_LABELS,
            "malformed labelled-complex JSON (face 1 vertex 3 is not an integer: false)",
        ),
        (
            "labelled-json",
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1", "x2"], "labels": [[1, 0], [32, 33]]}',
            "bad label for vertex 2 (exponent 2 exceeds the supported maximum of 32)",
        ),
        (
            "labelled-json",
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1", "x2"], "labels": [[1, 0], 5]}',
            f"bad label for vertex 2 ({_NOT_ITERABLE})",
        ),
        (
            "labelled-json",
            _EXPANDED % '"atom_polys": {"s": [[1, [1, 0]], [1, [0, 33]]]}',
            "atom s: malformed atom expansion term (term 2 exponent 2 exceeds the supported maximum of 32)",
        ),
    ],
    ids=["complex-face-5", "complex-face-false", "labelled-face-5", "labelled-face-false",
         "label-exponent-33", "label-5", "expansion-exponent-33"],
)
def test_json_inputs_refuse_with_the_exact_message(tmp_path, capsys, fmt, text, message):
    # a face, label or exponent list of exact ints passes at C speed; any other
    # one is read value by value and named as before
    path = tmp_path / "in.json"
    path.write_text(text)
    command = "labelled" if fmt == "labelled-json" else "barcodes"
    assert main([command, "--input", str(path), "--format", fmt, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("fmt", ["complex-json", "labelled-json"])
def test_json_inputs_reject_overlong_integers(tmp_path, capsys, fmt):
    # beyond 4300 digits json.load raises a plain ValueError, not a JSONDecodeError
    path = tmp_path / "in.json"
    path.write_text('{"n": 1%s, "faces": [[1, 2]], %s}' % ("0" * 5000, _LABELLED))
    command = "labelled" if fmt == "labelled-json" else "barcodes"
    assert main([command, "--input", str(path), "--format", fmt, "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}: Exceeds the limit (4300 digits)" in capsys.readouterr().err


def test_json_decode_errors_keep_their_position(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"n": 3,\n "faces": [[1, 2]')
    assert main(["barcodes", "--input", str(path), "--format", "complex-json", "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}:2:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, fmt, text",
    [
        ("barcodes", "dist-csv", "\n".join(",".join("0" if i == j else "1" for j in range(25)) for i in range(25))),
        ("barcodes", "dist-csv", "\n".join(",".join("0" for j in range(25)) for i in range(25))),
        ("barcodes", "points-json", json.dumps({"points": [[float(i == j) for j in range(25)] for i in range(25)]})),
        ("barcodes", "points-json", json.dumps({"points": [[0.5, -1.0]] * 25})),
        ("barcodes", "complex-json", '{"n": 40, "faces": [%s]}' % list(range(1, 41))),
        (
            "labelled",
            "labelled-json",
            '{"n": 40, "faces": [%s], "atoms": ["x1"], "labels": %s}' % (list(range(1, 41)), [[1]] * 40),
        ),
    ],
    ids=[
        "full-vr-25-points",
        "full-vr-25-points-at-distance-0",
        "full-vr-25-equidistant-points",
        "full-vr-25-coincident-points",
        "complex-40-vertex-face",
        "labelled-40-vertex-face",
    ],
)
def test_face_budget_exits_2(tmp_path, capsys, command, fmt, text):
    # 2^25 and 2^40 faces: the VR edge insertions and the closure stop at
    # MAX_FACES.  At equal distances, or all at distance 0, every edge ties,
    # and the budget trips while the edges list their faces
    path = tmp_path / "in"
    path.write_text(text)
    start = time.perf_counter()
    assert main([command, "--input", str(path), "--format", fmt, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 20
    assert f"the complex has more than {MAX_FACES} faces" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, text, flags",
    [
        # 2^20 EDGE bars: 463 MB of barcodes.json before the budget
        ("complex-json", json.dumps({"n": 40, "faces": [[2 * i + 1, 2 * i + 2] for i in range(20)]}), []),
        # 2.4M EDGE bars: a MemoryError traceback before the budget
        (
            "dist-csv",
            "".join(",".join(map(repr, row)) + "\n" for row in random_metric(random.Random(50), 50, 0.0)),
            ["--max-dim", "1"],
        ),
    ],
    ids=["20-disjoint-edges", "metric-50-max-dim-1"],
)
def test_edge_bar_budget_exits_2(tmp_path, capsys, fmt, text, flags):
    path = tmp_path / "in"
    path.write_text(text)
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["barcodes", "--input", str(path), "--format", fmt, "--out", str(out), *flags]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: the EDGE barcode has more than {MAX_EDGE_BARS} bars (persistence.MAX_EDGE_BARS)")
    assert "Traceback" not in err and not (out / "barcodes.json").exists()


def test_verify_max_n_bound(capsys):
    assert main(["verify", "--trials", "1", "--max-n", str(MAX_VERIFY_N)]) == 0
    capsys.readouterr()
    for value in (MAX_VERIFY_N + 1, 30, 60):
        start = time.perf_counter()
        assert main(["verify", "--max-n", str(value)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert f"--max-n must be at most {MAX_VERIFY_N}, got {value}" in captured.err
        assert "PASS" not in captured.out


def test_labelled_face_bound(tmp_path, capsys):
    path = tmp_path / "in.json"
    argv = ["labelled", "--input", str(path), "--point", "x1=3", "--out", str(tmp_path / "o")]

    def write(count):
        # the 7-vertex simplex (127 faces) plus isolated vertices: count faces
        n = count - 120
        faces = [list(range(1, 8))] + [[v] for v in range(8, n + 1)]
        path.write_text(json.dumps({"n": n, "faces": faces, "atoms": ["x1"], "labels": [[1]] * n}))

    write(MAX_LABELLED_FACES)
    assert main(argv) == 0
    write(MAX_LABELLED_FACES + 1)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert f"error: {path}: the labelled complex has {MAX_LABELLED_FACES + 1} faces" in err


def test_labelled_simplex_with_composite_atoms(tmp_path):
    # the 8-vertex simplex (255 faces) with the atoms x1+x2 and x1^2-x2+1/2
    labels = [[[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]][v % 4] for v in range(8)]
    data = {
        "n": 8,
        "faces": [list(range(1, 9))],
        "atoms": ["x1", "x2", "s", "t"],
        "labels": labels,
        "atom_polys": {"s": [[1, [1, 0]], [1, [0, 1]]], "t": [[1, [2, 0]], [-1, [0, 1]], ["1/2", [0, 0]]]},
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(["labelled", "--input", str(path), "--point", "x1=3,x2=5", "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10
    report = json.loads((out / "report.json").read_text())
    assert report["ranks"]["equal"] is True
    assert report["ranks"]["fraction_field"] == {"1": 7, "2": 21, "3": 35, "4": 35, "5": 21, "6": 7, "7": 1}
    assert report["evaluation"]["equal"] is True


@pytest.mark.parametrize(
    "text, point, message",
    [
        (
            '{"n": 2, "faces": [[1, 2]], "atoms": ["x1"], "labels": [[%d], [1]]}',
            "x1=3",
            "bad label for vertex 1 (exponent 1 exceeds the supported maximum of %d)",
        ),
        (
            _EXPANDED % '"atom_polys": {"s": [[1, [%d, 0]], [1, [0, 1]]]}',
            "x1=3,x2=1",
            "atom s: malformed atom expansion term (term 1 exponent 1 exceeds the supported maximum of %d)",
        ),
    ],
    ids=["label", "expansion-term"],
)
def test_exponent_bound(tmp_path, capsys, text, point, message):
    path = tmp_path / "in.json"
    argv = ["labelled", "--input", str(path), "--point", point, "--out", str(tmp_path / "o")]
    path.write_text(text % MAX_EXPONENT)
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 5
    path.write_text(text % (MAX_EXPONENT + 1))
    assert main(argv) == 2
    assert message % MAX_EXPONENT in capsys.readouterr().err
