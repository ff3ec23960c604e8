from __future__ import annotations

import hashlib
import json
import math
import time
import xml.etree.ElementTree as ET

import pytest

from idealtda import cli
from idealtda.cli import main
from idealtda.complexes import MAX_FACES
from idealtda.serialize import MAX_EXPONENT, MAX_LABELLED_FACES


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
    ],
    ids=["tied-signed-zero-csv", "seven-points-full-vr", "simplex-complex-max-dim-1"],
)
def test_barcodes_output_bytes(tmp_path, monkeypatch, name, text, fmt, flags, digests):
    # pins barcodes.json, report.json and barcodes.svg byte for byte; relative
    # paths, because the input path is recorded in the metadata
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert main(["barcodes", "--input", name, "--format", fmt, "--out", "out", "--svg"] + flags) == 0
    for file, digest in zip(("barcodes.json", "report.json", "barcodes.svg"), digests):
        assert hashlib.sha256((tmp_path / "out" / file).read_bytes()).hexdigest() == digest, file


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
    [("x1", "bad --point entry 'x1'"), ("x1=3", "missing coordinates for variables: x2")],
    ids=["malformed", "missing-variable"],
)
def test_labelled_point_checked_before_rank_work(tmp_path, capsys, monkeypatch, point, message):
    def no_rank_work(LC):
        raise AssertionError("rank work started before the point was checked")

    monkeypatch.setattr(cli, "fraction_field_ranks", no_rank_work)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_POLY_LABELLED))
    assert main(["labelled", "--input", str(path), "--point", point, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_verify_quick_and_fault_injection(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--trials", "4", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 9
    report = json.loads((out / "report.json").read_text())
    assert all(s["failures"] == 0 for s in report["suites"])

    assert main(["verify", "--trials", "4", "--seed", "3", "--inject-fault"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_degenerate_single_vertex(capsys):
    assert main(["verify", "--trials", "3", "--seed", "0", "--max-n", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out


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
        ("labelled-json", _EXPANDED % '"atom_polys": []', "'atom_polys' must be an object, found []"),
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
        ("barcodes", "complex-json", '{"n": 40, "faces": [%s]}' % list(range(1, 41))),
        (
            "labelled",
            "labelled-json",
            '{"n": 40, "faces": [%s], "atoms": ["x1"], "labels": %s}' % (list(range(1, 41)), [[1]] * 40),
        ),
    ],
    ids=["full-vr-25-points", "complex-40-vertex-face", "labelled-40-vertex-face"],
)
def test_face_budget_exits_2(tmp_path, capsys, command, fmt, text):
    # 2^25 and 2^40 faces: the walk and the closure stop at MAX_FACES
    path = tmp_path / "in"
    path.write_text(text)
    start = time.perf_counter()
    assert main([command, "--input", str(path), "--format", fmt, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 20
    assert f"the complex has more than {MAX_FACES} faces" in capsys.readouterr().err


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
