"""The ladder of scripts/bench.py, at a size small enough for the suite."""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import idealtda
from idealtda import cli
from idealtda.verify import random_metric

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracing) -> dict:
    """Every attribute that the tracer binds, as it is bound now."""
    return {(mod, attr): getattr(getattr(idealtda, mod), attr) for mod, attr, _ in tracing.BINDINGS}


def _layers(tracing, workload: str) -> set[str]:
    return {name for name, (_, on) in tracing.LAYERS.items() if workload in on}


@pytest.mark.parametrize(
    "n, max_dim, tie_prob, faces, flags",
    [(6, 2, 0.0, 6 + 15 + 20, ["--max-dim", "2"]), (5, None, 0.0, 2**5 - 1, []), (6, None, 0.5, 2**6 - 1, [])],
    ids=["truncated", "untruncated", "tied"],
)
def test_ladder_row_keys(tmp_path, monkeypatch, n, max_dim, tie_prob, faces, flags):
    bench = _bench_module()
    assert all(len(rung) == 3 for rung in bench.LADDER)
    assert (16, None, 0.5) in bench.LADDER  # one row takes the walk of a tied filtration
    tracing = bench._perfbench().tracing
    bound = _bound(tracing)
    row = bench.ladder_row(n, max_dim, tie_prob)
    assert _bound(tracing) == bound  # the tracer is uninstalled
    assert set(row) == {"n", "max_dim", "tie_prob", "faces", "steps", "bars", "seconds", "bytes", "sha256", "peak_rss_mib"}
    assert (row["n"], row["max_dim"], row["tie_prob"], row["faces"]) == (n, max_dim, tie_prob, faces)
    assert set(row["bars"]) == {"SR", "EDGE", "PH"} and all(v > 0 for v in row["bars"].values())
    # the command and each layer the traced rips_trunc workload reaches; serialize.write
    # writes barcodes.json and barcodes.svg in one walk, so no layer draws the SVG alone
    assert set(row["seconds"]) == {"command"} | _layers(tracing, "rips_trunc")
    assert all(0 < t <= row["seconds"]["command"] for t in row["seconds"].values())
    assert set(row["bytes"]) == set(row["sha256"]) == set(bench.OUTPUTS)
    assert all(v > 0 for v in row["bytes"].values()) and row["peak_rss_mib"] > 0
    # the row digests the files the command itself writes
    monkeypatch.chdir(tmp_path)
    dist = random_metric(random.Random(n), n, tie_prob)
    halves = [x for j, r in enumerate(dist) for x in r[:j]]
    assert (len(set(halves)) < len(halves)) == bool(tie_prob)
    Path(f"n{n}.csv").write_text("".join(",".join(map(repr, r)) + "\n" for r in dist))
    argv = ["barcodes", "--input", f"n{n}.csv", "--format", "dist-csv", *flags, "--out", "out", "--svg"]
    assert cli.main(argv) == 0
    for name in bench.OUTPUTS:
        assert hashlib.sha256(Path("out", name).read_bytes()).hexdigest() == row["sha256"][name]
    # and counts the bars of each kind that it writes
    written = json.loads(Path("out", "barcodes.json").read_text())["barcodes"]
    assert row["bars"] == {bc["kind"]: len(bc["intervals"]) for bc in written}


def test_fresh_ladder_row_aggregates_its_runs(monkeypatch):
    bench = _bench_module()
    monkeypatch.setattr(bench, "RUNS", 2)
    row = bench.fresh_ladder_row(6, 2, 0.5)
    assert set(row) == {
        "n", "max_dim", "tie_prob", "faces", "steps", "bars", "bytes", "sha256", "runs",
        "seconds", "seconds_spread", "peak_rss_mib", "peak_rss_mib_spread",
    }
    assert (row["n"], row["max_dim"], row["tie_prob"], row["faces"], row["runs"]) == (6, 2, 0.5, 6 + 15 + 20, 2)
    assert set(row["seconds"]) == set(row["seconds_spread"]) and "command" in row["seconds"]
    assert all(v >= 0 for v in row["seconds_spread"].values()) and row["peak_rss_mib_spread"] >= 0


@pytest.mark.parametrize("kind", ["composite", "monomial"])
def test_labelled_row_keys(tmp_path, monkeypatch, kind):
    bench = _bench_module()
    assert all(vertices <= 9 for _, vertices in bench.LABELLED_LADDER)  # MAX_LABELLED_FACES
    tracing = bench._perfbench().tracing
    bound = _bound(tracing)
    row = bench.labelled_row(kind, 4)
    assert _bound(tracing) == bound  # the tracer is uninstalled
    assert set(row) == {"kind", "vertices", "faces", "seconds", "bytes", "sha256", "peak_rss_mib"}
    assert (row["kind"], row["vertices"], row["faces"]) == (kind, 4, 15)
    # the point is admissible and diag_relation holds, so no window is taken and
    # the evaluation's ranks are the classical QQ ones; only --alpha takes the
    # graded slice, whose subcomplex is the whole complex, ranked by them too
    unused = {"labelled.local_subcomplex", "labelled.evaluate_chain", "labelled.classical_betti"}
    if kind == "composite":
        unused |= {"labelled.graded_slice", "labelled.slice_iso_check"}
    assert set(row["seconds"]) == {"command"} | _layers(tracing, "labelled") - unused
    assert set(row["bytes"]) == set(row["sha256"]) == {"report.json"}
    # the row digests the report the command itself writes
    monkeypatch.chdir(tmp_path)
    data, flags = bench.labelled_input(kind, 4)
    Path("in.json").write_text(json.dumps(data))
    assert cli.main(["labelled", "--input", "in.json", *flags, "--out", "out"]) == 0
    report = Path("out", "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == row["sha256"]["report.json"]
    assert json.loads(report)["evaluation"]["admissible"] is True
    assert ("slice" in json.loads(report)) == (kind == "monomial")


def test_untraced_rows_time_the_command_alone():
    bench = _bench_module()
    tracing = bench._perfbench().tracing
    bound = _bound(tracing)
    row = bench.labelled_row("composite", 4, traced=False)
    assert _bound(tracing) == bound  # no tracer was installed
    assert set(row["seconds"]) == {"command"} and row["seconds"]["command"] > 0
    assert row["sha256"] == bench.labelled_row("composite", 4)["sha256"]
    row = bench.ladder_row(5, None, 0.0, traced=False)
    assert set(row) == {"seconds", "bytes", "sha256", "peak_rss_mib"} and set(row["seconds"]) == {"command"}
    assert row["sha256"] == bench.ladder_row(5, None, 0.0)["sha256"]


def test_fresh_startup_keys(monkeypatch):
    bench = _bench_module()
    monkeypatch.setattr(bench, "RUNS", 2)
    record = bench.fresh_startup()
    assert set(record) == {"runs", "imports", "seconds", "seconds_quartiles", "seconds_spread", "first_seconds", "modules"}
    assert record["runs"] == 2 and record["imports"] == 2 * bench.IMPORTS >= 18
    q1, q3 = record["seconds_quartiles"]
    assert 0 < q1 <= record["seconds"] <= q3 and record["seconds_spread"] >= q3 - q1
    # the first import also loads the standard-library modules idealtda pulls in
    assert record["first_seconds"] > q1
    # the CLI's start-up path: the package, cli and the barcode modules, not
    # the oracles and not the labelled framework
    assert {"idealtda", "idealtda.cli", "idealtda.persistence"} <= set(record["modules"])
    assert not {"idealtda.verify", "idealtda.labelled", "idealtda.monomials"} & set(record["modules"])
    with pytest.raises(RuntimeError, match="already imported"):
        bench.startup_run()
    with pytest.raises(RuntimeError, match=r"\['json'\] were loaded before the first import"):
        bench.startup_run((0.05, 0.0015, 0.0015, ["json"]))


def test_first_import_runs_before_the_cold_modules(tmp_path):
    # the prelude loads none of COLD_MODULES before its timed import, which
    # then loads all of them, in an interpreter that compiles from source
    bench = _bench_module()
    code = bench._first_import_code(bench.SRC) + (
        "print(repr((first, sorted(set(%r) & sys.modules.keys()))))" % (bench.COLD_MODULES,)
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, cwd=tmp_path)
    (elapsed, before, after, preloaded), loaded = ast.literal_eval(out.stdout)
    assert preloaded == [] and loaded == sorted(bench.COLD_MODULES)
    assert elapsed > 0 and before > 0 and after > 0
