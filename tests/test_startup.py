"""What a fresh interpreter loads: the package loads no submodule, the
oracles of idealtda.verify and the labelled framework (idealtda.labelled
and idealtda.monomials) stay off the start-up path of the CLI and of a
barcodes run, and each loads on first use."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = 'seen.append("idealtda.verify" in sys.modules)'


def _fresh(code: str, cwd: Path) -> list:
    """Run ``code`` in a new interpreter that imports idealtda from src,
    and return the list ``seen`` that it fills."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\nseen = []\n{code}\nprint(json.dumps(seen))"],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_leaves_the_oracles_unloaded(tmp_path):
    code = f"""
import idealtda, idealtda.cli
assert idealtda.__file__.startswith({str(SRC)!r})
{LOADED}
seen.append(callable(idealtda.verify.run_all))
{LOADED}
"""
    assert _fresh(code, tmp_path) == [False, True, True]


def test_unknown_package_attributes_raise_attribute_error(tmp_path):
    code = f"""
import idealtda
try:
    idealtda.no_such_name
except AttributeError as exc:
    seen.append(str(exc))
seen.append(hasattr(idealtda, "no_such_name"))
{LOADED}
"""
    assert _fresh(code, tmp_path) == ["module 'idealtda' has no attribute 'no_such_name'", False, False]


def test_only_the_verify_command_loads_the_oracles(tmp_path):
    (tmp_path / "four.csv").write_text("0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
    barcodes = ["barcodes", "--input", "four.csv", "--out", "out", "--svg"]
    code = f"""
from idealtda.cli import main
seen.append(main({barcodes!r}))
{LOADED}
seen.append(main(["verify", "--trials", "1", "--max-n", "4"]))
{LOADED}
"""
    assert _fresh(code, tmp_path) == [0, False, 0, True]
    assert (tmp_path / "out" / "barcodes.json").is_file()


LAZY = ("idealtda.labelled", "idealtda.monomials", "idealtda.verify")
LOADED_LAZY = f"seen.append(sorted(m for m in {LAZY!r} if m in sys.modules))"

_LABELLED_JSON = {
    "n": 4,
    "faces": [[1, 2, 3], [1, 4]],
    "atoms": ["x1", "x2", "x3", "x4"],
    "labels": [[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]],
}


def test_barcodes_leaves_the_labelled_framework_unloaded(tmp_path):
    # the package and the CLI load neither labelled nor the ideal algebra of
    # monomials, and a barcodes run loads neither; a labelled run loads both
    (tmp_path / "four.csv").write_text("0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n")
    (tmp_path / "worked.json").write_text(json.dumps(_LABELLED_JSON))
    barcodes = ["barcodes", "--input", "four.csv", "--out", "bars", "--svg"]
    labelled = ["labelled", "--input", "worked.json", "--alpha", "0,1,1,1", "--point", "x1=1,x2=2,x3=1/2,x4=-3", "--out", "lab"]
    code = f"""
import idealtda, idealtda.cli
{LOADED_LAZY}
seen.append(idealtda.cli.main({barcodes!r}))
{LOADED_LAZY}
seen.append(idealtda.cli.main({labelled!r}))
{LOADED_LAZY}
"""
    seen = _fresh(code, tmp_path)
    assert seen == [[], 0, [], 0, ["idealtda.labelled", "idealtda.monomials"]]
    assert (tmp_path / "bars" / "barcodes.svg").is_file()
    report = json.loads((tmp_path / "lab" / "report.json").read_text())
    assert report["ranks"]["equal"] and report["evaluation"]["equal"] and report["slice"]["iso"]


def test_package_names_resolve_on_first_access(tmp_path):
    code = f"""
import idealtda
seen.append(sorted(m for m in sys.modules if m.startswith("idealtda")))
seen.append(idealtda.LabelledComplex.__module__)
seen.append(idealtda.monomials.LinearPrime is idealtda.LinearPrime)
seen.append(idealtda.LinearPrime.__module__)
{LOADED_LAZY}
"""
    seen = _fresh(code, tmp_path)
    assert seen == [["idealtda"], "idealtda.labelled", True, "idealtda.complexes", ["idealtda.labelled", "idealtda.monomials"]]


def test_the_binder_keeps_names_rebound_on_the_cli(tmp_path):
    # a caller may rebind a labelled name on cli before the first labelled
    # run, with labelled still unloaded or after reading the name through
    # cli's __getattr__; the run keeps both bindings, and cli still refuses
    # names it does not have
    (tmp_path / "worked.json").write_text(json.dumps(_LABELLED_JSON))
    labelled = ["labelled", "--input", "worked.json", "--out", "lab"]
    code = f"""
from idealtda import cli
calls = []
def fraction_field_ranks(LC):
    calls.append("fraction_field_ranks")
    return dict.fromkeys(range(-1, 3), 0)
cli.fraction_field_ranks = fraction_field_ranks
{LOADED_LAZY}
real = cli.boundary_matrices
{LOADED_LAZY}
def counted(LC):
    calls.append("boundary_matrices")
    return real(LC)
cli.boundary_matrices = counted
seen.append(cli.main({labelled!r}))
seen.append(calls)
seen.append(cli.boundary_matrices is counted and cli.fraction_field_ranks is fraction_field_ranks)
seen.append(hasattr(cli, "no_such_name"))
"""
    assert _fresh(code, tmp_path) == [
        [],
        ["idealtda.labelled", "idealtda.monomials"],
        0,
        ["boundary_matrices", "fraction_field_ranks"],
        True,
        False,
    ]
    report = json.loads((tmp_path / "lab" / "report.json").read_text())
    assert report["ranks"]["equal"] is False
