"""What a fresh interpreter loads: the oracles of idealtda.verify stay off
the start-up path of the package and of the CLI, and load on first use."""

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
