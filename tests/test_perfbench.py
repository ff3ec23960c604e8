"""The benchmark harness must keep passing its own self-check.

The self-check runs every workload traced at tiny sizes, so a hot-path
change that stops reaching a layer the trace requires fails here.  A
short traced ``rips_trunc`` run pins that its time stays attributed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_perfbench_selfcheck_passes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--selfcheck"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_traced_rips_trunc_books_the_barcode_write(tmp_path):
    # the barcode files are written inside the traced serialize.write layer,
    # so a writer that stops going through cli.dumps_json shows up as
    # unattributed time of the operation's root span
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "rips_trunc", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["serialize.write_s"]["value"] > 0
    assert metrics["trace.unattributed_share"]["value"] < 0.1
