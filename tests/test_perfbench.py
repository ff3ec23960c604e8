"""The benchmark harness must keep passing its own self-check.

The self-check runs every workload traced at tiny sizes, so a hot-path
change that stops reaching a layer the trace requires fails here.
"""

from __future__ import annotations

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
