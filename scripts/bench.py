"""Record one BENCH_<LABEL>.json: the size ladder and one benchmark run per workload.

    python3 scripts/bench.py LABEL

Standard library only; it imports idealtda from the ``src/`` next to this
directory and writes ``BENCH_<LABEL>.json`` at the root of the repository.
The file holds the Python version and the platform, then:

* ``ladder``: one row per (n, max_dim) of ``LADDER``.  A run of a row
  runs the command ``barcodes --format dist-csv --max-dim D --svg``
  (without ``--max-dim`` when D is None, so all 2^n - 1 faces) on the
  random metric ``verify.random_metric(Random(n), n, 0.0)`` through
  ``cli.main``, and times the whole command and each stage it calls
  (found by rebinding the ``idealtda.cli`` attributes, as the traced
  benchmark does).  Its seconds are reference-core seconds: the command
  runs between two runs of the calibration loop of ``perfbench/run.py``
  and is scaled by its ``to_reference``.  Each row is run ``RUNS`` times,
  each in a fresh interpreter so that its peak RSS is its own, and records
  the faces, steps and bars (read off the ``vr_filtration``,
  ``prime_barcode`` and ``ph_barcode`` returns), the size and SHA-256
  digest of each output file, which must agree over the runs, and the
  median and the spread (largest minus smallest) of the seconds and of
  the peak RSS;
* ``workloads``: the end-to-end metrics of one
  ``perfbench/run.py --seed 0 --seconds S --trace 0`` run per workload,
  where S is the ``run_seconds`` of ``BENCHMARK.json``, with its
  pass/fail count.

Nothing under ``perfbench/`` is edited: ``calibration_time`` and
``to_reference`` are imported from ``perfbench/run.py``, which stays as it
is.  Runs go in a temporary directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"
RUN = PERFBENCH / "run.py"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# (n, max_dim): the truncated rows of the size ladder, then untruncated
# rows of 16383 and 65535 faces, where vr_filtration and PH dominate
LADDER = ((20, 2), (30, 2), (40, 2), (14, None), (16, None))
RUNS = 3  # fresh-interpreter runs of each ladder row
WORKLOADS = ("rips_trunc", "rips_full", "labelled", "verify")
OUTPUTS = ("barcodes.json", "barcodes.svg", "report.json")

# idealtda.cli attribute -> stage; prime_barcode is split by its kind
STAGES = {
    "load_distance_csv": "parse",
    "vr_filtration": "vr_filtration",
    "prime_barcode": None,
    "ph_barcode": "ph_barcode",
    "dumps_json": "dumps_json",
    "coverage_report": "coverage_report",
    "barcodes_svg": "barcodes_svg",
}


def _counts(attr: str, out) -> dict[str, int]:
    """The sizes a row records, read off one stage's return value, which
    is not kept: faces and steps of the filtration, bars per kind."""
    if attr == "vr_filtration":
        return {"faces": len(out.birth_map), "steps": len(out.params)}
    if attr == "prime_barcode":
        return {out.kind: len(out.bars)}
    if attr == "ph_barcode":
        return {"PH": sum(len(bars) for _, bars in out.bars)}
    return {}


def _calibration():
    """``calibration_time`` and ``to_reference`` of perfbench/run.py."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.calibration_time, run.to_reference


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def ladder_row(n: int, max_dim: int | None) -> dict:
    """One run of ``barcodes --svg`` on the seeded n-point metric, up to
    dimension max_dim (all dimensions when None), in reference-core
    seconds."""
    from idealtda import cli
    from idealtda.verify import random_metric

    calibration_time, to_reference = _calibration()
    dist = random_metric(random.Random(n), n, 0.0)
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}

    def timed(attr, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            stage = STAGES[attr] or str(args[1]).lower()
            seconds[stage] = seconds.get(stage, 0.0) + perf_counter() - start
            counts.update(_counts(attr, out))
            return out

        return wrapper

    saved = {attr: getattr(cli, attr) for attr in STAGES}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            os.chdir(work)
            Path(f"n{n}.csv").write_text("".join(",".join(map(repr, row)) + "\n" for row in dist))
            for attr, fn in saved.items():
                setattr(cli, attr, timed(attr, fn))
            argv = ["barcodes", "--input", f"n{n}.csv", "--format", "dist-csv"]
            if max_dim is not None:
                argv += ["--max-dim", str(max_dim)]
            before = calibration_time()
            start = perf_counter()
            code = cli.main(argv + ["--out", "out", "--svg"])
            seconds["command"] = perf_counter() - start
            after = calibration_time()
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"barcodes exited {code} at n={n}")
        files = [Path(work) / "out" / name for name in OUTPUTS]
        sizes = {f.name: f.stat().st_size for f in files}
        digests = {f.name: _sha256(f) for f in files}
    return {
        "n": n,
        "max_dim": max_dim,
        "faces": counts["faces"],
        "steps": counts["steps"],
        "bars": {kind: counts[kind] for kind in ("SR", "EDGE", "PH")},
        "seconds": {stage: to_reference(t, before, after) for stage, t in seconds.items()},
        "bytes": sizes,
        "sha256": digests,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _fresh_ladder_run(n: int, max_dim: int | None) -> dict:
    code = (
        f"import sys, json; sys.path[:0] = [{str(SRC)!r}, {str(ROOT / 'scripts')!r}]; "
        f"import bench; print(json.dumps(bench.ladder_row({n}, {max_dim})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _median_and_spread(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), max(values) - min(values)


def fresh_ladder_row(n: int, max_dim: int | None) -> dict:
    """``RUNS`` fresh-interpreter runs of one row: the sizes and digests,
    which every run must repeat, and the median and the spread of the
    seconds of each stage and of the peak RSS."""
    rows = [_fresh_ladder_run(n, max_dim) for _ in range(RUNS)]
    fixed = ("n", "max_dim", "faces", "steps", "bars", "bytes", "sha256")
    for row in rows[1:]:
        differ = [key for key in fixed if row[key] != rows[0][key]]
        if differ:
            raise RuntimeError(f"ladder row n={n} max_dim={max_dim} differs between runs in {differ}")
    out = {key: rows[0][key] for key in fixed}
    out["runs"] = RUNS
    stages = {stage: _median_and_spread([row["seconds"][stage] for row in rows]) for stage in rows[0]["seconds"]}
    out["seconds"] = {stage: m for stage, (m, _) in stages.items()}
    out["seconds_spread"] = {stage: s for stage, (_, s) in stages.items()}
    out["peak_rss_mib"], out["peak_rss_mib_spread"] = _median_and_spread([row["peak_rss_mib"] for row in rows])
    return out


def _workload(name: str) -> dict:
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "result.json"
        cmd = [sys.executable, str(RUN), "--workload", name, "--seed", "0", "--seconds", str(RUN_SECONDS), "--trace", "0"]
        subprocess.run(cmd + ["--out", str(out)], cwd=work, capture_output=True, check=True)
        result = json.loads(out.read_text())
    return {key: result[key] for key in ("correct", "attempted", "failed", "end_to_end")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    args = parser.parse_args(argv)
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "ladder": [],
        "workloads": {},
    }
    for n, max_dim in LADDER:
        record["ladder"].append(fresh_ladder_row(n, max_dim))
        print(f"ladder n={n} max_dim={max_dim}: {record['ladder'][-1]['seconds']}", file=sys.stderr)
    for name in WORKLOADS:
        record["workloads"][name] = _workload(name)
        print(f"{name}: {record['workloads'][name]['end_to_end']}", file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
