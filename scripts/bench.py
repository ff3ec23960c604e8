"""Record one BENCH_<LABEL>.json: the size ladder and one benchmark run per workload.

    python3 scripts/bench.py LABEL

Standard library only; it imports idealtda from the ``src/`` next to this
directory and writes ``BENCH_<LABEL>.json`` at the root of the repository.
The file holds the Python version and the platform, then:

* ``ladder``: one row per (n, max_dim, tie_prob) of ``LADDER``.  A run of
  a row runs the command ``barcodes --format dist-csv --max-dim D --svg``
  (without ``--max-dim`` when D is None, so all 2^n - 1 faces) on the
  random metric ``verify.random_metric(Random(n), n, tie_prob)`` through
  ``cli.main``.  A traced run runs it under the tracer of
  ``perfbench/tracing.py``: the command is its root span, and each layer
  of its ``LAYERS`` that records a call is timed on its own, by its
  inclusive seconds, under its ``LAYERS`` name (``serialize.write`` writes
  ``barcodes.json`` and ``barcodes.svg`` in one walk over the bars, and
  ``report.json``).  An untraced run times the command alone, so that its
  seconds carry no cost of the tracer's wrappers.  The seconds are
  reference-core seconds: the command runs between two runs of the
  calibration loop of ``perfbench/run.py`` and is scaled by its
  ``to_reference``.  Each row is run ``RUNS`` times traced and ``RUNS``
  times untraced, each in a fresh interpreter so that its peak RSS is its
  own, and records the faces, steps and bars (read off the traced
  filtration and barcodes as they are returned), the size and SHA-256
  digest of each output file, which must agree over all the runs, and the
  median and the spread (largest minus smallest) of the seconds and of
  the peak RSS: ``command`` and the peak RSS from the untraced runs, each
  layer from the traced ones;
* ``labelled_ladder``: one row per (kind, vertices) of ``LABELLED_LADDER``,
  run, traced, timed, calibrated and aggregated like the ``ladder`` rows.  A run
  of a row runs ``labelled`` on the full simplex on that many vertices
  (127, 255 or 511 faces) with labels seeded by ``Random(vertices)``: kind
  ``composite`` over two variables and two composite atoms with
  ``--point``, kind ``monomial`` over four variable atoms with ``--point``
  and ``--alpha`` at the lcm of the labels, so the graded slice is the
  whole reduced complex.  It records the size and SHA-256 digest of
  ``report.json``;
* ``startup``: ``RUNS`` fresh interpreters, each under
  ``PYTHONDONTWRITEBYTECODE=1`` and on a copy of ``src/idealtda`` with no
  bytecode cache, so that idealtda compiles from source as in a fresh
  checkout, time ``IMPORTS`` imports ``import idealtda, idealtda.cli``
  each, every one after removing the idealtda modules from
  ``sys.modules`` as ``perfbench/run.py`` ``fresh_import`` does, and
  between two runs of the calibration loop, scaled by ``to_reference``
  like the ladder rows.  It records the median, the quartiles and the
  spread of all ``RUNS * IMPORTS`` times, and the idealtda modules the
  import loaded, which must agree over the imports.  Those are re-imports:
  the standard-library modules that idealtda pulls in (``COLD_MODULES``)
  stay loaded.  A CLI user also pays for them on the first import, so
  each interpreter first times one ``import idealtda, idealtda.cli``
  before any of them is loaded, between two runs of the calibration loop,
  and ``first_seconds`` is the median of those ``RUNS`` first imports;
* ``workloads``: the end-to-end metrics of one
  ``perfbench/run.py --seed 0 --seconds S --trace 0`` run per workload,
  where S is the ``run_seconds`` of ``BENCHMARK.json``, with its
  pass/fail count.

Nothing under ``perfbench/`` is edited: ``calibration_time``,
``to_reference`` and the tracer are loaded from ``perfbench/run.py``,
which stays as it is, so the list of timed layers lives only in
``perfbench/tracing.py``.  Runs go in a temporary directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
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
# (n, max_dim, tie probability): the truncated rows of the size ladder, then
# untruncated rows of 16383 and 65535 faces, where vr_filtration and PH
# dominate; the last row has ties, so its filtration order is the checked walk
LADDER = ((20, 2, 0.0), (30, 2, 0.0), (40, 2, 0.0), (14, None, 0.0), (16, None, 0.0), (16, None, 0.5))
# (kind, vertices): labelled rows on full simplices of 127, 255 and 511 faces
LABELLED_LADDER = (("composite", 7), ("composite", 8), ("composite", 9), ("monomial", 9))
RUNS = 3  # fresh-interpreter runs of each ladder row
IMPORTS = 9  # timed imports per fresh interpreter of the startup record, as many as perfbench's setup_s
# standard-library modules that a first import of idealtda.cli loads, and none of the startup record's code before it
COLD_MODULES = ("dataclasses", "argparse", "fractions", "json")
WORKLOADS = ("rips_trunc", "rips_full", "labelled", "verify")
OUTPUTS = ("barcodes.json", "barcodes.svg", "report.json")


def _perfbench():
    """perfbench/run.py, loaded from its file: its calibration loop and,
    as ``.tracing``, the tracer of its traced pass."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def _peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _timed_command(argv: list[str], inputs: dict[str, str], outputs: tuple[str, ...], traced: bool = True) -> dict:
    """One ``cli.main(argv + ["--out", "out"])`` in a temporary directory
    holding ``inputs`` (file name -> text), traced as the root span of the
    tracer of ``perfbench/tracing.py`` when ``traced``.  Returns the
    inclusive seconds of the command and, when traced, of each layer that
    recorded a call, in reference-core seconds; the sizes read off the
    traced returns, the faces and steps of a filtration and the bars of
    each barcode, by kind; and the size and the digest of each output file."""
    import idealtda
    from idealtda.complexes import Filtration
    from idealtda.persistence import Barcode

    run = _perfbench()
    tracing = run.tracing
    counts: dict[str, int] = {}

    class CountingTracer(tracing.Tracer):
        def call(self, name, fn, *args, **kwargs):
            out = super().call(name, fn, *args, **kwargs)
            if isinstance(out, Filtration):
                counts.update(faces=len(out.birth_map), steps=len(out.params))
            elif isinstance(out, Barcode):
                counts[out.kind] = len(out.bars)
            return out

    tracer = CountingTracer()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            os.chdir(work)
            for name, text in inputs.items():
                Path(name).write_text(text)
            main = idealtda.cli.main
            if traced:
                tracer.install(idealtda)
                main = functools.partial(tracer.call, tracing.ROOT, main)
            before = run.calibration_time()
            start = perf_counter()
            code = main(argv + ["--out", "out"])
            elapsed = perf_counter() - start
            after = run.calibration_time()
        finally:
            tracer.uninstall()
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        files = [Path(work) / "out" / name for name in outputs]
        sizes = {f.name: f.stat().st_size for f in files}
        digests = {f.name: _sha256(f) for f in files}
    seconds = {tracing.ROOT: elapsed}
    if traced:
        seconds = {name: row["inclusive_s"] for name, row in tracing.summarise(tracer.spans).items()}
    seconds["command"] = seconds.pop(tracing.ROOT)
    return {
        "counts": counts,
        "seconds": {name: run.to_reference(t, before, after) for name, t in seconds.items()},
        "bytes": sizes,
        "sha256": digests,
    }


def ladder_row(n: int, max_dim: int | None, tie_prob: float, traced: bool = True) -> dict:
    """One run of ``barcodes --svg`` on the seeded n-point metric with tie
    probability tie_prob, up to dimension max_dim (all dimensions when
    None), in reference-core seconds; untraced, only the command's seconds,
    the output files and the peak RSS."""
    from idealtda.verify import random_metric

    dist = random_metric(random.Random(n), n, tie_prob)
    argv = ["barcodes", "--input", f"n{n}.csv", "--format", "dist-csv"]
    if max_dim is not None:
        argv += ["--max-dim", str(max_dim)]
    csv = "".join(",".join(map(repr, row)) + "\n" for row in dist)
    run = _timed_command(argv + ["--svg"], {f"n{n}.csv": csv}, OUTPUTS, traced)
    counts = run.pop("counts")
    if not traced:
        return {**run, "peak_rss_mib": _peak_rss_mib()}
    return {
        "n": n,
        "max_dim": max_dim,
        "tie_prob": tie_prob,
        "faces": counts["faces"],
        "steps": counts["steps"],
        "bars": {kind: counts[kind] for kind in ("SR", "EDGE", "PH")},
        **run,
        "peak_rss_mib": _peak_rss_mib(),
    }


def labelled_input(kind: str, vertices: int) -> tuple[dict, list[str]]:
    """The labelled-complex JSON of one labelled row and the flags it runs
    with: the full simplex on ``vertices`` vertices, label exponents 0..2
    seeded by ``Random(vertices)``."""
    rng = random.Random(vertices)
    if kind == "composite":
        atoms = ["x1", "x2", "x1+x2", "x1-x2+1"]
        polys = {"x1+x2": [[1, [1, 0]], [1, [0, 1]]], "x1-x2+1": [[1, [1, 0]], [-1, [0, 1]], [1, [0, 0]]]}
        flags = ["--point", "x1=2,x2=5"]
    elif kind == "monomial":
        atoms, polys = ["x1", "x2", "x3", "x4"], {}
        flags = ["--point", "x1=2,x2=-1,x3=3,x4=-5"]
    else:
        raise ValueError(f"unknown labelled row kind {kind!r}")
    labels = [[rng.randint(0, 2) for _ in atoms] for _ in range(vertices)]
    if kind == "monomial":
        flags += ["--alpha", ",".join(str(max(exps)) for exps in zip(*labels))]
    data = {"n": vertices, "faces": [list(range(1, vertices + 1))], "atoms": atoms, "atom_polys": polys, "labels": labels}
    return data, flags


def labelled_row(kind: str, vertices: int, traced: bool = True) -> dict:
    """One run of ``labelled`` on the input of :func:`labelled_input`, in
    reference-core seconds; untraced, only the command's seconds."""
    data, flags = labelled_input(kind, vertices)
    argv = ["labelled", "--input", "in.json", *flags]
    run = _timed_command(argv, {"in.json": json.dumps(data)}, ("report.json",), traced)
    del run["counts"]
    return {"kind": kind, "vertices": vertices, "faces": 2**vertices - 1, **run, "peak_rss_mib": _peak_rss_mib()}


def _median_and_spread(values: list[float]) -> tuple[float, float]:
    return statistics.median(values), max(values) - min(values)


def _fresh_runs(
    call: str, fixed: tuple[str, ...], src: Path = SRC, env: dict | None = None, prelude: str = ""
) -> list[dict]:
    """``RUNS`` runs of ``bench.<call>``, each in a fresh interpreter that
    runs ``prelude`` first and imports idealtda from ``src``; every run must
    repeat the ``fixed`` keys."""
    code = prelude + (
        f"import sys, json; sys.path[:0] = [{str(src)!r}, {str(ROOT / 'scripts')!r}]; "
        f"import bench; print(json.dumps(bench.{call}))"
    )
    rows = []
    for _ in range(RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        rows.append(json.loads(proc.stdout))
    for row in rows[1:]:
        differ = [key for key in fixed if row[key] != rows[0][key]]
        if differ:
            raise RuntimeError(f"{call} differs between runs in {differ}")
    return rows


def _fresh_row(call: str, args: str, fixed: tuple[str, ...]) -> dict:
    """``RUNS`` traced and ``RUNS`` untraced runs of ``bench.<call>(<args>)``,
    each in a fresh interpreter: the ``fixed`` keys, which every traced run
    must repeat, and the median and the spread of the seconds of each
    stage, the command's from the untraced runs, and of their peak RSS.
    Every run must write the same files."""
    rows = _fresh_runs(f"{call}({args})", fixed)
    timed = _fresh_runs(f"{call}({args}, traced=False)", ("bytes", "sha256"))
    if timed[0]["sha256"] != rows[0]["sha256"]:
        raise RuntimeError(f"{call}({args}) writes other files untraced")
    out = {key: rows[0][key] for key in fixed}
    out["runs"] = RUNS
    seconds = {stage: [row["seconds"][stage] for row in rows] for stage in rows[0]["seconds"]}
    seconds["command"] = [row["seconds"]["command"] for row in timed]
    stages = {stage: _median_and_spread(values) for stage, values in seconds.items()}
    out["seconds"] = {stage: m for stage, (m, _) in stages.items()}
    out["seconds_spread"] = {stage: s for stage, (_, s) in stages.items()}
    out["peak_rss_mib"], out["peak_rss_mib_spread"] = _median_and_spread([row["peak_rss_mib"] for row in timed])
    return out


def fresh_ladder_row(n: int, max_dim: int | None, tie_prob: float) -> dict:
    """``RUNS`` traced and ``RUNS`` untraced fresh-interpreter runs of one
    ``ladder`` row, aggregated."""
    fixed = ("n", "max_dim", "tie_prob", "faces", "steps", "bars", "bytes", "sha256")
    return _fresh_row("ladder_row", f"{n}, {max_dim}, {tie_prob!r}", fixed)


def fresh_labelled_row(kind: str, vertices: int) -> dict:
    """``RUNS`` traced and ``RUNS`` untraced fresh-interpreter runs of one
    ``labelled_ladder`` row, aggregated."""
    return _fresh_row("labelled_row", f"{kind!r}, {vertices}", ("kind", "vertices", "faces", "bytes", "sha256"))


def _loaded_modules() -> list[str]:
    return sorted(m for m in sys.modules if m == "idealtda" or m.startswith("idealtda."))


def _first_import_code(src: Path) -> str:
    """The prelude of a fresh startup interpreter: one ``import idealtda,
    idealtda.cli`` from ``src`` before any module of ``COLD_MODULES`` is
    loaded, between two runs of ``calibration_time``.  That function is
    executed from the source of ``perfbench/run.py``, whose own imports
    would load those modules.  It leaves ``first = (elapsed, before, after,
    preloaded)``, ``preloaded`` the ``COLD_MODULES`` loaded before the import."""
    return (
        "import sys\n"
        "from time import perf_counter\n"
        f"sys.path[:0] = [{str(src)!r}]\n"
        f"text = open({str(RUN)!r}, encoding='utf-8').read()\n"
        "start = text.index('def calibration_time(')\n"
        "namespace = {'perf_counter': perf_counter}\n"
        "exec(text[start:text.index('\\n\\n\\n', start)], namespace)\n"
        f"preloaded = sorted(set({COLD_MODULES!r}) & sys.modules.keys())\n"
        "before = namespace['calibration_time']()\n"
        "start = perf_counter()\n"
        "import idealtda, idealtda.cli\n"
        "elapsed = perf_counter() - start\n"
        "first = (elapsed, before, namespace['calibration_time'](), preloaded)\n"
    )


def startup_run(first: tuple | None = None) -> dict:
    """``IMPORTS`` imports ``import idealtda, idealtda.cli`` in this
    interpreter, each from scratch, in reference-core seconds, and the
    idealtda modules an import loads, which must agree over the imports.
    With ``first``, as :func:`_first_import_code` leaves it, the record adds
    that first import as ``first_seconds``."""
    run = _perfbench()
    out = {}
    if first is not None:
        elapsed, before, after, preloaded = first
        if preloaded:
            raise RuntimeError(f"{preloaded} were loaded before the first import")
        out["first_seconds"] = run.to_reference(elapsed, before, after)
    elif _loaded_modules():
        raise RuntimeError("idealtda is already imported")
    seconds = []
    modules = None
    for _ in range(IMPORTS):
        for name in _loaded_modules():
            del sys.modules[name]
        before = run.calibration_time()
        start = perf_counter()
        importlib.import_module("idealtda")
        importlib.import_module("idealtda.cli")
        elapsed = perf_counter() - start
        seconds.append(run.to_reference(elapsed, before, run.calibration_time()))
        loaded = _loaded_modules()
        if modules not in (None, loaded):
            raise RuntimeError(f"an import loaded {loaded}, another {modules}")
        modules = loaded
    return {**out, "seconds": seconds, "modules": modules}


def fresh_startup() -> dict:
    """``RUNS`` runs of :func:`startup_run`, each in a fresh interpreter
    that compiles idealtda from source, aggregated over all imports."""
    with tempfile.TemporaryDirectory() as work:
        src = Path(work) / "src"
        shutil.copytree(SRC / "idealtda", src / "idealtda", ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        rows = _fresh_runs("startup_run(first)", ("modules",), src, env, _first_import_code(src))
    times = [t for row in rows for t in row["seconds"]]
    seconds, spread = _median_and_spread(times)
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {
        "runs": RUNS,
        "imports": len(times),
        "seconds": seconds,
        "seconds_quartiles": [q1, q3],
        "seconds_spread": spread,
        "first_seconds": statistics.median(row["first_seconds"] for row in rows),
        "modules": rows[0]["modules"],
    }


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
        "labelled_ladder": [],
        "startup": fresh_startup(),
        "workloads": {},
    }
    print(f"startup: {record['startup']['seconds']}, first {record['startup']['first_seconds']}", file=sys.stderr)
    for n, max_dim, tie_prob in LADDER:
        record["ladder"].append(fresh_ladder_row(n, max_dim, tie_prob))
        print(f"ladder n={n} max_dim={max_dim} tie_prob={tie_prob}: {record['ladder'][-1]['seconds']}", file=sys.stderr)
    for kind, vertices in LABELLED_LADDER:
        record["labelled_ladder"].append(fresh_labelled_row(kind, vertices))
        print(f"labelled {kind} {vertices}: {record['labelled_ladder'][-1]['seconds']}", file=sys.stderr)
    for name in WORKLOADS:
        record["workloads"][name] = _workload(name)
        print(f"{name}: {record['workloads'][name]['end_to_end']}", file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
