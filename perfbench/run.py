"""idealtda benchmark: one closed-loop client driving the CLI in process.

    python3 perfbench/run.py --workload rips_trunc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

A run imports ``idealtda`` from ``src/`` next to this directory, writes
the workload's seeded inputs into a temporary directory under the current
directory, then calls ``idealtda.cli.main(argv)`` for one operation after
another, from this process and with no extra threads.  It repeats whole
passes over the operations until ``--seconds`` would be exceeded (at
least three passes), checks every operation's output, and prints one line
per metric followed by one JSON object as the last line of standard output.

End-to-end metrics (``--trace 0``):

* ``setup_s``: import of idealtda plus writing the inputs, median of nine;
* ``wall_s``: one pass over the operations, as the sum of every
  operation's median time over the passes;
* ``op_p50_s``: median time of one operation over all passes;
* ``peak_rss_mib``: peak resident memory of this process;
* ``ok_ratio``: operations that passed over operations attempted
  (1 - fail_ratio).  An operation fails on an exception, a non-zero
  exit or an output check that does not pass.

All times are in reference-core seconds.  On a 2-vCPU shared virtual
machine (Xeon, 2.0 GHz) the speed of one core was seen to swing by a
factor of 1.6, in stretches from a fraction of a second to tens of
seconds, which moved raw run medians of one fixed input by 15-45 %.  So
a fixed calibration loop is timed before and after every measurement,
and the measured wall time is scaled by ``REFERENCE_LOOP_S`` over the
mean of the two loop times: the time the work would take on a core that
runs the loop in ``REFERENCE_LOOP_S``.  On that fixed input this cut the
spread of 20-second run medians to 3-4 %.

With ``--trace 1`` the run also makes one traced pass over the same
operations and reports per-layer metrics instead (see ``tracing.py``):
layer times are the raw wall seconds of that pass, and
``trace.overhead_ratio`` compares its scaled time with ``wall_s``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("rips_trunc", "rips_full", "labelled", "verify")
SETUP_REPEATS = 9
MIN_PASSES = 3
# Seconds the calibration loop takes on the reference core (see calibration_time).
REFERENCE_LOOP_S = 0.0015

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}
COUNTS = (
    "complexes.faces",
    "complexes.steps",
    "persistence.sr_bars",
    "persistence.edge_bars",
    "persistence.ph_bars",
    "labelled.cells",
)
RATES = ("persistence.sr_us_per_bar", "persistence.edge_us_per_bar", "persistence.ph_us_per_simplex")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in tracing.LAYERS}
    units.update({name: "us" for name in RATES})
    units.update({name: "count" for name in COUNTS})
    units.update({"trace.overhead_ratio": "ratio", "trace.unattributed_share": "ratio"})
    return units


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def fresh_import():
    """Import idealtda from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "idealtda" or m.startswith("idealtda.")]:
        del sys.modules[name]
    package = importlib.import_module("idealtda")
    importlib.import_module("idealtda.cli")
    if Path(package.__file__).resolve().parent != SRC / "idealtda":
        raise ImportError(f"idealtda imported from {package.__file__}, not from {SRC}")
    return package


def calibration_time() -> float:
    """Fastest of five runs of a fixed loop that allocates, hashes and sorts
    small objects, the kind of work the library's set and dict code does."""
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        seen: dict[frozenset, int] = {}
        for i in range(2000):
            key = frozenset((i & 63, i >> 6 & 31, i % 7))
            seen[key] = seen.get(key, 0) + 1
        sorted(seen.values())
        best = min(best, perf_counter() - start)
    return best


def to_reference(elapsed: float, before: float, after: float) -> float:
    """Seconds on the reference core, from the calibration times around a measurement."""
    return elapsed * 2 * REFERENCE_LOOP_S / (before + after)


def run_op(cli, op, tracer=None) -> tuple[float, str | None, dict[str, bytes]]:
    """One operation: (seconds, error or None, normalised output files).

    With a tracer, the call to ``cli.main`` is the operation's root span."""
    if op.out.exists():
        shutil.rmtree(op.out)
    sink = io.StringIO()
    error = None
    with redirect_stdout(sink), redirect_stderr(sink):
        start = perf_counter()
        try:
            rc = cli.main(op.argv) if tracer is None else tracer.call(tracing.ROOT, cli.main, op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    if rc not in (0, None):
        error = f"exit {rc}: {sink.getvalue()[-400:]}"
    files = {}
    if op.out.is_dir():
        for path in sorted(op.out.iterdir()):
            files[path.name] = checks.normalise(path.name, path.read_bytes(), op.input)
    return elapsed, error, files


def digests_of(files: dict[str, bytes]) -> dict[str, str]:
    return {name: checks.sha256(data) for name, data in files.items()}


def load_digests(workload: str) -> dict | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path, tiny: bool, expected):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work, self.tiny = work, tiny
        # recorded output digests per operation; None compares nothing
        self.expected = expected
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, dict[str, str]] = {}
        self.outputs: dict[str, dict[str, bytes]] = {}

    def setup(self):
        times = []
        for _ in range(SETUP_REPEATS):
            inputs = self.work / "inputs"
            if inputs.exists():
                shutil.rmtree(inputs)
            before = calibration_time()
            start = perf_counter()
            self.package = fresh_import()
            self.ops = workloads.make_ops(self.workload, self.seed, inputs, self.tiny)
            elapsed = perf_counter() - start
            times.append(to_reference(elapsed, before, calibration_time()))
        self.setup_s = statistics.median(times)

    def _record(self, op, error: str | None, files: dict[str, bytes], phase: str):
        """Check one operation's output and count it."""
        self.attempted += 1
        errors = [error] if error else []
        digests = digests_of(files)
        if not errors and op.name not in self.first:
            errors += op.check(files)
            if self.expected is not None:
                want = self.expected.get(op.name)
                if want is None:
                    errors.append("no recorded digest for seed 0")
                elif want != digests:
                    errors.append(f"output digests differ from the recorded ones: {sorted(k for k in want if want[k] != digests.get(k))}")
            if not errors:
                self.first[op.name] = digests
                self.outputs[op.name] = files
        elif not errors and digests != self.first[op.name]:
            errors.append(f"{phase} output is not byte-identical to the first pass")
        if errors:
            self.failed += 1
            self.errors.extend(f"{op.name} ({phase}): {e}" for e in errors)

    def _pass(self, phase: str, tracer=None) -> list[float]:
        """One pass over the operations; each one's time in reference-core seconds."""
        gc.collect()
        times = []
        before = calibration_time()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            elapsed, error, files = run_op(self.package.cli, op, tracer)
            after = calibration_time()
            times.append(to_reference(elapsed, before, after))
            self._record(op, error, files, phase)
            before = calibration_time()
        return times

    def measure(self):
        start = perf_counter()
        passes = []
        while True:
            pass_start = perf_counter()
            passes.append(self._pass("untraced"))
            now = perf_counter()
            if len(passes) >= MIN_PASSES and now - start + (now - pass_start) > self.seconds:
                break
        self.passes = len(passes)
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.wall_s = sum(statistics.median(t) for t in zip(*passes))
        self.op_p50_s = statistics.median(t for times in passes for t in times)

    def traced_pass(self):
        tracer = tracing.Tracer()
        tracer.install(self.package)
        try:
            self.traced_wall_s = sum(self._pass("traced", tracer))
        finally:
            tracer.uninstall()
        self.spans = tracer.spans
        self.summary = tracing.summarise(tracer.spans)
        missing = tracing.missing_layers(self.workload, self.summary)
        if missing:
            self.errors.append("traced layers recorded no calls: " + ", ".join(missing))

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "wall_s": self.wall_s,
            "op_p50_s": self.op_p50_s,
            "peak_rss_mib": self.peak_rss_mib,
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        out = {f"{name}_s": self.summary.get(name, {}).get("inclusive_s", 0.0) for name in tracing.LAYERS}
        counts = dict.fromkeys(COUNTS, 0)
        for op in self.ops:
            files = self.outputs.get(op.name, {})
            if "barcodes.json" in files:
                groups = {g["kind"]: g["intervals"] for g in json.loads(files["barcodes.json"])["barcodes"]}
                counts["complexes.faces"] += op.size["faces"]
                counts["complexes.steps"] += len(json.loads(files["report.json"])["params"])
                counts["persistence.sr_bars"] += len(groups["SR"])
                counts["persistence.edge_bars"] += len(groups["EDGE"])
                counts["persistence.ph_bars"] += len(groups["PH"])
            elif op.argv[0] == "labelled":
                counts["labelled.cells"] += op.size["faces"]
        out.update(counts)

        def rate(seconds: float, count: int) -> float:
            return 1e6 * seconds / count if count else 0.0

        out["persistence.sr_us_per_bar"] = rate(out["persistence.prime_barcode_sr_s"], counts["persistence.sr_bars"])
        out["persistence.edge_us_per_bar"] = rate(out["persistence.prime_barcode_edge_s"], counts["persistence.edge_bars"])
        out["persistence.ph_us_per_simplex"] = rate(out["persistence.ph_barcode_s"], counts["complexes.faces"])
        root = self.summary[tracing.ROOT]
        out["trace.overhead_ratio"] = self.traced_wall_s / self.wall_s
        out["trace.unattributed_share"] = root["self_s"] / root["inclusive_s"]
        return out


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, record: bool = False) -> Run:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=Path.cwd()))
    compare = seed == 0 and not tiny and not record
    expected = (load_digests(workload) or {}) if compare else None
    try:
        run = Run(workload, seed, seconds, trace, work, tiny, expected)
        run.setup()
        run.measure()
        if trace:
            run.traced_pass()
        return run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(run: Run) -> dict:
    """Print the human-readable lines; return the result set."""
    env = environment()
    print(
        f"perfbench {run.workload} seed={run.seed} trace={int(run.trace)} passes={run.passes} "
        f"ops/pass={len(run.ops)} python={env['python']} nproc={env['nproc']} platform={env['platform']}"
    )
    for op in run.ops:
        print(f"  input {op.name}: " + " ".join(f"{k}={v}" for k, v in op.size.items()))
    e2e = run.end_to_end()
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END[name]}")
    print(f"  fail_ratio     {run.failed}/{run.attempted} operations failed")
    layers = {}
    if run.trace:
        units = per_layer_units()
        metrics = run.per_layer()
        print(f"  {'layer':<40} {'calls':>8} {'inclusive_s':>12} {'self_s':>10}  moves / on")
        for name, (moves, on) in tracing.LAYERS.items():
            row = run.summary.get(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            layers[name] = dict(row, moves=list(moves), on=list(on))
            print(
                f"  {name:<40} {row['calls']:>8} {row['inclusive_s']:>12.4f} {row['self_s']:>10.4f}  "
                f"{','.join(moves) or '-'} / {','.join(on)}"
            )
        for name in COUNTS + RATES + ("trace.overhead_ratio", "trace.unattributed_share"):
            print(f"  {name:<40} {metrics[name]:.6g} {units[name]}")
    else:
        units, metrics = END_TO_END, e2e
    for error in run.errors[:20]:
        print(f"  error: {error}", file=sys.stderr)
    correct = run.failed == 0 and not run.errors
    print(f"  check: {'PASS' if correct else 'FAIL'} ({run.attempted - run.failed}/{run.attempted} operations passed)")
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "env": dict(env, workload=run.workload, seed=run.seed, seconds=run.seconds, trace=int(run.trace)),
        "inputs": {op.name: op.size for op in run.ops},
        "end_to_end": e2e,
        "layers": layers,
        "errors": run.errors,
    }


def record_digests(workload: str) -> None:
    """Store the seed-0 output digests of one workload in digests.json."""
    run = execute(workload, 0, 0.0, False, record=True)
    missing = [op.name for op in run.ops if op.name not in run.first]
    if missing:
        raise RuntimeError(f"cannot record digests, failed operations: {missing}")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[workload] = run.first
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result set as JSON to this file")
    parser.add_argument("--spans", help="with --trace 1, write the raw spans as JSON to this file")
    parser.add_argument("--selfcheck", action="store_true", help="test the harness at tiny sizes")
    parser.add_argument("--record-digests", action="store_true", help="store seed-0 output digests")
    args = parser.parse_args(argv)
    if not (SRC / "idealtda" / "__init__.py").is_file():
        print(f"error: no idealtda sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.record_digests:
        record_digests(args.workload)
        return 0
    try:
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(run)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    if args.spans and run.trace:
        Path(args.spans).write_text(json.dumps(run.spans) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
