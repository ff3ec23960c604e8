"""Self-check of the benchmark harness at tiny sizes.

Run with ``python3 perfbench/run.py --selfcheck``.  It runs every
workload traced at tiny sizes, then shows that each output check rejects
a tampered output, that the trace guard reports a layer with no calls and
a binding that no longer exists, that span summaries count nesting right,
and that ``BENCHMARK.json`` names exactly the metrics the harness prints.
"""

from __future__ import annotations

import json
import types

import run as bench
import tracing


def _tampered(files: dict[str, bytes], name: str, edit) -> dict[str, bytes]:
    data = json.loads(files[name])
    edit(data)
    return dict(files, **{name: json.dumps(data).encode()})


def _drop_last(kind):
    def edit(payload):
        for group in payload["barcodes"]:
            if group["kind"] == kind:
                group["intervals"].pop()

    return edit


def _shift_edge_birth(payload):
    edge = next(g for g in payload["barcodes"] if g["kind"] == "EDGE")
    edge["intervals"][-1]["birth"] = edge["intervals"][0]["birth"]


def _set(path, value):
    def edit(data):
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value

    return edit


TAMPERS = {
    "rips_trunc": [
        ("barcodes.json", _drop_last("SR")),
        ("barcodes.json", _shift_edge_birth),
        ("barcodes.json", _drop_last("PH")),
    ],
    "rips_full": [("report.json", _set(("coverage", "ok"), False))],
    "labelled": [
        ("report.json", _set(("chain_condition",), False)),
        ("report.json", _set(("ranks", "equal"), False)),
    ],
    "verify": [("report.json", lambda d: d["suites"][0].update(failures=1))],
}


def check_benchmark_json(failures: list[str]) -> None:
    path = bench.HERE.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the harness")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != bench.END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {e2e} != {bench.END_TO_END}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers != bench.per_layer_units():
        diff = set(layers.items()) ^ set(bench.per_layer_units().items())
        failures.append(f"BENCHMARK.json per_layer differs from the harness: {sorted(diff)}")


def check_summary(failures: list[str]) -> None:
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["a", 2.0, 4.0, 1, 0],
        ["b", 6.0, 9.0, 0, 0],
    ]
    got = tracing.summarise(spans)
    want = {
        "op": {"calls": 1, "inclusive_s": 10.0, "self_s": 3.0},
        "a": {"calls": 2, "inclusive_s": 4.0, "self_s": 4.0},
        "b": {"calls": 1, "inclusive_s": 3.0, "self_s": 3.0},
    }
    if got != want:
        failures.append(f"span summary {got} != {want}")


def check_missing_binding(failures: list[str]) -> None:
    package = types.SimpleNamespace(**{mod: types.SimpleNamespace() for mod, _, _ in tracing.BINDINGS})
    try:
        tracing.Tracer().install(package)
    except LookupError:
        return
    failures.append("a missing binding was not reported")


def main() -> int:
    failures: list[str] = []
    check_benchmark_json(failures)
    check_summary(failures)
    check_missing_binding(failures)
    runs = {}
    for workload in bench.WORKLOADS:
        run = bench.execute(workload, 3, 0.0, True, tiny=True)
        runs[workload] = run
        if run.failed or run.errors:
            failures.append(f"{workload}: {run.errors[:3]}")
            continue
        metrics = run.per_layer()
        if set(metrics) != set(bench.per_layer_units()):
            failures.append(f"{workload}: per-layer metrics incomplete")
        for name, edit in TAMPERS[workload]:
            op = next(op for op in run.ops if name in run.outputs.get(op.name, {}))
            if not op.check(_tampered(run.outputs[op.name], name, edit)):
                failures.append(f"{workload}: tampered {name} of {op.name} passed its check")
    if "labelled" in runs and not tracing.missing_layers("rips_trunc", runs["labelled"].summary):
        failures.append("layers with no calls were not reported")
    for failure in failures:
        print(f"FAIL  {failure}")
    print(f"selfcheck: {'PASS' if not failures else 'FAIL'}")
    return 1 if failures else 0
