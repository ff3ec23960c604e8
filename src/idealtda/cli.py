"""Command-line pipelines: barcodes, labelled-complex analysis, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All outputs are deterministic for a fixed input and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .complexes import Filtration, vr_filtration
from .labelled import (
    InadmissiblePointError,
    EvaluationPoint,
    boundary_matrices,
    chain_condition_check,
    diag_relation_check,
    evaluate_chain,
    fraction_field_ranks,
    graded_slice,
    local_subcomplex,
    slice_iso_check,
)
from .linalg import QQ, parse_field
from .persistence import (
    betti_from_ranks,
    classical_betti,
    classical_boundary_ranks,
    coverage_report,
    ph_barcode,
    prime_barcode,
)
from .serialize import (
    InputError,
    barcodes_svg,
    complex_from_dict,
    dumps_json,
    labelled_from_dict,
    load_distance_csv,
    parse_points_json,
    ph_barcode_to_dict,
    points_to_distances,
    prime_barcode_to_dict,
)
from .verify import run_all

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealtda",
        description=(
            "Persistence barcodes from associated primes of face and edge "
            "ideals, plus labelled chain complexes over factored rings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("barcodes", help="compute PH, face-ideal and edge-ideal barcodes")
    b.add_argument("--input", required=True, help="input file")
    b.add_argument(
        "--format",
        choices=["dist-csv", "points-json", "complex-json"],
        default="dist-csv",
    )
    b.add_argument("--max-dim", type=int, default=None, help="truncate faces above this dimension")
    b.add_argument("--field", default="f2", help="f2, fp:<p> or q (PH uses a prime field)")
    b.add_argument("--out", required=True, help="output directory")
    b.add_argument("--svg", action="store_true", help="also write barcodes.svg")
    b.add_argument("--seed", type=int, default=0, help="recorded in output metadata")

    l = sub.add_parser("labelled", help="analyze a labelled complex")
    l.add_argument("--input", required=True, help="labelled-complex JSON file")
    l.add_argument("--format", choices=["labelled-json"], default="labelled-json")
    l.add_argument("--field", default="q")
    l.add_argument("--alpha", default=None, help="graded degree, e.g. 0,1,1,1")
    l.add_argument("--point", default=None, help="evaluation point, e.g. x1=1,x2=-1/2")
    l.add_argument("--out", required=True, help="output directory")

    v = sub.add_parser("verify", help="run the randomized verification suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--max-n", type=int, default=8)
    v.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    v.add_argument("--out", default=None, help="optional directory for report.json")
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal beyond Python's digit limit
        raise InputError(f"{path}: {exc}") from None


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_barcodes(args) -> int:
    field = parse_field(args.field)
    dist = None
    if args.format == "dist-csv":
        dist = load_distance_csv(args.input)
        filtration = vr_filtration(dist, args.max_dim)
    elif args.format == "points-json":
        dist = points_to_distances(parse_points_json(_load_json(args.input), args.input))
        filtration = vr_filtration(dist, args.max_dim)
    else:
        K = complex_from_dict(_load_json(args.input), args.input)
        filtration = Filtration.single(K)
    sr = prime_barcode(filtration, "SR")
    edge = prime_barcode(filtration, "EDGE")
    ph_field = field if field is not QQ else parse_field("f2")
    ph = ph_barcode(filtration, ph_field, args.max_dim)
    groups = [
        prime_barcode_to_dict(sr),
        prime_barcode_to_dict(edge),
        ph_barcode_to_dict(ph),
    ]
    payload = {
        "meta": {
            "input": args.input,
            "format": args.format,
            "max_dim": args.max_dim,
            "field": ph_field.name,
            "seed": args.seed,
        },
        "barcodes": groups,
    }
    out = _outdir(args.out)
    (out / "barcodes.json").write_text(dumps_json(payload), encoding="utf-8")
    report = {"params": list(filtration.params)}
    if dist is not None:
        cov = coverage_report(dist, sr)
        report["coverage"] = {
            "pairs_checked": cov.pairs_checked,
            "violations": [list(v) for v in cov.violations],
            "ok": cov.ok,
        }
    (out / "report.json").write_text(dumps_json(report), encoding="utf-8")
    if args.svg:
        svg = barcodes_svg([(g["kind"], g["intervals"]) for g in groups])
        (out / "barcodes.svg").write_text(svg, encoding="utf-8")
    return 0


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InputError(f"bad --alpha {text!r}: expected comma-separated integers") from None


def _parse_point(text: str) -> EvaluationPoint:
    coords = {}
    for piece in text.split(","):
        name, eq, value = piece.partition("=")
        if not eq:
            raise InputError(f"bad --point entry {piece!r}: expected name=value")
        try:
            coords[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad --point value {value!r}") from None
    return EvaluationPoint.of(coords)


def cmd_labelled(args) -> int:
    field = parse_field(args.field)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None else None
    point = _parse_point(args.point) if args.point is not None else None
    LC = labelled_from_dict(_load_json(args.input), reduced=alpha is not None, origin=args.input)
    if point is not None:
        point.atom_values(LC.table)  # a missing coordinate fails before any rank work
    names = LC.table.atoms
    bm = boundary_matrices(LC)
    ff = fraction_field_ranks(LC)
    cl = classical_boundary_ranks(LC.complex, QQ, reduced=LC.reduced)
    report: dict = {
        "atoms": list(names),
        "reduced": LC.reduced,
        "labels": [str(m) for m in LC.vertex_labels],
        "boundary_matrices": {
            str(cm.k): {
                "rows": [list(f) for f in cm.rows],
                "cols": [list(f) for f in cm.cols],
                "entries": cm.render(names),
            }
            for cm in bm.matrices
        },
        "chain_condition": chain_condition_check(LC),
        "diag_relation": diag_relation_check(LC),
        "ranks": {
            "fraction_field": {str(k): r for k, r in sorted(ff.items())},
            "classical": {str(k): r for k, r in sorted(cl.items())},
            "equal": ff == cl,
        },
    }
    if point is not None:
        try:
            ev = evaluate_chain(LC, point, field)
            got = ev.betti()
            if field is QQ:  # the classical QQ ranks are already in the report
                want = betti_from_ranks(ev.ncells, cl)
            else:
                want = classical_betti(LC.complex, field, reduced=LC.reduced)
            report["evaluation"] = {
                "admissible": True,
                "betti": {str(k): v for k, v in sorted(got.items())},
                "classical_betti": {str(k): v for k, v in sorted(want.items())},
                "equal": got == want,
            }
        except InadmissiblePointError as exc:
            W, restricted = local_subcomplex(LC, point=point, field=field)
            got = evaluate_chain(restricted, point, field).betti()
            want = classical_betti(restricted.complex, field, reduced=LC.reduced)
            report["evaluation"] = {
                "admissible": False,
                "vanishing": [[v, label] for v, label in exc.vanishing],
                "window": list(W),
                "window_betti": {str(k): v for k, v in sorted(got.items())},
                "window_classical_betti": {str(k): v for k, v in sorted(want.items())},
                "window_equal": got == want,
            }
    if alpha is not None:
        sl = graded_slice(LC, alpha)
        got = sl.betti()
        want = classical_betti(sl.subcomplex, QQ, reduced=True)
        want = {k: want.get(k, 0) for k in got}
        report["slice"] = {
            "alpha": list(alpha),
            "window": [list(f) for f in sl.subcomplex.faces()],
            "bases": {
                str(k): [[list(face), str(cof)] for face, cof in basis]
                for k, basis in sl.bases
            },
            "matrices": {
                str(k): [[str(e) for e in row] for row in mat] for k, mat in sl.matrices
            },
            "iso": slice_iso_check(sl),
            "betti": {str(k): v for k, v in sorted(got.items())},
            "subcomplex_betti": {str(k): v for k, v in sorted(want.items())},
        }
    out = _outdir(args.out)
    (out / "report.json").write_text(dumps_json(report), encoding="utf-8")
    return 0


def cmd_verify(args) -> int:
    results = run_all(
        seed=args.seed,
        trials=args.trials,
        nmax=args.max_n,
        inject_fault=args.inject_fault,
    )
    for res in results:
        print(res.line())
        for note in res.detail:
            print(f"       {note}")
    if args.out:
        out = _outdir(args.out)
        payload = {
            "seed": args.seed,
            "trials": args.trials,
            "max_n": args.max_n,
            "suites": [
                {
                    "name": r.name,
                    "trials": r.trials,
                    "failures": r.failures,
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        (out / "report.json").write_text(dumps_json(payload), encoding="utf-8")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "barcodes":
            return cmd_barcodes(args)
        if args.command == "labelled":
            return cmd_labelled(args)
        return cmd_verify(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
