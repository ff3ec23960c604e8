"""Command-line pipelines: barcodes, labelled-complex analysis, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All outputs are deterministic for a fixed input and seed.

Each command compiles only the modules it runs.  ``verify`` imports the
randomized suites and their oracles, :mod:`idealtda.verify`, inside
``cmd_verify``.  The labelled framework (:mod:`idealtda.labelled`, and
through it the ideal algebra of :mod:`idealtda.monomials`) is bound by
``_bind_labelled``: it imports :mod:`idealtda.labelled` and binds each
name of ``_LABELLED_NAMES`` into this module's globals.  ``cmd_labelled``
calls it first, and the module's PEP 562 ``__getattr__`` calls it when one
of those names is read as a ``cli`` attribute before that.  It never
replaces a name that is already bound, so a caller that rebinds one as a
``cli`` attribute (a tracer's wrapper, a test's stand-in, a stage timer)
keeps its binding through the command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .complexes import Filtration, vr_filtration
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
    _RATIONAL,
    InputError,
    complex_from_dict,
    dumps_json,
    labelled_from_dict,
    load_distance_csv,
    parse_points_json,
    points_to_distances,
)

# unused here (dumps_json reads the bars and draws the SVG); perfbench/tracing.py binds these names
from .serialize import barcodes_svg, ph_barcode_to_dict, prime_barcode_to_dict

__all__ = ["main", "build_parser"]

# Largest --max-n of the verify command.  The clique complex of a graph on
# at most 16 vertices has at most 2^16 - 1 faces, within MAX_FACES, and the
# slowest suite, the transversal route of suite_vertex_cover_oracles, is
# exponential in n: at the default 20 trials it took 0.08 s at max-n 16,
# 0.7 s at 18 and 5 s at 20 (CPython 3.11, 2-vCPU VM).
MAX_VERIFY_N = 16

# the names of idealtda.labelled that cmd_labelled reads, bound on first use
_LABELLED_NAMES = (
    "EvaluationPoint",
    "_slice_degree",
    "_vanishing_vertices",
    "boundary_matrices",
    "chain_condition_check",
    "diag_relation_check",
    "evaluate_chain",
    "fraction_field_ranks",
    "graded_slice",
    "local_subcomplex",
    "slice_iso_check",
)


def _bind_labelled() -> None:
    """Import :mod:`idealtda.labelled` and bind each name of
    ``_LABELLED_NAMES`` that is not bound yet into this module."""
    from . import labelled

    namespace = globals()
    for name in _LABELLED_NAMES:
        namespace.setdefault(name, getattr(labelled, name))


def __getattr__(name: str):
    if name in _LABELLED_NAMES:
        _bind_labelled()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    b.add_argument(
        "--max-dim",
        type=int,
        default=None,
        help="dist-csv and points-json: truncate Vietoris-Rips faces above this dimension; "
        "complex-json: bound only the PH bar dimensions (SR and EDGE read the whole complex)",
    )
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
    v.add_argument("--max-n", type=int, default=8, help=f"largest graph of the clique-complement and vertex-cover "
                   f"suites, at most {MAX_VERIFY_N}; the other seven suites stop at min(max-n, 7) vertices")
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


def _barcodes_payload(args) -> tuple[dict, dict]:
    """The ``barcodes.json`` payload, with the SR, EDGE and PH barcodes
    under ``"barcodes"``, and the report; the filtration is gone when it
    returns, and the writers read the bars themselves."""
    if args.max_dim is not None and args.max_dim < 0:
        raise InputError(f"--max-dim must be nonnegative, got {args.max_dim}")
    field = parse_field(args.field)
    dist = None
    if args.format == "dist-csv":
        dist = load_distance_csv(args.input)
        filtration = vr_filtration(dist, args.max_dim)
    elif args.format == "points-json":
        dist = points_to_distances(parse_points_json(_load_json(args.input), args.input), args.input)
        filtration = vr_filtration(dist, args.max_dim)
    else:
        K = complex_from_dict(_load_json(args.input), args.input)
        filtration = Filtration.single(K)
    sr = prime_barcode(filtration, "SR")
    edge = prime_barcode(filtration, "EDGE")
    ph_field = field if field is not QQ else parse_field("f2")
    ph = ph_barcode(filtration, ph_field, args.max_dim)
    payload = {
        "meta": {
            "input": args.input,
            "format": args.format,
            "max_dim": args.max_dim,
            "field": ph_field.name,
            "seed": args.seed,
        },
        "barcodes": [sr, edge, ph],
    }
    report = {"params": list(filtration.params)}
    if dist is not None:
        cov = coverage_report(dist, sr)
        report["coverage"] = {
            "pairs_checked": cov.pairs_checked,
            "violations": [list(v) for v in cov.violations],
            "ok": cov.ok,
        }
    return payload, report


def cmd_barcodes(args) -> int:
    payload, report = _barcodes_payload(args)
    out = _outdir(args.out)
    with open(out / "barcodes.json", "w", encoding="utf-8") as fh, (
        open(out / "barcodes.svg", "w", encoding="utf-8") if args.svg else contextlib.nullcontext()
    ) as sh:
        dumps_json(payload, fh, svg=sh)  # one walk over the bars, a chunk at a time, writes both files
    (out / "report.json").write_text(dumps_json(report), encoding="utf-8")
    return 0


def _parse_alpha(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise InputError(f"bad --alpha {text!r}: expected comma-separated integers") from None


def _parse_point(text: str) -> EvaluationPoint:
    coords = {}
    for piece in text.split(","):
        name, eq, value = (part.strip() for part in piece.partition("="))
        if not eq or not name:
            raise InputError(f"bad --point entry {piece!r}: expected name=value")
        if name in coords:
            raise InputError(f"bad --point entry {piece!r}: {name} is given twice")
        # an integer or p/q: Fraction would also read decimal exponents such
        # as 1e1000000, whose digits no bound limits
        try:
            if not _RATIONAL.fullmatch(value):
                raise ValueError
            coords[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad --point value {value!r}: expected an integer or p/q") from None
    return EvaluationPoint.of(coords)


def cmd_labelled(args) -> int:
    _bind_labelled()
    field = parse_field(args.field)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None else None
    point = _parse_point(args.point) if args.point is not None else None
    LC = labelled_from_dict(_load_json(args.input), reduced=alpha is not None, origin=args.input)
    # a bad --alpha or --point fails here, before any rank work
    if alpha is not None:
        try:
            _slice_degree(LC, alpha)
        except ValueError as exc:
            raise InputError(f"bad --alpha {args.alpha!r}: {exc}") from None
    if point is not None:
        variables = LC.table.variables
        unknown = [name for name, _ in point.coords if name not in variables]
        if unknown:
            raise InputError(f"--point names unknown variables: {', '.join(unknown)}")
        values = point.atom_values(LC.table)
        # the labels that evaluation takes into the field: the complex's
        # vertices, then, if one vanishes, the window's scan of 1..n
        try:
            vanishing = _vanishing_vertices(LC, sorted(LC.complex.vertices()), values, field)
            if vanishing:
                _vanishing_vertices(LC, range(1, LC.complex.n + 1), values, field)
        except ValueError as exc:
            raise InputError(f"bad --point {args.point!r}: {exc}") from None
    names = LC.table.atoms
    bm = boundary_matrices(LC)
    ff = fraction_field_ranks(LC)
    cl = classical_boundary_ranks(LC.complex, QQ, reduced=LC.reduced)
    diag = diag_relation_check(LC)
    ncells = {k: LC.ncells(k) for k in LC.dims()}
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
        "diag_relation": diag,
        "ranks": {
            "fraction_field": {str(k): r for k, r in sorted(ff.items())},
            "classical": {str(k): r for k, r in sorted(cl.items())},
            "equal": ff == cl,
        },
    }
    if point is not None and not vanishing:
        want = betti_from_ranks(ncells, cl) if field is QQ else classical_betti(LC.complex, field, reduced=LC.reduced)
        # over QQ a label that does not vanish has no vanishing atom, so L(p) is
        # invertible and L(p)_{k-1}^{-1} d_k L(p)_k has the rank of d_k, held in cl
        got = want if diag and field is QQ else evaluate_chain(LC, point, field).betti()
        report["evaluation"] = {
            "admissible": True,
            "betti": {str(k): v for k, v in sorted(got.items())},
            "classical_betti": {str(k): v for k, v in sorted(want.items())},
            "equal": got == want,
        }
    elif point is not None:
        W, restricted = local_subcomplex(LC, point=point, field=field)
        got = evaluate_chain(restricted, point, field).betti()
        want = classical_betti(restricted.complex, field, reduced=LC.reduced)
        report["evaluation"] = {
            "admissible": False,
            "vanishing": [[v, str(LC.vertex_labels[v - 1])] for v in vanishing],
            "window": list(W),
            "window_betti": {str(k): v for k, v in sorted(got.items())},
            "window_classical_betti": {str(k): v for k, v in sorted(want.items())},
            "window_equal": got == want,
        }
    if alpha is not None:
        sl = graded_slice(LC, alpha)
        iso = slice_iso_check(sl)
        sub = sl.subcomplex  # when it is the whole complex, its ranks are cl
        want = betti_from_ranks(ncells, cl) if sub == LC.complex else classical_betti(sub, QQ, reduced=True)
        # iso: the slice is the reduced chain complex of its subcomplex, on the nose
        got = {k: want.get(k, 0) for k in sl.ncells} if iso else sl.betti()
        want = {k: want.get(k, 0) for k in got}
        report["slice"] = {
            "alpha": list(alpha),
            "window": [list(f) for f in sl.subcomplex.faces()],
            "bases": {
                str(k): [[list(face), str(cof)] for face, cof in basis]
                for k, basis in sl.bases.items()
            },
            "matrices": {
                str(k): [[str(e) for e in row] for row in mat] for k, mat in sl.matrices.items()
            },
            "iso": iso,
            "betti": {str(k): v for k, v in sorted(got.items())},
            "subcomplex_betti": {str(k): v for k, v in sorted(want.items())},
        }
    out = _outdir(args.out)
    (out / "report.json").write_text(dumps_json(report), encoding="utf-8")
    return 0


def cmd_verify(args) -> int:
    for option, value in (("--trials", args.trials), ("--max-n", args.max_n)):
        if value < 1:
            raise InputError(f"{option} must be at least 1, got {value}")
    if args.max_n > MAX_VERIFY_N:
        raise InputError(f"--max-n must be at most {MAX_VERIFY_N}, got {args.max_n}")
    from .verify import run_all  # the oracles load only for this command

    results = run_all(seed=args.seed, trials=args.trials, nmax=args.max_n)
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


# one parser per process: building it costs more than parsing one command line
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
