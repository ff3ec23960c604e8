"""File formats: distance CSV, complex and labelled JSON, barcode JSON, SVG.

All writers are deterministic: identical inputs produce byte-identical
output (keys sorted, canonical interval order, no timestamps).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Sequence

from .complexes import SimplicialComplex, mask_face
from .linalg import Polynomial
from .persistence import KIND_PH, Barcode

__all__ = [
    "InputError",
    "load_distance_csv",
    "parse_distance_csv",
    "points_to_distances",
    "parse_points_json",
    "complex_from_dict",
    "labelled_from_dict",
    "prime_barcode_to_dict",
    "ph_barcode_to_dict",
    "dumps_json",
    "barcodes_svg",
    "MAX_N",
    "MAX_EXPONENT",
    "MAX_LABELLED_FACES",
    "CHUNK",
]

# Largest vertex count a JSON input may declare.  Cost grows fast with n even
# for a tiny complex: `barcodes` on {"n": N, "faces": [[1, 2]]} took 0.36 s and
# 45 MiB at N=512 and 1.3 s and 113 MiB at N=900 (CPython 3.11, 2-vCPU VM).
MAX_N = 512

# Largest exponent in a label or an atom expansion term.
# Expanding composite atoms costs a power of the exponent: `labelled --point`
# on one edge labelled (x1+x2)^E took 0.26 s at E=200 and 1.4 s at E=500, and
# on a triangle with three composite atoms, expansion and label exponents all
# E, 1.0 s / 46 MiB at E=32, 4.2 s / 127 MiB at E=50 and 39 s / 909 MiB at
# E=100 (CPython 3.11, 2-vCPU VM).
MAX_EXPONENT = 32

# Largest face count of a labelled complex.  Its ranks (fraction-field,
# classical and evaluated) all run one dense kernel, lazy fraction-free
# Bareiss, whose cost grows steeply with the faces: `labelled --point` on one
# full simplex with two composite atoms (the composite rows of
# scripts/bench.py) took 0.022 s at 127 faces, 0.048 s at 255, 0.15 s / 26 MiB
# at 511 and 0.45 s / 35 MiB at 1023 (reference-core seconds, median of three
# fresh runs; CPython 3.11, 2-vCPU VM).
MAX_LABELLED_FACES = 512

# Bars the barcode walk formats at a time: given open files, dumps_json
# builds no text of more than one chunk of bars.
CHUNK = 256


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class InputError(ValueError):
    """Malformed user input; carries a position-aware diagnostic."""


def parse_distance_csv(text: str, origin: str = "<input>") -> list[list[float]]:
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for colno, cell in enumerate(line.split(","), start=1):
            try:
                value = float(cell.strip())
            except ValueError:
                raise InputError(
                    f"{origin}:{lineno}:{colno}: not a number: {cell.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"{origin}:{lineno}:{colno}: not a finite number: {cell.strip()!r}"
                )
            if value / 2 * 2 != value:  # a subnormal with an odd significand: the edge parameter would round
                raise InputError(f"{origin}:{lineno}:{colno}: {cell.strip()!r} has no exact half as a float")
            row.append(value)
        rows.append(row)
    if not rows:
        raise InputError(f"{origin}: empty distance matrix")
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise InputError(f"{origin}:{lineno}: expected {n} columns, found {len(row)}")
    return rows


def load_distance_csv(path) -> list[list[float]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    return parse_distance_csv(text, origin=str(path))


def points_to_distances(points: Sequence[Sequence[float]], origin: str = "<input>") -> list[list[float]]:
    """Euclidean distance matrix of a coordinate list; finite coordinates
    can still be too far apart for a float, or at a subnormal distance with
    no exact half, and ``origin`` names them."""
    n = len(points)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(points[i], points[j])
            if d == math.inf:
                raise InputError(f"{origin}: points {i + 1} and {j + 1} are too far apart for a float distance")
            if d / 2 * 2 != d:
                raise InputError(f"{origin}: points {i + 1} and {j + 1} are {d!r} apart, which has no exact half as a float")
            out[i][j] = out[j][i] = d
    return out


def parse_points_json(data, origin: str = "<input>") -> list[list[float]]:
    if not isinstance(data, dict) or "points" not in data:
        raise InputError(f"{origin}: expected an object with a 'points' key")
    points = data["points"]
    if not isinstance(points, list) or not points:
        raise InputError(f"{origin}: 'points' must be a nonempty list")
    dim = None
    out = []
    for i, p in enumerate(points, start=1):
        if not isinstance(p, list) or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in p
        ):
            raise InputError(f"{origin}: point {i} is not a list of numbers")
        if dim is None:
            dim = len(p)
        elif len(p) != dim:
            raise InputError(f"{origin}: point {i} has {len(p)} coordinates, expected {dim}")
        coords = []
        for k, c in enumerate(p, start=1):
            try:
                x = float(c)
            except OverflowError:
                x = math.inf
            if not math.isfinite(x):
                raise InputError(f"{origin}: point {i} coordinate {k} is not finite: {c!r}")
            coords.append(x)
        out.append(coords)
    return out


def _json_int(value, where: str, most: int | None = None) -> int:
    """An integer read from JSON, at most ``most`` if given; booleans,
    floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} is not an integer: {json.dumps(value)}")
    if most is not None and value > most:
        raise ValueError(f"{where} exceeds the supported maximum of {most}")
    return value


def _json_ints(raw, template: str, *where, most: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers as a tuple, each read by :func:`_json_int` and
    named ``template.format(*where, k)`` at its position k from 1.  A list of
    exact ints, at most ``most`` if given, passes by C-level builtins: a name
    is built only to name a refused value."""
    t = tuple(raw)
    if {int}.issuperset(map(type, t)) and (most is None or max(t, default=0) <= most):
        return t
    return tuple(_json_int(v, template.format(*where, k), most) for k, v in enumerate(t, start=1))


def _json_faces(raw) -> list[tuple[int, ...]]:
    return [_json_ints(face, "face {} vertex {}", i) for i, face in enumerate(raw, start=1)]


def complex_from_dict(data, origin: str = "<input>") -> SimplicialComplex:
    try:
        n = _json_int(data["n"], "'n'", MAX_N)
        faces = _json_faces(data["faces"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{origin}: malformed complex JSON ({exc})") from None
    try:
        return SimplicialComplex.from_faces(n, faces, close=True)
    except ValueError as exc:
        raise InputError(f"{origin}: {exc}") from None


def _json_atoms(raw, origin: str) -> tuple[str, ...]:
    """The ``atoms`` list of a JSON input; every entry must be a string."""
    if not isinstance(raw, list):
        raise InputError(f"{origin}: 'atoms' must be a list, found {json.dumps(raw)}")
    for k, atom in enumerate(raw, start=1):
        if not isinstance(atom, str):
            raise InputError(f"{origin}: 'atoms' entry {k} is not a string: {json.dumps(atom)}")
    return tuple(raw)


def _expansion_from_json(raw, nvars: int, origin: str) -> Polynomial:
    if not isinstance(raw, list):
        raise InputError(f"{origin}: expansion must be a list of terms, found {json.dumps(raw)}")
    terms = {}
    for t, item in enumerate(raw, start=1):
        try:
            coeff, exps = item
            exps = _json_ints(exps, "term {} exponent {}", t, most=MAX_EXPONENT)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{origin}: malformed atom expansion term ({exc})") from None
        # ints and "p/q" strings only: a JSON float is binary, so 0.1 would
        # stand for 3602879701896397/2^55
        try:
            if not (type(coeff) is int or isinstance(coeff, str) and _RATIONAL.fullmatch(coeff)):
                raise ValueError
            coeff = Fraction(coeff)
        except (ValueError, ZeroDivisionError):
            raise InputError(
                f"{origin}: expansion term {t} coefficient is not a rational number: {json.dumps(coeff)}"
            ) from None
        if len(exps) != nvars:
            raise InputError(f"{origin}: expansion term arity {len(exps)} != {nvars}")
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(nvars, terms)


def labelled_from_dict(data, reduced: bool = False, origin: str = "<input>") -> LabelledComplex:
    """Labelled complex JSON: n, faces, atoms, labels, optional atom_polys.

    The labelled framework loads here, on the first call, so that the
    barcode pipeline, which reads only distances and complexes, never
    compiles it."""
    from .labelled import make_labelled
    from .monomials import AtomTable, FactoredElement

    try:
        n = _json_int(data["n"], "'n'", MAX_N)
        faces = _json_faces(data["faces"])
        atoms_raw = data["atoms"]
        labels_raw = data["labels"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{origin}: malformed labelled-complex JSON ({exc})") from None
    atoms = _json_atoms(atoms_raw, origin)
    if not isinstance(labels_raw, list):
        raise InputError(f"{origin}: 'labels' must be a list, found {json.dumps(labels_raw)}")
    atom_polys = data.get("atom_polys", {})
    if not isinstance(atom_polys, dict):
        raise InputError(f"{origin}: 'atom_polys' must be an object, found {json.dumps(atom_polys)}")
    nvars = len([a for a in atoms if a not in atom_polys])
    expansions = tuple(
        sorted(
            (name, _expansion_from_json(raw, nvars, f"{origin}: atom {name}"))
            for name, raw in atom_polys.items()
        )
    )
    try:
        table = AtomTable(atoms, expansions)
    except ValueError as exc:
        raise InputError(f"{origin}: {exc}") from None
    if len(labels_raw) != n:
        raise InputError(f"{origin}: expected {n} labels, found {len(labels_raw)}")
    labels = []
    for i, exps in enumerate(labels_raw, start=1):
        try:
            labels.append(FactoredElement(table, _json_ints(exps, "exponent {}", most=MAX_EXPONENT)))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{origin}: bad label for vertex {i} ({exc})") from None
    try:
        K = SimplicialComplex.from_faces(n, faces, close=True)
        LC = make_labelled(K, labels, reduced=reduced)
    except ValueError as exc:
        raise InputError(f"{origin}: {exc}") from None
    if len(K.face_masks) > MAX_LABELLED_FACES:
        raise InputError(
            f"{origin}: the labelled complex has {len(K.face_masks)} faces, "
            f"more than the supported maximum {MAX_LABELLED_FACES}"
        )
    return LC


def _death_json(death: float | None):
    return "inf" if death is None else death


def prime_barcode_to_dict(barcode: Barcode) -> dict:
    intervals = [
        {"prime": list(mask_face(m)), "dim": None, "birth": b, "death": _death_json(d)}
        for m, b, d in barcode.bars
    ]
    return {"kind": barcode.kind, "intervals": intervals}


def ph_barcode_to_dict(barcode: Barcode) -> dict:
    intervals = [
        {"prime": None, "dim": dim, "birth": b, "death": _death_json(d)} for dim, b, d in barcode.bars
    ]
    return {"kind": barcode.kind, "intervals": intervals}


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_float(x: float) -> str:
    if x != x or x in (math.inf, -math.inf):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True or key is False or key is None:
        return _JSON_CONSTANTS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_bars(barcodes: Sequence[Barcode], sides) -> None:
    """Write ``barcodes`` to every side in one walk over their bars,
    ``CHUNK`` bars at a time.

    A side is ``(write, head, group, tail)``: ``head`` and ``tail`` open and
    close its file, and ``group`` maps each barcode, in order, to the text
    before its bars, the formatter of a chunk of them and the text after
    them.  A formatter takes the chunk and, bar for bar, the vertices of its
    prime as strings (None for a PH bar).  These are found once for all
    sides, each side joining them as its file writes them: the list of each
    byte value at each byte position of a mask is built once per call, by
    ``mask_face``, and a mask's list joins the lists of its bytes.
    """
    tables: list[list] = []  # byte position -> byte value -> its vertices, or None

    def names(mask: int) -> list[str]:
        if mask < 0:
            raise ValueError(f"mask {mask} is negative")
        data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        while len(tables) < len(data):
            tables.append([None] * 256)
        out: list[str] = []
        pos = 0
        for byte in data:
            s = tables[pos][byte]
            if s is None:
                s = tables[pos][byte] = list(map(str, mask_face(byte << 8 * pos)))
            out += s
            pos += 1
        return out

    for write, head, _, _ in sides:
        write(head)
    for barcode in barcodes:
        texts = [(write, *group(barcode)) for write, _, group, _ in sides]
        for write, head, _, _ in texts:
            write(head)
        bars = barcode.bars
        prime = barcode.kind != KIND_PH
        for start in range(0, len(bars), CHUNK):
            chunk = bars[start : start + CHUNK]
            vertices = [names(bar[0]) for bar in chunk] if prime else [None] * len(chunk)
            for write, _, formatter, _ in texts:
                write(formatter(chunk, vertices))
        for write, _, _, tail in texts:
            write(tail)
    for write, _, _, tail in sides:
        write(tail)


def dumps_json(obj, file=None, svg=None) -> str | None:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Byte for byte ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, with the same exceptions, built directly:
    with an indent the standard library runs its pure-Python encoder.
    Values dispatch on their exact type first, and a list of exact ints or
    exact strings is written in one join; each distinct nonzero float
    and each string key is formatted once per call (zeros every time, as
    0.0 == -0.0 would merge their texts).

    A :class:`~idealtda.persistence.Barcode`, anywhere in ``obj``, is
    written straight from its bars as the text of its interval dict,
    :func:`ph_barcode_to_dict` for kind PH and :func:`prime_barcode_to_dict`
    for any other kind, which stay the oracle of this writer.  The rest of
    ``obj`` is written first, with a NUL where each barcode goes (a NUL in
    a string is written ``\\u0000``, so no other one occurs), and each
    barcode is then written at its NUL, ``CHUNK`` bars at a time.

    Given an open text ``file``, the pieces go to it one at a time and None
    is returned; without one they are joined and returned, and that text
    is the oracle of the written one.  Given an open text ``svg`` file too,
    the same walk over the bars draws the barcodes of ``obj``, in the order
    of its text, to that file as :func:`barcodes_svg` draws them, whose
    text is the oracle of that file: the vertices of each prime are found
    once for both files.
    """
    floats: dict[float, str] = {}
    keys: dict[str, str] = {}  # key -> its quoted text and ": "
    barcodes: list[Barcode] = []  # the barcode at each NUL
    pads: list[str] = []  # and its pad

    def text(o, pad: str) -> str:
        t = type(o)
        if t is float and o:
            s = floats.get(o)
            if s is None:
                s = floats[o] = _json_float(o)
            return s
        if t is str:
            return _json_str(o)
        if t is int:
            return int.__repr__(o)
        if t is not list and t is not dict:
            if isinstance(o, str):
                return _json_str(o)
            if o is None or o is True or o is False:
                return _JSON_CONSTANTS[o]
            if isinstance(o, int):
                return int.__repr__(o)
            if isinstance(o, float):
                return _json_float(o)
            if isinstance(o, Barcode):
                barcodes.append(o)
                pads.append(pad)
                return "\0"
            if not isinstance(o, (list, tuple, dict)):
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(o, dict):
            parts = []
            for k, v in sorted(o.items()):
                kt = keys.get(k) if type(k) is str else None
                if kt is None:
                    kt = _json_str(_json_key(k)) + ": "
                    if type(k) is str:
                        keys[k] = kt
                parts.append(kt + text(v, inner))
            return "".join(("{\n", inner, sep.join(parts), "\n", pad, "}"))
        types = set(map(type, o))
        if types == {int}:
            body = sep.join(map(int.__repr__, o))
        elif types == {str}:
            body = sep.join(map(_json_str, o))
        else:
            body = sep.join([text(v, inner) for v in o])
        return "".join(("[\n", inner, body, "\n", pad, "]"))

    def group(barcode: Barcode):
        pad, after = next(places)  # called once per barcode, in the order of its NUL
        # pads of the dict, the interval list, an interval and a prime's vertices
        p1, p2, p3, p4 = (pad + "  " * k for k in range(1, 5))
        vsep = ",\n" + p4
        head, mid = f'{{\n{p3}"birth": ', f',\n{p3}"death": '
        prime_open, prime_close = f',\n{p3}"dim": null,\n{p3}"prime": [\n{p4}', f"\n{p3}]\n{p2}}}"
        zero = f',\n{p3}"dim": null,\n{p3}"prime": []\n{p2}}}'
        dims = None  # kind PH: dimension -> the tail of its bars
        if barcode.kind == KIND_PH:
            dims = {dim: f',\n{p3}"dim": {text(dim, p3)},\n{p3}"prime": null\n{p2}}}' for dim in {b[0] for b in barcode.bars}}
        lead, sep = "\n" + p2, ",\n" + p2

        def formatter(bars, vertices) -> str:
            nonlocal lead
            parts = []
            # bars come sorted by birth and death, so a run of bars shares
            # their objects and its text; identity keeps -0.0 and 0.0 apart
            pb = pd = object()
            for (key, b, d), v in zip(bars, vertices):
                if b is not pb or d is not pd:
                    pb, pd = b, d
                    ends = head + text(b, p3) + mid + ('"inf"' if d is None else text(d, p3))
                    opened = ends + prime_open
                if v:
                    parts.append(f"{opened}{vsep.join(v)}{prime_close}")
                else:
                    parts.append(ends + (zero if v is not None else dims[key]))
            out, lead = lead + sep.join(parts), sep
            return out

        close = f"\n{p1}]" if barcode.bars else "]"
        return f'{{\n{p1}"intervals": [', formatter, f'{close},\n{p1}"kind": {text(barcode.kind, p1)}\n{pad}}}{after}'

    out: list[str] = []
    rest = (text(obj, "") + "\n").split("\0")
    places = zip(pads, rest[1:])
    sides = [(out.append if file is None else file.write, rest[0], group, "")]
    if svg is not None:
        sides.append((svg.write, *_svg_drawing(barcodes)))
    _write_bars(barcodes, sides)
    return "".join(out) if file is None else None


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_drawing(barcodes: Sequence[Barcode]) -> tuple:
    """The head, the group function and the tail of the SVG drawing of
    ``barcodes``, a side of :func:`_write_bars` once given its write."""
    bar_h, gap, left, right_pad, top = 14.0, 6.0, 150.0, 40.0, 30.0
    span = 520.0
    total = sum(len(bc.bars) for bc in barcodes)
    # the largest finite birth or death, read from the bars without a list;
    # filter(None) drops the zeros with the Nones: a zero is the max only when
    # no endpoint is positive, and tmax is then 1.0 anyway
    ends = chain.from_iterable(chain(map(itemgetter(1), bc.bars), map(itemgetter(2), bc.bars)) for bc in barcodes)
    tmax = max(filter(None, ends), default=1.0)
    if tmax <= 0:
        tmax = 1.0
    height = top * 2 + total * (bar_h + gap) + len(barcodes) * 24
    width = left + span + right_pad
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<line x1="{left}" y1="{top - 10}" x2="{left}" y2="{height - 10}" '
        'stroke="#888" stroke-width="1"/>\n'
    )
    tail = (
        f'<text x="{left}" y="{height - 2:.0f}" font-size="10" font-family="monospace">0</text>\n'
        f'<text x="{left + span - 20:.0f}" y="{height - 2:.0f}" font-size="10" '
        f'font-family="monospace">{tmax:.4g}</text>\n</svg>\n'
    )
    ax = left + span + right_pad / 2  # infinite bars end here, at their arrow
    ax_s, ax9_s = f"{ax:.1f}", f"{ax + 9:.1f}"
    palette = {"SR": "#1f77b4", "EDGE": "#2ca02c", "PH": "#d62728"}
    y = 30

    def group(barcode: Barcode):
        nonlocal y
        kind = _svg_escape(barcode.kind)
        color = palette.get(barcode.kind, "#555555")
        rect_tail = f'" height="{bar_h:.1f}" fill="{color}"/>\n'
        arrow_tail = f' Z" fill="{color}"/>\n'
        opening = (
            f'<g id="group-{kind}">\n'
            f'<text x="8" y="{y + 10}.0" font-size="13" font-family="monospace">{kind}</text>\n'
        )
        y += 24
        dims = None  # kind PH: dimension -> its label
        if barcode.kind == KIND_PH:
            dims = {dim: f"dim {dim}" for dim in {bar[0] for bar in barcode.bars}}

        def formatter(bars, vertices) -> str:
            nonlocal y
            parts = []
            pb = pd = object()  # the previous bar's birth and death, as in dumps_json
            for (key, birth, death), v in zip(bars, vertices):
                if birth is not pb or death is not pd:
                    pb, pd = birth, death
                    x0 = left + span * (birth / tmax)  # birth / tmax <= 1, so no product overflows
                    w = ax - x0 if death is None else left + span * (death / tmax) - x0
                    xw = (f"{x0:.3f}", f"{max(w, 1.0):.3f}")
                label = f"&lt;x{',x'.join(v)}&gt;" if v else "&lt;0&gt;" if v is not None else dims[key]
                parts.append(
                    f'<text x="12" y="{y + 11}.0" font-size="11" font-family="monospace">{label}</text>\n'
                    f'<rect class="bar" x="{xw[0]}" y="{y}.0" width="{xw[1]}{rect_tail}'
                )
                if death is None:  # the arrow head, 5 above and below the middle of the bar
                    parts.append(f'<path d="M {ax_s} {y + 2}.0 L {ax9_s} {y + 7}.0 L {ax_s} {y + 12}.0{arrow_tail}')
                y += 20
            return "".join(parts)

        return opening, formatter, "</g>\n"

    return head, group, tail


def barcodes_svg(barcodes: Sequence[Barcode]) -> str:
    """Static SVG rendering: one horizontal bar per interval, grouped by kind.

    ``barcodes`` holds :class:`~idealtda.persistence.Barcode` objects, prime
    and PH alike, drawn from their bars in the order of their interval
    dicts.  Infinite deaths are drawn to the right margin with an arrow
    head.  Each bar is one string; a prime's vertices are ints, so its
    label is written already escaped.  Every ``y`` is an integer (30, then
    24 per group and 20 per bar), written as ``{y}.0``.

    The whole text is returned; it is the oracle of the file that
    ``dumps_json(obj, file, svg=...)`` draws in its walk over the bars.
    """
    out: list[str] = []
    _write_bars(barcodes, [(out.append, *_svg_drawing(barcodes))])
    return "".join(out)
