"""Output checks for benchmark operations, written independently of idealtda.

Every check returns a list of error strings; an empty list means the
output passed.  The oracles here recompute what they compare against from
the generated input alone, so a wrong answer in the library cannot also
make its own check pass:

* SR prime barcode: a face sigma's prime P_{[n] minus sigma} is associated
  exactly while sigma is maximal, so its bar is
  [b(sigma), min_v b(sigma + v)), zero-length bars dropped.
* EDGE prime barcode: at sampled parameters the primes alive must be the
  complements of the maximal independent sets of the threshold graph.
* PH barcode: at every critical parameter the alternating sum of live bars
  equals the Euler characteristic of the complex, and the live H_0 bars
  equal the number of connected components.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from itertools import combinations

INF = math.inf


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalise(name: str, data: bytes, input_path: str) -> bytes:
    """Bytes with the input path replaced, so digests do not depend on where
    the inputs were written (``barcodes.json`` records it in ``meta.input``)."""
    if name != "barcodes.json":
        return data
    quoted = json.dumps(input_path)[1:-1].encode()
    return data.replace(quoted, b"<input>")


def _death(value):
    return INF if value == "inf" else value


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def half_distances(dist):
    n = len(dist)
    return [[dist[i][j] / 2.0 for j in range(n)] for i in range(n)]


def clique_births(half, max_dim: int) -> dict[int, float]:
    """Vietoris-Rips birth of every face up to ``max_dim`` (vertex bitmasks)."""
    n = len(half)
    births = {1 << v: 0.0 for v in range(n)}
    for size in range(2, min(max_dim + 1, n) + 1):
        for comb in combinations(range(n), size):
            mask = 0
            for v in comb:
                mask |= 1 << v
            # every pair of comb lies in comb - a, in comb - c, or is {a, c}
            a, c = comb[0], comb[-1]
            births[mask] = max(births[mask ^ (1 << a)], births[mask ^ (1 << c)], half[a][c])
    return births


def sr_bars(n: int, births: dict[int, float]) -> list[tuple]:
    full = (1 << n) - 1
    out = []
    for mask, b in births.items():
        death = INF
        for v in range(n):
            bit = 1 << v
            if not mask & bit:
                up = births.get(mask | bit)
                if up is not None and up < death:
                    death = up
        if b < death:
            prime = tuple(v + 1 for v in _bits(full & ~mask))
            out.append((prime, b, death))
    return sorted(out)


def _maximal_independent_sets(n: int, adj: list[int]) -> list[int]:
    """Maximal independent sets as bitmasks (Bron-Kerbosch on the complement)."""
    full = (1 << n) - 1
    non = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            out.append(r)
            continue
        pool = p | x
        u = (pool & -pool).bit_length() - 1
        for v in _bits(p & ~non[u]):
            bit = 1 << v
            stack.append((r | bit, p & non[v], x & non[v]))
            p ^= bit
            x |= bit
    return out


def _alive(bars, t: float):
    return [bar for bar in bars if bar[1] <= t < bar[2]]


def check_rips(dist, max_dim: int, files: dict[str, bytes], full_dim: bool) -> list[str]:
    """Invariants of one ``barcodes`` run on a distance matrix."""
    errors: list[str] = []
    n = len(dist)
    top = n - 1 if max_dim is None else max_dim
    try:
        payload = json.loads(files["barcodes.json"])
        report = json.loads(files["report.json"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    groups = {g["kind"]: g["intervals"] for g in payload["barcodes"]}
    if [g["kind"] for g in payload["barcodes"]] != ["SR", "EDGE", "PH"]:
        return [f"barcode kinds {list(groups)}"]
    if "barcodes.svg" in files and not files["barcodes.svg"].startswith(b"<svg"):
        errors.append("barcodes.svg is not an SVG document")
    half = half_distances(dist)
    params = sorted({0.0} | {half[i][j] for i in range(n) for j in range(i + 1, n)})
    if report.get("params") != params:
        errors.append("report params differ from {0} and the half-distances")
    cov = report.get("coverage", {})
    if cov.get("pairs_checked") != n * (n - 1) // 2:
        errors.append(f"coverage checked {cov.get('pairs_checked')} pairs")
    if full_dim and not cov.get("ok"):
        errors.append(f"coverage violations {cov.get('violations', [])[:3]}")

    births = clique_births(half, top)
    got_sr = sorted((tuple(iv["prime"]), iv["birth"], _death(iv["death"])) for iv in groups["SR"])
    if got_sr != sr_bars(n, births):
        errors.append(f"SR barcode differs from the maximal-face oracle ({len(got_sr)} bars)")

    edge = [(tuple(iv["prime"]), iv["birth"], _death(iv["death"])) for iv in groups["EDGE"]]
    order = sorted(((half[i][j], i, j) for i in range(n) for j in range(i + 1, n)))
    samples = sorted({params[0], params[len(params) // 3], params[2 * len(params) // 3], params[-1]})
    full = (1 << n) - 1
    for t in samples:
        adj = [0] * n
        for h, i, j in order:
            if h > t:
                break
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        want = sorted(tuple(v + 1 for v in _bits(full & ~s)) for s in _maximal_independent_sets(n, adj))
        if sorted(p for p, _, _ in _alive(edge, t)) != want:
            errors.append(f"EDGE primes alive at t={t} differ from the vertex-cover oracle")

    ph: dict[int, tuple[list[float], list[float]]] = {}
    for iv in groups["PH"]:
        b, d = ph.setdefault(iv["dim"], ([], []))
        b.append(iv["birth"])
        d.append(_death(iv["death"]))
    for b, d in ph.values():
        b.sort()
        d.sort()
    by_dim: dict[int, list[float]] = {}
    for mask, b in births.items():
        by_dim.setdefault(mask.bit_count() - 1, []).append(b)
    for b in by_dim.values():
        b.sort()
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components, pos = n, 0
    for t in params:
        while pos < len(order) and order[pos][0] <= t:
            a, c = find(order[pos][1]), find(order[pos][2])
            if a != c:
                parent[a] = c
                components -= 1
            pos += 1
        euler = sum((-1) ** k * bisect_right(b, t) for k, b in by_dim.items())
        alive = {k: bisect_right(b, t) - bisect_right(d, t) for k, (b, d) in ph.items()}
        if sum((-1) ** k * c for k, c in alive.items()) != euler:
            errors.append(f"PH bars alive at t={t} break the Euler characteristic {euler}")
            break
        if alive.get(0, 0) != components:
            errors.append(f"PH H_0 at t={t} is {alive.get(0, 0)}, components {components}")
            break
    return errors


def _euler_of_faces(faces, reduced: bool) -> int:
    return sum((-1) ** (len(f) - 1) for f in faces) - (1 if reduced else 0)


def _euler_of_betti(betti: dict) -> int:
    return sum((-1) ** int(k) * v for k, v in betti.items())


def check_labelled(spec: dict, files: dict[str, bytes]) -> list[str]:
    """Verdicts of one ``labelled`` run plus an Euler-characteristic cross-check."""
    try:
        report = json.loads(files["report.json"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    errors = []
    for key in ("chain_condition", "diag_relation"):
        if report.get(key) is not True:
            errors.append(f"{key} is {report.get(key)}")
    if report.get("ranks", {}).get("equal") is not True:
        errors.append("fraction-field ranks differ from classical ranks")
    reduced = spec["alpha"] is not None
    faces = [tuple(f) for f in spec["faces"]]
    ev = report.get("evaluation", {})
    if spec["admissible"]:
        if ev.get("admissible") is not True or ev.get("equal") is not True:
            errors.append(f"evaluation at an admissible point: {ev}")
        elif _euler_of_betti(ev["betti"]) != _euler_of_faces(faces, reduced):
            errors.append("evaluated Betti numbers break the Euler characteristic")
    else:
        if ev.get("admissible") is not False or ev.get("window_equal") is not True:
            errors.append(f"evaluation at an inadmissible point: {ev}")
        else:
            window = set(ev["window"])
            if window != set(spec["window"]):
                errors.append(f"window {sorted(window)} != expected {spec['window']}")
            kept = [f for f in faces if set(f) <= window]
            if _euler_of_betti(ev["window_betti"]) != _euler_of_faces(kept, reduced):
                errors.append("window Betti numbers break the Euler characteristic")
    if reduced:
        sl = report.get("slice", {})
        if sl.get("iso") is not True:
            errors.append("graded slice is not isomorphic to the subcomplex")
        if sl.get("betti") != sl.get("subcomplex_betti"):
            errors.append("graded slice Betti numbers differ from the subcomplex's")
    return errors


def check_verify(spec: dict, files: dict[str, bytes]) -> list[str]:
    """Every suite ran its trials and none failed."""
    try:
        report = json.loads(files["report.json"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    suites = report.get("suites", [])
    errors = []
    if len(suites) != 9:
        errors.append(f"{len(suites)} suites reported, expected 9")
    for suite in suites:
        if suite["failures"] or suite["trials"] < 1:
            errors.append(f"suite {suite['name']}: {suite['failures']} failures")
    if report.get("trials") != spec["trials"] or report.get("seed") != spec["seed"]:
        errors.append("report does not echo the requested seed and trials")
    return errors
