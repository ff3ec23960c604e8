"""Seeded input generators and the operation list of every workload.

An operation is one ``idealtda`` command line.  The generators write the
input files; the program sees only those files.  ``FULL`` holds the sizes
the benchmark measures, ``TINY`` the sizes of the harness self-check.

Sizes are chosen so that one pass over a workload's operations takes a
few seconds on one core, several passes fit in one run, and the spread
of a pass's time across seeds stays small: many mid-sized inputs of one
size rather than a few large ones, because per-input work varies by
5-15 % with the random metric and averages out over the pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import checks

FULL = {
    # --max-dim 2 metrics, then graph-only (--max-dim 1) metrics
    "rips_trunc": {"clique": [17] * 6, "graph": [22]},
    "rips_full": {"points": [13] * 8},
    # labelled complexes per kind, face counts spread over the range
    "labelled": {"per_kind": 10, "faces": (60, 100), "n": (11, 12)},
    "verify": {"runs": 3, "trials": 120, "max_n": 8},
}

TINY = {
    "rips_trunc": {"clique": [6, 7], "graph": [7]},
    "rips_full": {"points": [6]},
    "labelled": {"per_kind": 2, "faces": (10, 20), "n": (6, 7)},
    "verify": {"runs": 1, "trials": 3, "max_n": 5},
}


@dataclass
class Op:
    """One CLI invocation, its output directory and its output check."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[dict[str, bytes]], list[str]]
    size: dict = field(default_factory=dict)
    input: str = ""


def _distinct_metric(rng: random.Random, n: int) -> list[list[float]]:
    while True:
        values = [rng.uniform(0.2, 2.0) for _ in range(n * (n - 1) // 2)]
        if len(set(values)) == len(values):
            break
    dist = [[0.0] * n for _ in range(n)]
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = next(it)
    return dist


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rips_op(name, workdir, dist, input_path, fmt, max_dim, full_dim) -> Op:
    out = workdir / f"{name}.out"
    argv = ["barcodes", "--input", input_path, "--format", fmt, "--svg", "--out", str(out)]
    if max_dim is not None:
        argv += ["--max-dim", str(max_dim)]
    n = len(dist)
    top = n - 1 if max_dim is None else max_dim
    faces = sum(math.comb(n, k) for k in range(1, top + 2))
    return Op(
        name,
        argv,
        out,
        lambda files: checks.check_rips(dist, max_dim, files, full_dim),
        {"n": n, "max_dim": max_dim, "faces": faces, "format": fmt},
        input_path,
    )


def rips_trunc(rng: random.Random, workdir: Path, sizes: dict) -> list[Op]:
    ops = []
    for kind, max_dim in (("clique", 2), ("graph", 1)):
        for i, n in enumerate(sizes[kind]):
            dist = _distinct_metric(rng, n)
            name = f"{kind}{i}-n{n}"
            text = "".join(",".join(repr(x) for x in row) + "\n" for row in dist)
            path = _write(workdir / f"{name}.csv", text)
            ops.append(_rips_op(name, workdir, dist, path, "dist-csv", max_dim, False))
    return ops


def rips_full(rng: random.Random, workdir: Path, sizes: dict) -> list[Op]:
    ops = []
    for i, n in enumerate(sizes["points"]):
        points = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(n)]
        dist = [[math.dist(p, q) for q in points] for p in points]
        name = f"cloud{i}-n{n}"
        path = _write(workdir / f"{name}.json", json.dumps({"points": points}))
        ops.append(_rips_op(name, workdir, dist, path, "points-json", None, True))
    return ops


def _clique_faces(n: int, adj: list[int], max_size: int) -> list[tuple[int, ...]]:
    """All cliques of at most ``max_size`` vertices, 1-based and sorted."""
    out = []
    frontier = [((v,), adj[v] & ~((1 << (v + 1)) - 1)) for v in range(n)]
    while frontier:
        clique, cand = frontier.pop()
        out.append(tuple(v + 1 for v in clique))
        if len(clique) < max_size:
            for v in checks._bits(cand):
                frontier.append((clique + (v,), cand & adj[v] & ~((1 << (v + 1)) - 1)))
    return sorted(out, key=lambda f: (len(f), f))


def _random_clique_complex(rng, n_range, target):
    while True:
        n = rng.randint(*n_range)
        p = rng.uniform(0.35, 0.6)
        adj = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        faces = _clique_faces(n, adj, 4)
        if abs(len(faces) - target) <= max(2, target // 30):
            return n, faces


def _carriers(rng: random.Random, n: int, faces) -> set[int]:
    """Two vertices (0-based) whose faces make up about a third of all faces.

    The Bareiss cost of a composite input grows steeply with the number of
    faces whose label carries x1+x2; fixing that share keeps the cost of a
    composite input steady across seeds."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)

    def off(pair):
        return abs(sum(1 for f in faces if pair[0] + 1 in f or pair[1] + 1 in f) - len(faces) // 3)

    return set(min(pairs, key=off))


def labelled(rng: random.Random, workdir: Path, sizes: dict) -> list[Op]:
    """Half monomial inputs (--alpha, --point), half with the composite atom
    x1+x2 (--point); the first composite point kills x1+x2, so the local
    window route runs there.  Composite inputs use exponents 0 and 1 only."""
    k = sizes["per_kind"]
    lo, hi = sizes["faces"]
    targets = [lo + (hi - lo) * i // max(k - 1, 1) for i in range(k)]
    ops = []
    for kind in ("monomial", "composite"):
        for i, target in enumerate(targets):
            n, faces = _random_clique_complex(rng, sizes["n"], target)
            atoms = ["x1", "x2", "x3", "x4"]
            polys = {}
            labels = [[rng.randint(0, 2) for _ in range(4)] for _ in range(n)]
            point = {f"x{j}": rng.choice((1, 2, 3, 5, 7)) for j in range(1, 5)}
            alpha = None
            admissible = True
            if kind == "composite":
                atoms.append("x1+x2")
                polys["x1+x2"] = [[1, [1, 0, 0, 0]], [1, [0, 1, 0, 0]]]
                carriers = _carriers(rng, n, faces)
                for v, label in enumerate(labels):
                    label[:] = [min(e, 1) for e in label] + [1 if v in carriers else 0]
                if i == 0:
                    point["x2"] = -point["x1"]
                    admissible = False
            else:
                alpha = [rng.randint(1, 2) for _ in range(4)]
                point = {x: -v if rng.random() < 0.5 else v for x, v in point.items()}
            name = f"{kind}{i}-f{len(faces)}"
            data = {"n": n, "faces": [list(f) for f in faces], "atoms": atoms, "atom_polys": polys, "labels": labels}
            path = _write(workdir / f"{name}.json", json.dumps(data))
            out = workdir / f"{name}.out"
            argv = ["labelled", "--input", path, "--out", str(out)]
            argv += ["--point", ",".join(f"{x}={v}" for x, v in sorted(point.items()))]
            if alpha is not None:
                argv += ["--alpha", ",".join(map(str, alpha))]
            window = [v for v in range(1, n + 1) if admissible or not labels[v - 1][4]]
            spec = {"faces": faces, "alpha": alpha, "admissible": admissible, "window": window}
            size = {"n": n, "faces": len(faces), "atoms": len(atoms)}
            ops.append(Op(name, argv, out, lambda files, spec=spec: checks.check_labelled(spec, files), size, path))
    return ops


def verify(rng: random.Random, workdir: Path, sizes: dict) -> list[Op]:
    ops = []
    for i in range(sizes["runs"]):
        spec = {"seed": rng.randrange(10**6), "trials": sizes["trials"]}
        out = workdir / f"verify{i}.out"
        argv = ["verify", "--seed", str(spec["seed"]), "--trials", str(spec["trials"]),
                "--max-n", str(sizes["max_n"]), "--out", str(out)]
        size = {"trials": spec["trials"], "max_n": sizes["max_n"], "verify_seed": spec["seed"]}
        ops.append(Op(f"verify{i}", argv, out, lambda files, spec=spec: checks.check_verify(spec, files), size))
    return ops


GENERATORS = {"rips_trunc": rips_trunc, "rips_full": rips_full, "labelled": labelled, "verify": verify}


def make_ops(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Write the inputs of one workload for one seed; return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir, (TINY if tiny else FULL)[workload])
