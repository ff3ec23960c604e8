"""Randomized verification suites and the instance generators behind them.

Each suite exercises one structural claim of the library on seeded random
instances at desk scale (n <= 8) and reports a trial/failure count.  The
suites double as the engine of the ``verify`` CLI subcommand and of the
acceptance tests, which run them at larger trial counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import Filtration, Graph, SimplicialComplex, clique_complex, vr_filtration
from .ideals import (
    complement_graph,
    edge_ideal,
    minimal_vertex_covers,
    sr_associated_primes,
    stanley_reisner,
)
from .labelled import (
    EvaluationPoint,
    LabelledComplex,
    evaluate_chain,
    evaluation_ranks,
    fraction_field_ranks,
    graded_slice,
    make_labelled,
    slice_iso_check,
)
from .linalg import GF2, PrimeField, QQ
from .monomials import AtomTable, FactoredElement, LinearPrime, minimal_primes_squarefree
from .persistence import (
    NoResurrectionError,
    _intervals_from_runs,
    betti_profile,
    classical_betti,
    classical_boundary_ranks,
    coverage_report,
    prime_barcode,
    step_associated_primes,
    witness_between_steps,
)

__all__ = [
    "SuiteResult",
    "random_graph",
    "random_complex",
    "random_metric",
    "random_monomial_labelled",
    "random_admissible_point",
    "suite_clique_complement_identity",
    "suite_prime_interval_uniqueness",
    "suite_betti_jump_witness",
    "suite_half_distance_coverage",
    "suite_evaluation_equivalence",
    "suite_fraction_field_ranks",
    "suite_graded_slice_homology",
    "suite_associated_prime_oracles",
    "suite_vertex_cover_oracles",
    "run_all",
]

_PROBE_FIELD = PrimeField(1000003)


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int = 0
    detail: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def note(self, message: str) -> None:
        self.failures += 1
        if len(self.detail) < 10:
            self.detail.append(message)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name} (trials={self.trials}, failures={self.failures})"


def random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.uniform(0.2, 0.8)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_complex(rng: random.Random, n: int, max_gen: int = 4, max_size: int = 4) -> SimplicialComplex:
    """Downward closure of a few random candidate faces; never empty."""
    gens = [(rng.randint(1, n),)]
    for _ in range(rng.randint(1, max_gen)):
        size = rng.randint(1, min(max_size, n))
        gens.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return SimplicialComplex.from_faces(n, gens, close=True)


def random_metric(rng: random.Random, n: int, tie_prob: float = 0.25) -> list[list[float]]:
    """Symmetric nonnegative matrix with zero diagonal; occasional ties."""
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rng.uniform(0.2, 2.0)
            if rng.random() < tie_prob:
                d = round(d, 1)
            dist[i][j] = dist[j][i] = d
    return dist


def random_monomial_labelled(
    rng: random.Random, n: int, tvars: int, reduced: bool = False
) -> LabelledComplex:
    K = random_complex(rng, n)
    table = AtomTable.for_variables(tvars)
    labels = []
    for _ in range(n):
        exps = tuple(rng.randint(0, 2) for _ in range(tvars))
        labels.append(FactoredElement(table, exps))
    return make_labelled(K, labels, reduced=reduced)


def random_admissible_point(rng: random.Random, LC: LabelledComplex) -> EvaluationPoint:
    """Small nonzero rational coordinates; admissible for monomial labels."""
    coords = {}
    for v in LC.table.variables:
        q = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        coords[v] = -q if rng.random() < 0.5 else q
    return EvaluationPoint.of(coords)


def _probe_point(rng: random.Random, LC: LabelledComplex) -> EvaluationPoint:
    return EvaluationPoint.of(
        {v: rng.randint(1, _PROBE_FIELD.p - 1) for v in LC.table.variables}
    )


def _primes_text(primes) -> str:
    return "{" + ", ".join(str(p) for p in sorted(primes, key=LinearPrime.sort_key)) + "}"


def _random_vr(rng: random.Random, nmax: int) -> tuple[list[list[float]], Filtration]:
    n = rng.randint(max(2, min(3, nmax)), nmax) if nmax >= 2 else 1
    dist = random_metric(rng, n)
    return dist, vr_filtration(dist)


def suite_clique_complement_identity(rng: random.Random, trials: int, nmax: int = 8) -> SuiteResult:
    """Face ideal of a clique complex = edge ideal of the complement graph."""
    res = SuiteResult("clique-complement ideal identity", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        g = random_graph(rng, n)
        lhs = stanley_reisner(clique_complex(g)).minimal_basis()
        rhs = edge_ideal(complement_graph(g)).minimal_basis()
        if lhs != rhs:
            res.note(f"trial {t}: {lhs} != {rhs} for graph {sorted(g.edges)}")
    return res


def suite_prime_interval_uniqueness(
    rng: random.Random, trials: int, nmax: int = 7, inject_fault: bool = False
) -> SuiteResult:
    """Every prime is associated along one contiguous run of steps, and
    those runs are the closed-form bars of ``prime_barcode``."""
    res = SuiteResult("prime interval uniqueness", trials)
    for t in range(trials):
        _, f = _random_vr(rng, nmax)
        for kind in ("SR", "EDGE"):
            ass = [set(a) for a in step_associated_primes(f, kind)]
            if inject_fault and len(ass) >= 3:
                victim = sorted(ass[0], key=lambda p: p.sort_key())[0]
                ass[len(ass) // 2].discard(victim)
                ass[-1].add(victim)
            try:
                runs = _intervals_from_runs(ass, f.params, kind)
            except NoResurrectionError as exc:
                res.note(f"trial {t}: {exc}")
                continue
            if prime_barcode(f, kind).intervals != runs:
                res.note(f"trial {t}: {kind} closed-form bars differ from the per-step runs")
    return res


def suite_betti_jump_witness(rng: random.Random, trials: int, nmax: int = 7) -> SuiteResult:
    """Every Betti jump at a critical parameter has a changing prime."""
    res = SuiteResult("betti jump witness", trials)
    for t in range(trials):
        _, f = _random_vr(rng, nmax)
        profile = betti_profile(f, GF2)
        for i in range(1, len(f.params)):
            if profile.betti[i] == profile.betti[i - 1]:
                continue
            if witness_between_steps(f, i) is None:
                res.note(f"trial {t}: jump at step {i} of {f.params} has no witness")
    return res


def suite_half_distance_coverage(rng: random.Random, trials: int, nmax: int = 7) -> SuiteResult:
    """Every h_ij/2 appears among the prime barcode endpoints."""
    res = SuiteResult("half-distance endpoint coverage", trials)
    for t in range(trials):
        dist, f = _random_vr(rng, nmax)
        report = coverage_report(dist, prime_barcode(f, "SR"))
        if not report.ok:
            res.note(f"trial {t}: uncovered pairs {report.violations}")
    return res


def suite_evaluation_equivalence(
    rng: random.Random, trials: int, nmax: int = 7, tvars: int = 4
) -> SuiteResult:
    """Betti numbers survive evaluation at any admissible point."""
    res = SuiteResult("evaluation equivalence", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        reduced = rng.random() < 0.5
        LC = random_monomial_labelled(rng, n, rng.randint(1, tvars), reduced=reduced)
        point = random_admissible_point(rng, LC)
        got = evaluate_chain(LC, point, QQ).betti()
        want = classical_betti(LC.complex, QQ, reduced=reduced)
        if got != want:
            res.note(f"trial {t}: evaluated betti {got} != classical {want}")
    return res


def suite_fraction_field_ranks(
    rng: random.Random, trials: int, nmax: int = 7, tvars: int = 4
) -> SuiteResult:
    """Fraction-field ranks of labelled boundaries equal classical ranks."""
    res = SuiteResult("fraction-field rank equality", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        reduced = rng.random() < 0.5
        LC = random_monomial_labelled(rng, n, rng.randint(1, tvars), reduced=reduced)
        ff = fraction_field_ranks(LC)
        cl = classical_boundary_ranks(LC.complex, QQ, reduced=reduced)
        if ff != cl:
            res.note(f"trial {t}: fraction-field ranks {ff} != classical {cl}")
            continue
        probe = evaluation_ranks(LC, _probe_point(rng, LC), _PROBE_FIELD)
        if probe != ff:
            probe = evaluation_ranks(LC, _probe_point(rng, LC), _PROBE_FIELD)
            if probe != ff:
                res.note(f"trial {t}: rank probe {probe} != symbolic {ff}")
    return res


def suite_graded_slice_homology(
    rng: random.Random, trials: int, alphas_per: int = 5, nmax: int = 7, tvars: int = 4
) -> SuiteResult:
    """Slice homology equals reduced homology of the divisibility subcomplex."""
    res = SuiteResult("graded slice homology", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        LC = random_monomial_labelled(rng, n, rng.randint(1, tvars), reduced=True)
        cap = FactoredElement.unit(LC.table)
        for m in LC.vertex_labels:
            cap = cap.lcm(m)
        for _ in range(alphas_per):
            alpha = tuple(rng.randint(0, e) for e in cap.exps)
            sl = graded_slice(LC, alpha)
            got = sl.betti()
            want = classical_betti(sl.subcomplex, QQ, reduced=True)
            want = {k: want.get(k, 0) for k in got}
            if got != want:
                res.note(f"trial {t}: alpha {alpha}: slice betti {got} != {want}")
            if not slice_iso_check(sl):
                res.note(f"trial {t}: alpha {alpha}: slice chain map mismatch")
    return res


def suite_associated_prime_oracles(rng: random.Random, trials: int, nmax: int = 7) -> SuiteResult:
    """Maximal-face route agrees with the minimal-transversal route."""
    res = SuiteResult("associated-prime oracle agreement", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        K = random_complex(rng, n)
        combinatorial = sr_associated_primes(K)
        transversal = minimal_primes_squarefree(stanley_reisner(K))
        if combinatorial != transversal:
            res.note(f"trial {t}: {_primes_text(combinatorial)} != {_primes_text(transversal)}")
    return res


def suite_vertex_cover_oracles(rng: random.Random, trials: int, nmax: int = 8) -> SuiteResult:
    """Independent-set route to covers agrees with the transversal route."""
    res = SuiteResult("vertex-cover oracle agreement", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        g = random_graph(rng, n)
        combinatorial = minimal_vertex_covers(g)
        transversal = minimal_primes_squarefree(edge_ideal(g))
        if combinatorial != transversal:
            res.note(f"trial {t}: {_primes_text(combinatorial)} != {_primes_text(transversal)}")
    return res


def run_all(
    seed: int = 0,
    trials: int = 20,
    nmax: int = 8,
    inject_fault: bool = False,
) -> list[SuiteResult]:
    """Run every suite with its own derived seed; order is fixed."""
    nmax_f = min(nmax, 7)
    suites = [
        lambda r: suite_clique_complement_identity(r, trials, nmax),
        lambda r: suite_prime_interval_uniqueness(r, trials, nmax_f, inject_fault),
        lambda r: suite_betti_jump_witness(r, trials, nmax_f),
        lambda r: suite_half_distance_coverage(r, trials, nmax_f),
        lambda r: suite_evaluation_equivalence(r, trials, nmax_f),
        lambda r: suite_fraction_field_ranks(r, trials, nmax_f),
        lambda r: suite_graded_slice_homology(r, max(trials // 2, 1), 5, nmax_f),
        lambda r: suite_associated_prime_oracles(r, trials, nmax_f),
        lambda r: suite_vertex_cover_oracles(r, trials, nmax),
    ]
    out = []
    for i, suite in enumerate(suites):
        out.append(suite(random.Random(seed * 1000 + i)))
    return out
