"""Randomized verification suites, the slow oracle routes they check
against, and the instance generators behind them.

Each suite exercises one structural claim of the library on seeded random
instances at desk scale (n <= 8) and reports a trial/failure count.  The
suites double as the engine of the ``verify`` CLI subcommand and of the
acceptance tests, which run them at larger trial counts.  The oracles
(per-step bars and jump witnesses, polynomial-ring ranks, brute-force
transversals) live only here: no production module imports this one.

The polynomial ring lives here too: :class:`RingPolynomial` adds the ring
operations to the library's parsed expansion, ``linalg.Polynomial``, and
:func:`polynomial_ranks` ranks the substituted boundaries with
:func:`polynomial_bareiss_rank`, fraction-free with exact division.  The
fraction-field ranks have two oracles beside it: that route, and the
boundaries evaluated at :func:`admissible_point`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Sequence

from .complexes import MAX_FACES, Filtration, Graph, SimplicialComplex, clique_complex, vr_filtration
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
    boundary_matrices,
    evaluate_chain,
    fraction_field_ranks,
    graded_slice,
    make_labelled,
    slice_iso_check,
)
from .linalg import GF2, QQ, Polynomial, _bareiss, power_product
from .monomials import AtomTable, FactoredElement, LinearPrime, _antichain_min, minimal_primes_squarefree
from .persistence import (
    Bar,
    _sorted_bars,
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
    "NoResurrectionError",
    "intervals_from_runs",
    "witness_per_step",
    "minimal_transversals_exhaustive",
    "random_graph",
    "random_complex",
    "random_metric",
    "random_monomial_labelled",
    "random_admissible_point",
    "admissible_point",
    "RingPolynomial",
    "polynomial_bareiss_rank",
    "atom_polynomials",
    "polynomial_ranks",
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


class NoResurrectionError(AssertionError):
    """A prime re-entered the associated set after leaving it."""


def intervals_from_runs(
    ass_per_step: Sequence[frozenset[LinearPrime]],
    params: Sequence[float],
    kind: str,
) -> tuple[Bar, ...]:
    """``(mask, birth, death)`` bars of the runs of steps at which each
    prime is associated, sorted like the bars of ``prime_barcode``, for any
    monotone square-free ideal family; raises NoResurrectionError when a
    prime's steps are not one run."""
    present: dict[LinearPrime, list[int]] = {}
    for i, ass in enumerate(ass_per_step):
        for p in ass:
            present.setdefault(p, []).append(i)
    bars = []
    for prime, idxs in present.items():
        if idxs[-1] - idxs[0] + 1 != len(idxs):
            raise NoResurrectionError(
                f"prime {prime} resurrects in kind {kind}: steps {idxs}"
            )
        birth = params[idxs[0]]
        last = idxs[-1]
        death = None if last == len(params) - 1 else params[last + 1]
        bars.append((prime.mask, birth, death))
    return _sorted_bars(bars)


def witness_per_step(f: Filtration, i: int) -> LinearPrime | None:
    """The witness of ``persistence.witness_between_steps`` the long way:
    the first prime, in (|W|, lex) order, of the symmetric difference of
    the associated sets of the step complexes i-1 and i."""
    if not 1 <= i < len(f.params):
        raise ValueError(f"step index {i} out of range")
    K_lo, K_hi = f.complex_at(f.params[i - 1]), f.complex_at(f.params[i])
    changed = sr_associated_primes(K_lo) ^ sr_associated_primes(K_hi)
    return min(changed, key=LinearPrime.sort_key, default=None)


def minimal_transversals_exhaustive(supports: Sequence[int], n: int) -> list[int]:
    """Brute-force oracle: scan all 2^n subsets, keep minimal transversals.

    Raises ValueError before the scan when 2^n exceeds MAX_FACES.
    """
    if 1 << n > MAX_FACES:
        raise ValueError(f"2^{n} subsets exceed the budget of {MAX_FACES}")
    hits = [w for w in range(1 << n) if all(s & w for s in supports)]
    return _antichain_min(hits)


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


def admissible_point(LC: LabelledComplex) -> EvaluationPoint:
    """An integer point where no vertex label of the complex vanishes.

    Coordinates are fixed one variable at a time, in table order: each is
    the smallest positive integer that keeps the expansion of every composite
    atom used by a vertex label of the complex a nonzero polynomial in the
    remaining variables.  Only those expansions are searched, as a variable
    atom is nonzero at any positive coordinate.  Setting x = a zeroes a
    nonzero f exactly when (x - a) divides f, so a variable needs at most
    (the sum of those expansions' degrees in it) + 1 tries.  The all-ones
    point comes out whenever it is admissible.
    """
    table = LC.table
    used = {table.atoms[i - 1] for v in LC.complex.vertices() for i in LC.vertex_labels[v - 1].support()}
    atoms = [RingPolynomial(p.nvars, p.terms) for name, p in table.expansions if name in used]
    coords = {}
    for x, name in enumerate(table.variables):
        a = 1
        while not all(f.specialize(x, a) for f in atoms):
            a += 1
        atoms = [f.specialize(x, a) for f in atoms]
        coords[name] = a
    return EvaluationPoint.of(coords)


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


def suite_prime_interval_uniqueness(rng: random.Random, trials: int, nmax: int = 7) -> SuiteResult:
    """Every prime is associated along one contiguous run of steps, and
    those runs are the closed-form bars of ``prime_barcode``."""
    res = SuiteResult("prime interval uniqueness", trials)
    for t in range(trials):
        _, f = _random_vr(rng, nmax)
        for kind in ("SR", "EDGE"):
            ass = [set(a) for a in step_associated_primes(f, kind)]
            try:
                runs = intervals_from_runs(ass, f.params, kind)
            except NoResurrectionError as exc:
                res.note(f"trial {t}: {exc}")
                continue
            if prime_barcode(f, kind).bars != runs:
                res.note(f"trial {t}: {kind} closed-form bars differ from the per-step runs")
    return res


def suite_betti_jump_witness(rng: random.Random, trials: int, nmax: int = 7) -> SuiteResult:
    """Every Betti jump at a critical parameter has a changing prime, the
    one that the per-step route finds."""
    res = SuiteResult("betti jump witness", trials)
    for t in range(trials):
        _, f = _random_vr(rng, nmax)
        profile = betti_profile(f, GF2)
        for i in range(1, len(f.params)):
            if profile.betti[i] == profile.betti[i - 1]:
                continue
            got, want = witness_between_steps(f, i), witness_per_step(f, i)
            if got is None or got != want:
                res.note(f"trial {t}: jump at step {i} of {f.params}: witness {got}, per-step {want}")
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


def _grlex(exps: tuple) -> tuple:
    return (sum(exps), exps)


class RingPolynomial(Polynomial):
    """A :class:`~idealtda.linalg.Polynomial` with the ring operations: the
    polynomial ring over Q of the fraction-free oracle."""

    __slots__ = ()

    @classmethod
    def zero(cls, nvars: int) -> "RingPolynomial":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "RingPolynomial":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "RingPolynomial":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c=1) -> "RingPolynomial":
        return cls(nvars, {tuple(exps): Fraction(c)})

    def _coerce(self, other) -> "RingPolynomial":
        if isinstance(other, RingPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable arity mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return RingPolynomial.const(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = out.get(exps, 0) + c
            if v:
                out[exps] = v
            else:
                out.pop(exps, None)
        return RingPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "RingPolynomial":
        return RingPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RingPolynomial":
        return -(self - other)

    def __mul__(self, other) -> "RingPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return RingPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RingPolynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = RingPolynomial.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def specialize(self, i: int, value) -> "RingPolynomial":
        """Set variable i to a constant; the arity stays the same."""
        out: dict[tuple, Fraction] = {}
        for exps, c in self.terms.items():
            e = exps[:i] + (0,) + exps[i + 1 :]
            out[e] = out.get(e, 0) + c * value ** exps[i]
        return RingPolynomial(self.nvars, out)

    def substitute(self, targets: Sequence["RingPolynomial"], nvars_out: int) -> "RingPolynomial":
        """Ring homomorphism sending variable i to ``targets[i]``."""
        if len(targets) != self.nvars:
            raise ValueError("variable arity mismatch")
        out = RingPolynomial.zero(nvars_out)
        for exps, c in self.terms.items():
            term = RingPolynomial.const(nvars_out, c)
            for t, e in zip(targets, exps):
                if e:
                    term = term * t**e
            out = out + term
        return out

    def exact_div(self, divisor) -> "RingPolynomial":
        """Exact quotient self/divisor by repeated cancellation of the
        graded-lex leading term; raises ValueError if not divisible."""
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        g_exps = max(divisor.terms, key=_grlex)
        g_c = divisor.terms[g_exps]
        rem = dict(self.terms)
        out: dict[tuple, Fraction] = {}
        while rem:
            f_exps = max(rem, key=_grlex)
            q_exps = tuple(a - b for a, b in zip(f_exps, g_exps))
            if any(e < 0 for e in q_exps):
                raise ValueError("inexact polynomial division")
            q_c = rem[f_exps] / g_c
            out[q_exps] = out.get(q_exps, 0) + q_c
            for d_exps, d_c in divisor.terms.items():
                e = tuple(a + b for a, b in zip(q_exps, d_exps))
                v = rem.get(e, 0) - q_c * d_c
                if v:
                    rem[e] = v
                else:
                    rem.pop(e, None)
        return RingPolynomial(self.nvars, out)

    def render(self, names: Sequence[str] | None = None) -> str:
        """Human-readable form, terms in descending graded-lex order."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        pieces = []
        for exps in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[exps]
            body = power_product(names, exps)
            if not body:
                term = str(abs(c))
            elif abs(c) == 1:
                term = body
            else:
                term = f"{abs(c)}*{body}"
            pieces.append(("-" if c < 0 else "+", term))
        first_sign, first_term = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in pieces[1:]:
            text += f" {sign} {term}"
        return text


def _ring_exact_div(num, den):
    return num if den == 1 else num.exact_div(den)  # pivots[0] is 1


def polynomial_bareiss_rank(rows: Sequence[Sequence[RingPolynomial]]) -> int:
    """Rank over the fraction field of the polynomial ring, by the library's
    fraction-free elimination ``linalg._bareiss`` on a copy of the rows,
    every division an exact polynomial division."""
    return _bareiss([list(r) for r in rows], _ring_exact_div)


def atom_polynomials(table: AtomTable) -> list[RingPolynomial]:
    """Each atom as a RingPolynomial over the variable atoms: a variable is
    itself and a composite atom is its expansion."""
    variables = table.variables
    polys = {a: RingPolynomial.variable(len(variables), i) for i, a in enumerate(variables)}
    polys.update((name, RingPolynomial(p.nvars, p.terms)) for name, p in table.expansions)
    return [polys[a] for a in table.atoms]


def polynomial_ranks(LC: LabelledComplex) -> dict[int, int]:
    """Fraction-field ranks the long way: composite atoms are substituted
    by their expansions and each boundary is ranked by fraction-free
    elimination over the polynomial ring."""
    atoms = atom_polynomials(LC.table)
    nvars = len(LC.table.variables)

    @cache
    def expand(sign: int, exps: tuple[int, ...]) -> RingPolynomial:
        return RingPolynomial.monomial(len(atoms), exps, sign).substitute(atoms, nvars)

    zero = RingPolynomial.zero(nvars)
    return {cm.k: polynomial_bareiss_rank(cm.dense(expand, zero)) for cm in boundary_matrices(LC).matrices}


def suite_fraction_field_ranks(
    rng: random.Random, trials: int, nmax: int = 7, tvars: int = 4
) -> SuiteResult:
    """The fraction-field ranks of the similarity equal the ranks at an
    admissible point, the polynomial-ring ranks and the classical ranks."""
    res = SuiteResult("fraction-field rank equality", trials)
    for t in range(trials):
        n = rng.randint(1, nmax)
        reduced = rng.random() < 0.5
        LC = random_monomial_labelled(rng, n, rng.randint(1, tvars), reduced=reduced)
        ff = fraction_field_ranks(LC)
        at_point = evaluate_chain(LC, admissible_point(LC)).ranks()
        poly = polynomial_ranks(LC)
        cl = classical_boundary_ranks(LC.complex, QQ, reduced=reduced)
        if not ff == at_point == poly == cl:
            res.note(f"trial {t}: fraction-field ranks {ff}, at a point {at_point}, polynomial {poly}, classical {cl}")
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


def run_all(seed: int = 0, trials: int = 20, nmax: int = 8) -> list[SuiteResult]:
    """Run every suite with its own derived seed; order is fixed.  Only the
    clique-complement and vertex-cover suites reach ``nmax`` vertices; the
    other seven stop at min(nmax, 7)."""
    nmax_f = min(nmax, 7)
    suites = [
        lambda r: suite_clique_complement_identity(r, trials, nmax),
        lambda r: suite_prime_interval_uniqueness(r, trials, nmax_f),
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
