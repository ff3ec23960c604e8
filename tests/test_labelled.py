from __future__ import annotations

import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from idealtda import cli, labelled, linalg
from idealtda.complexes import SimplicialComplex, full_subcomplex
from idealtda.labelled import (
    EvaluationPoint,
    InadmissiblePointError,
    LabelledComplex,
    boundary_matrices,
    chain_condition_check,
    classical_betti,
    classical_boundary_ranks,
    diag_relation_check,
    evaluate_chain,
    fraction_field_ranks,
    graded_slice,
    local_subcomplex,
    make_labelled,
    slice_iso_check,
)
from idealtda.linalg import QQ, Polynomial, PrimeField, power_value
from idealtda.monomials import AtomTable, FactoredElement
from idealtda.serialize import labelled_from_dict
from idealtda.verify import (
    RingPolynomial,
    admissible_point,
    atom_polynomials,
    polynomial_ranks,
    random_admissible_point,
    random_complex,
    random_monomial_labelled,
)

X4 = AtomTable.for_variables(4)


def test_face_labels_worked(worked_labelled):
    LC = worked_labelled
    assert str(LC.label_of((1, 2))) == "x1*x2*x3"
    assert str(LC.label_of((2, 3))) == "x2*x3*x4"
    assert str(LC.label_of((1, 2, 3))) == "x1*x2*x3*x4"
    assert str(LC.label_of(())) == "1"
    # divisibility invariant: m_tau | m_sigma for tau <= sigma
    for sigma in LC.complex.faces():
        for v in sigma:
            tau = tuple(w for w in sigma if w != v)
            if tau:
                assert LC.label_of(tau).divides(LC.label_of(sigma))


def test_face_labels_poly(poly_labelled):
    LC = poly_labelled
    assert str(LC.label_of((1, 2))) == "x1*(x1+x2)"
    assert str(LC.label_of((2, 3))) == "x1*x2"
    assert str(LC.label_of((1, 3))) == "x1*x2*(x1+x2)"


def test_unit_labels_recover_classical_complex():
    K = SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True)
    table = AtomTable.for_variables(2)
    LC = make_labelled(K, [FactoredElement.unit(table)] * 3)
    assert all(m.is_unit for m in LC.face_labels.values())
    bm = boundary_matrices(LC)
    d1 = bm.matrix(1)
    assert d1.render(table.atoms) == [
        ["1", "1", "0"],
        ["-1", "0", "1"],
        ["0", "-1", "-1"],
    ]


def test_worked_boundary_matrices_symbol_for_symbol(worked_labelled):
    bm = boundary_matrices(worked_labelled)
    names = worked_labelled.table.atoms
    d1 = bm.matrix(1)
    assert d1.rows == ((1,), (2,), (3,), (4,))
    assert d1.cols == ((1, 2), (1, 3), (2, 3), (1, 4))
    assert d1.render(names) == [
        ["x2*x3", "x2*x4", "0", "x3*x4"],
        ["-x1", "0", "x4", "0"],
        ["0", "-x1", "-x3", "0"],
        ["0", "0", "0", "-x1"],
    ]
    d2 = bm.matrix(2)
    assert d2.cols == ((1, 2, 3),)
    assert [row[0] for row in d2.render(names)] == ["-x4", "x3", "-x1", "0"]
    d0 = bm.matrix(0)
    assert d0.rows == ((),)
    assert d0.render(names) == [["-x1", "-x2*x3", "-x2*x4", "-x3*x4"]]


def test_boundary_quotients_attach_to_remaining_face(poly_labelled):
    # regression: each column coefficient is m_sigma/m_tau for the row face
    # tau, not for the removed vertex; swapping the two entries of an edge
    # column is the characteristic mistake and breaks the diagonal relation
    bm = boundary_matrices(poly_labelled)
    names = poly_labelled.table.atoms
    d1 = bm.matrix(1)
    assert d1.cols == ((1, 2), (1, 3), (2, 3))
    got = d1.render(names)
    assert got == [
        ["x1", "x1*x2", "0"],
        ["-(x1+x2)", "0", "x2"],
        ["0", "-(x1+x2)", "-1"],
    ]
    swapped = [
        ["x1+x2", "x1+x2", "0"],
        ["-x1", "0", "1"],
        ["0", "-x1*x2", "-x2"],
    ]
    assert got != swapped
    assert diag_relation_check(poly_labelled)


def test_chain_condition_and_diag_relation(worked_labelled, poly_labelled):
    assert chain_condition_check(worked_labelled)
    assert chain_condition_check(poly_labelled)
    assert diag_relation_check(worked_labelled)
    rng = random.Random(0)
    for _ in range(10):
        LC = random_monomial_labelled(rng, rng.randint(1, 6), 3, reduced=rng.random() < 0.5)
        assert chain_condition_check(LC)
        assert diag_relation_check(LC)


def test_make_labelled_validation():
    K = SimplicialComplex.from_faces(2, [(1, 2)], close=True)
    table = AtomTable.for_variables(2)
    with pytest.raises(ValueError, match="label"):
        make_labelled(K, [FactoredElement.unit(table)])
    with pytest.raises(ValueError, match="zero label"):
        make_labelled(K, [FactoredElement.unit(table), None])
    other = AtomTable.for_variables(3)
    with pytest.raises(ValueError, match="atom table"):
        make_labelled(K, [FactoredElement.unit(table), FactoredElement.unit(other)])
    with pytest.raises(ValueError):
        make_labelled(K, [])


def test_evaluate_chain_poly_triangle(poly_labelled):
    ev = evaluate_chain(poly_labelled, EvaluationPoint.of({"x1": 1, "x2": 1}))
    assert ev.betti() == {0: 1, 1: 0, 2: 0}
    assert ev.betti() == classical_betti(poly_labelled.complex, QQ)
    # entries evaluate through the expansion of the composite atom
    assert ev.matrices[1][0][0] == Fraction(1)      # x1 at (1,1)
    assert ev.matrices[1][1][0] == Fraction(-2)     # -(x1+x2) at (1,1)


def test_evaluate_chain_inadmissible_lists_vanishing_labels(poly_labelled):
    with pytest.raises(InadmissiblePointError) as err:
        evaluate_chain(poly_labelled, EvaluationPoint.of({"x1": 1, "x2": -1}))
    assert err.value.vanishing == [(1, "(x1+x2)")]


def test_evaluate_chain_unit_labels_is_classical():
    K = SimplicialComplex.from_faces(3, [(1, 2), (2, 3)], close=True)
    table = AtomTable.for_variables(1)
    LC = make_labelled(K, [FactoredElement.unit(table)] * 3)
    ev = evaluate_chain(LC, EvaluationPoint.of({"x1": 7}))
    assert ev.matrices[1] == [
        [Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(1)],
        [Fraction(0), Fraction(-1)],
    ]


def test_evaluation_preserves_betti_random():
    rng = random.Random(1)
    for _ in range(15):
        reduced = rng.random() < 0.5
        LC = random_monomial_labelled(rng, rng.randint(1, 6), 3, reduced=reduced)
        point = random_admissible_point(rng, LC)
        assert evaluate_chain(LC, point).betti() == classical_betti(
            LC.complex, QQ, reduced=reduced
        )


def test_evaluation_point_validation(poly_labelled):
    with pytest.raises(ValueError, match="missing coordinates"):
        evaluate_chain(poly_labelled, EvaluationPoint.of({"x1": 1}))


def test_evaluation_over_prime_field(poly_labelled):
    f5 = PrimeField(5)
    # admissible over Q and over GF(5)
    good = EvaluationPoint.of({"x1": 1, "x2": 1})
    ev = evaluate_chain(poly_labelled, good, f5)
    assert ev.betti() == classical_betti(poly_labelled.complex, f5)
    # x1 + x2 = 5 vanishes mod 5 although it is nonzero over Q
    bad = EvaluationPoint.of({"x1": 2, "x2": 3})
    assert evaluate_chain(poly_labelled, bad, QQ).betti() == {0: 1, 1: 0, 2: 0}
    with pytest.raises(InadmissiblePointError) as err:
        evaluate_chain(poly_labelled, bad, f5)
    assert err.value.vanishing == [(1, "(x1+x2)")]
    # coordinates with denominators divisible by p are not representable
    with pytest.raises(ValueError, match="not invertible"):
        evaluate_chain(poly_labelled, EvaluationPoint.of({"x1": Fraction(1, 5), "x2": 1}), f5)
    # the local window is field-aware: vertex 1 drops out over GF(5) only
    W_q, _ = local_subcomplex(poly_labelled, point=bad)
    W_5, restricted = local_subcomplex(poly_labelled, point=bad, field=f5)
    assert W_q == (1, 2, 3) and W_5 == (2, 3)
    ev = evaluate_chain(restricted, bad, f5)
    assert ev.betti() == classical_betti(restricted.complex, f5)


def test_fraction_field_ranks_worked(worked_labelled):
    ranks = fraction_field_ranks(worked_labelled)
    assert ranks[1] == 3
    assert ranks == classical_boundary_ranks(worked_labelled.complex, QQ, reduced=True)


def test_fraction_field_ranks_poly_and_unit(poly_labelled):
    assert fraction_field_ranks(poly_labelled) == classical_boundary_ranks(
        poly_labelled.complex, QQ
    )
    K = SimplicialComplex.from_faces(3, [(1, 2), (2, 3)], close=True)
    table = AtomTable.for_variables(1)
    LC = make_labelled(K, [FactoredElement.unit(table)] * 3)
    assert fraction_field_ranks(LC) == {1: 2}


def test_fraction_field_ranks_random_and_probe():
    rng = random.Random(2)
    probe_field = PrimeField(1000003)
    for _ in range(12):
        reduced = rng.random() < 0.5
        LC = random_monomial_labelled(rng, rng.randint(1, 6), 3, reduced=reduced)
        ff = fraction_field_ranks(LC)
        assert ff == classical_boundary_ranks(LC.complex, QQ, reduced=reduced)
        point = EvaluationPoint.of(
            {v: rng.randint(1, probe_field.p - 1) for v in LC.table.variables}
        )
        assert evaluate_chain(LC, point, probe_field).ranks() == ff


def _composite_table() -> AtomTable:
    # x1 - x2 and x1*x2 - 1 vanish at the all-ones point, x1 + x2 - 3 at (1, 2)
    x1, x2, x3 = (RingPolynomial.variable(3, i) for i in range(3))
    expansions = {
        "x1-x2": x1 - x2,
        "x1+x2-3": x1 + x2 - 3,
        "x1*x2-1": x1 * x2 - 1,
        "x3^2+x1/2": x3**2 + Fraction(1, 2) * x1,
        "2": RingPolynomial.const(3, 2),
    }
    return AtomTable(("x1", "x2", "x3") + tuple(expansions), tuple(expansions.items()))


def test_fraction_field_ranks_match_polynomial_bareiss_with_composite_atoms():
    rng = random.Random(47)
    table = _composite_table()
    for t in range(30):
        n = rng.randint(1, 5)
        labels = [
            FactoredElement(table, tuple(rng.choice((0, 0, 0, 1, 2)) for _ in table.atoms)) for _ in range(n)
        ]
        reduced = t % 2 == 1
        LC = make_labelled(random_complex(rng, n), labels, reduced=reduced)
        ff = fraction_field_ranks(LC)
        assert ff == polynomial_ranks(LC) == classical_boundary_ranks(LC.complex, QQ, reduced=reduced)


def _rational_table(rng: random.Random) -> AtomTable:
    """Two variables and two composite atoms with rational coefficients."""
    x1, x2 = RingPolynomial.variable(2, 0), RingPolynomial.variable(2, 1)
    expansions = {
        "a": x1 * x1 - x2 + Fraction(rng.randint(1, 5), rng.randint(2, 7)),
        "b": Fraction(rng.randint(-5, 5) or 1, rng.randint(2, 9)) * x1 + x2,
    }
    return AtomTable(("x1", "x2") + tuple(expansions), tuple(expansions.items()))


def _at_admissible_point(LC: LabelledComplex) -> dict[int, int]:
    """The fraction-field ranks by the evaluation oracle."""
    return evaluate_chain(LC, admissible_point(LC)).ranks()


def test_fraction_field_ranks_with_rational_atoms_rank_ints(monkeypatch):
    # the evaluation oracle meets Fraction atom values, and its rank kernel
    # still divides ints only
    calls = []

    def recording_div(num, den):
        calls.append((type(num), type(den)))
        return exact(num, den)

    exact = linalg._int_exact_div
    rng = random.Random(14)
    for t in range(30):
        table = _rational_table(rng)
        n = rng.randint(1, 6)
        labels = [FactoredElement(table, tuple(rng.choice((0, 0, 1, 2)) for _ in table.atoms)) for _ in range(n)]
        reduced = t % 2 == 1
        LC = make_labelled(random_complex(rng, n), labels, reduced=reduced)
        want = polynomial_ranks(LC)
        assert fraction_field_ranks(LC) == want == classical_boundary_ranks(LC.complex, QQ, reduced=reduced)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_int_exact_div", recording_div)
            assert _at_admissible_point(LC) == want
    assert calls and set(calls) == {(int, int)}


def test_fraction_field_ranks_build_no_polynomial_and_evaluate_nothing(monkeypatch):
    # the closed form ranks the signs of the cached boundary: on composite
    # and rational atoms it builds no Polynomial and evaluates no atom
    def refuse(*args, **kwargs):
        raise AssertionError("the fraction-field ranks built or evaluated a polynomial")

    rng = random.Random(31)
    cases = []
    for t in range(40):
        table = _composite_table() if t % 2 else _rational_table(rng)
        n = rng.randint(1, 6)
        labels = [FactoredElement(table, tuple(rng.choice((0, 0, 1, 2)) for _ in table.atoms)) for _ in range(n)]
        K = random_complex(rng, n)
        LC = make_labelled(K, labels, reduced=t % 4 < 2)
        want = polynomial_ranks(LC)
        assert want == classical_boundary_ranks(K, QQ, reduced=LC.reduced)
        cases.append((make_labelled(K, labels, reduced=LC.reduced), want))
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    monkeypatch.setattr(Polynomial, "evaluate", refuse)
    monkeypatch.setattr(EvaluationPoint, "atom_values", refuse)
    for LC, want in cases:
        assert fraction_field_ranks(LC) == want


def _simplex_with_atom(constant, n: int) -> LabelledComplex:
    x1, x2 = RingPolynomial.variable(2, 0), RingPolynomial.variable(2, 1)
    table = AtomTable(("x1", "x2", "a"), (("a", x1 * x1 - x2 + constant),))
    K = SimplicialComplex.from_faces(n, [tuple(range(1, n + 1))], close=True)
    return make_labelled(K, [FactoredElement(table, (v % 3, (v // 3) % 3, v % 2 + 1)) for v in range(1, n + 1)])


def test_fraction_field_ranks_cost_no_more_with_a_rational_coefficient():
    # the evaluation oracle on the 1023-face simplex with a = x1^2 - x2 + c,
    # a(1, 1) = c: ranked on Fractions, c = 1/2 took about 5.5 times as long
    # as c = 1 (0.21 s against 0.038 s); on ints it takes about 1.5 times as
    # long.  Runs alternate, so a slow spell of the machine slows both
    # sides, and each side keeps its fastest of five.
    complexes = {c: _simplex_with_atom(c, 10) for c in (Fraction(1, 2), 1)}
    times = {c: [] for c in complexes}
    ranks = {}
    for _ in range(5):
        for c, LC in complexes.items():
            start = time.perf_counter()
            ranks[c] = _at_admissible_point(LC)
            times[c].append(time.perf_counter() - start)
    assert ranks[Fraction(1, 2)] == ranks[1] == fraction_field_ranks(complexes[1])
    assert min(times[Fraction(1, 2)]) < 3 * min(times[1]), times


def test_admissible_point_skips_vanishing_atoms():
    x1, x2 = RingPolynomial.variable(2, 0), RingPolynomial.variable(2, 1)
    table = AtomTable(("x1", "x2", "x1-x2"), (("x1-x2", x1 - x2),))
    K = SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True)
    labels = [FactoredElement(table, e) for e in ((0, 0, 1), (1, 0, 1), (0, 1, 0))]
    LC = make_labelled(K, labels)
    assert admissible_point(LC).coords == (("x1", Fraction(1)), ("x2", Fraction(2)))
    assert _at_admissible_point(LC) == fraction_field_ranks(LC) == classical_boundary_ranks(K, QQ) == {1: 2, 2: 1}
    # unused atoms do not constrain the point, and all ones comes out when admissible
    assert admissible_point(LC.restrict((2, 3))).coords == (("x1", Fraction(1)), ("x2", Fraction(2)))
    assert admissible_point(LC.restrict((3,))).coords == (("x1", Fraction(1)), ("x2", Fraction(1)))
    table = _composite_table()
    LC = make_labelled(K, [FactoredElement(table, (1,) * len(table.atoms))] * 3)
    assert admissible_point(LC).coords == (
        ("x1", Fraction(1)), ("x2", Fraction(3)), ("x3", Fraction(1))
    )


def test_admissible_point_search_is_bounded():
    # x1 - 1, ..., x1 - 30 over 40 variables: x1 = 31 after 31 tries
    variables = [RingPolynomial.variable(40, i) for i in range(40)]
    roots = {f"x1-{r}": variables[0] - r for r in range(1, 31)}
    table = AtomTable(tuple(f"x{i}" for i in range(1, 41)) + tuple(roots), tuple(roots.items()))
    K = SimplicialComplex.from_faces(30, [(v, v % 30 + 1) for v in range(1, 31)], close=True)
    labels = [FactoredElement.from_support(table, (40 + v,)) for v in range(1, 31)]
    LC = make_labelled(K, labels)
    start = time.perf_counter()
    point = admissible_point(LC)
    ranks = evaluate_chain(LC, point).ranks()
    assert time.perf_counter() - start < 5
    assert point.coord_map["x1"] == 31 and set(point.coord_map.values()) == {1, 31}
    assert ranks == fraction_field_ranks(LC) == classical_boundary_ranks(K, QQ) == {1: 29}


def test_pure_variable_tables_build_no_polynomial(monkeypatch):
    # a variable atom takes its coordinate and is never searched, so neither
    # the labelled path nor the point search of the evaluation oracle builds
    # a Polynomial for a table without composite atoms
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Polynomial was built")

    rng = random.Random(83)
    cases = []
    for t in range(40):
        LC = random_monomial_labelled(rng, rng.randint(1, 6), rng.randint(1, 4), reduced=t % 2 == 1)
        coords = {x: rng.choice((0, 1, -2, Fraction(1, 3))) for x in LC.table.variables}
        cases.append((LC, EvaluationPoint.of(coords)))
    monkeypatch.setattr(Polynomial, "__init__", refuse)
    for LC, window_point in cases:
        K, reduced = LC.complex, LC.reduced
        point = admissible_point(LC)
        assert point.coords == tuple((x, Fraction(1)) for x in LC.table.variables)
        want = classical_boundary_ranks(K, QQ, reduced=reduced)
        assert evaluate_chain(LC, point).ranks() == fraction_field_ranks(LC) == want
        for field in (QQ, PrimeField(5)):
            assert evaluate_chain(LC, point, field).betti() == classical_betti(K, field, reduced=reduced)
        zero = {LC.table.index(x) + 1 for x, c in window_point.coords if c == 0}
        W, restricted = local_subcomplex(LC, point=window_point)
        assert W == tuple(v for v in range(1, K.n + 1) if not zero & set(LC.vertex_labels[v - 1].support()))
        assert restricted.complex == full_subcomplex(K, W)


def _all_atom_point(LC: LabelledComplex) -> EvaluationPoint:
    """The variable-by-variable search over every used atom, variables
    included, each rebuilt as a Polynomial."""
    polys = atom_polynomials(LC.table)
    used = {i for v in LC.complex.vertices() for i in LC.vertex_labels[v - 1].support()}
    atoms = [polys[i - 1] for i in sorted(used)]
    coords = {}
    for x, name in enumerate(LC.table.variables):
        a = 1
        while not all(f.specialize(x, a) for f in atoms):
            a += 1
        atoms = [f.specialize(x, a) for f in atoms]
        coords[name] = a
    return EvaluationPoint.of(coords)


def _mixed_table(rng: random.Random) -> AtomTable:
    # one to three variables and a random set of composite atoms, merged in
    # a random order: some vanish at all ones (x1-x2, x1+x2-2, x1*x2-1,
    # x1-1), some take fractional values (x3^2+x1/2), some are integer primes
    nvars = rng.randint(1, 3)
    x = [RingPolynomial.variable(nvars, i) for i in range(nvars)]
    pool = {"2": RingPolynomial.const(nvars, 2), "3": RingPolynomial.const(nvars, 3), "x1-1": x[0] - 1}
    if nvars >= 2:
        pool.update({"x1-x2": x[0] - x[1], "x1+x2-2": x[0] + x[1] - 2, "x1*x2-1": x[0] * x[1] - 1})
        pool["x2-x1-1"] = x[1] - x[0] - 1
    if nvars >= 3:
        pool["x3^2+x1/2"] = x[2] ** 2 + Fraction(1, 2) * x[0]
    names = rng.sample(sorted(pool), rng.randint(0, len(pool)))
    atoms = [f"x{i}" for i in range(1, nvars + 1)]
    for name in names:
        atoms.insert(rng.randint(0, len(atoms)), name)
    return AtomTable(tuple(atoms), tuple((name, pool[name]) for name in names))


def test_expansion_search_and_values_match_the_all_atom_route():
    rng = random.Random(89)
    moved, kinds = 0, set()
    for _ in range(240):
        table = _mixed_table(rng)
        LC = _random_composite_labelled(rng, table)
        point = admissible_point(LC)
        assert point == _all_atom_point(LC), (table.atoms, LC.vertex_labels)
        moved += any(c != 1 for _, c in point.coords)
        want = classical_boundary_ranks(LC.complex, QQ, reduced=LC.reduced)
        assert evaluate_chain(LC, point).ranks() == fraction_field_ranks(LC) == want
        other = EvaluationPoint.of({x: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for x in table.variables})
        for p in (point, other):
            coords = p.coord_map
            var_values = [coords[x] for x in table.variables]
            want = [QQ.from_fraction(f.evaluate(var_values)) for f in atom_polynomials(table)]
            got = p.atom_values(table)
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
            kinds.update(type(v) for v in got)
        with pytest.raises(ValueError, match="missing coordinates for variables: x1"):
            EvaluationPoint.of({x: 1 for x in table.variables[1:]}).atom_values(table)
    assert moved >= 100 and kinds == {int, Fraction}


def test_local_subcomplex_point_form(poly_labelled):
    W, restricted = local_subcomplex(
        poly_labelled, point=EvaluationPoint.of({"x1": 1, "x2": -1})
    )
    assert W == (2, 3)
    assert restricted.complex == full_subcomplex(poly_labelled.complex, (2, 3))
    # the equivalence holds on the window even though the point is globally bad
    ev = evaluate_chain(restricted, EvaluationPoint.of({"x1": 1, "x2": -1}))
    assert ev.betti() == classical_betti(restricted.complex, QQ)
    # admissible points keep every vertex
    W_all, _ = local_subcomplex(poly_labelled, point=EvaluationPoint.of({"x1": 1, "x2": 1}))
    assert W_all == (1, 2, 3)


def test_local_subcomplex_atom_form(worked_labelled):
    W, restricted = local_subcomplex(worked_labelled, allowed_atoms=("x2", "x3", "x4"))
    assert W == (2, 3, 4)
    assert set(restricted.complex.faces()) == {(2,), (3,), (4,), (2, 3)}
    # the rank equivalence holds on the restriction
    assert fraction_field_ranks(restricted) == classical_boundary_ranks(
        restricted.complex, QQ, reduced=True
    )
    with pytest.raises(ValueError, match="unknown atoms"):
        local_subcomplex(worked_labelled, allowed_atoms=("y",))
    with pytest.raises(ValueError, match="exactly one"):
        local_subcomplex(worked_labelled)
    with pytest.raises(ValueError, match="exactly one"):
        local_subcomplex(
            worked_labelled,
            point=EvaluationPoint.of({}),
            allowed_atoms=("x1",),
        )


def test_graded_slice_worked(worked_labelled):
    sl = graded_slice(worked_labelled, (0, 1, 1, 1))
    assert set(sl.subcomplex.faces()) == {(2,), (3,), (4,), (2, 3)}
    bases = sl.bases
    assert [f for f, _ in bases[-1]] == [()]
    assert str(bases[-1][0][1]) == "x2*x3*x4"
    assert [(f, str(c)) for f, c in bases[0]] == [
        ((2,), "x4"),
        ((3,), "x3"),
        ((4,), "x2"),
    ]
    assert [(f, str(c)) for f, c in bases[1]] == [((2, 3), "1")]
    mats = sl.matrices
    assert mats[1] == [[1], [-1], [0]]
    assert mats[0] == [[-1, -1, -1]]
    assert slice_iso_check(graded_slice(worked_labelled, (0, 1, 1, 1)))
    assert sl.betti() == {-1: 0, 0: 1, 1: 0}


def test_graded_slice_zero_degree(worked_labelled):
    sl = graded_slice(worked_labelled, (0, 0, 0, 0))
    assert sl.subcomplex.is_empty
    assert sl.bases == {-1: (((), FactoredElement.unit(worked_labelled.table)),)}
    assert sl.betti() == {-1: 1}
    assert slice_iso_check(graded_slice(worked_labelled, (0, 0, 0, 0)))


def test_graded_slice_full_degree_recovers_whole_complex(worked_labelled):
    cap = FactoredElement.unit(worked_labelled.table)
    for m in worked_labelled.vertex_labels:
        cap = cap.lcm(m)
    sl = graded_slice(worked_labelled, cap.exps)
    assert sl.subcomplex == worked_labelled.complex
    assert sl.betti() == classical_betti(worked_labelled.complex, QQ, reduced=True)


def test_graded_slice_indicator_labels_select_windows():
    K = SimplicialComplex.from_faces(4, [(1, 2, 3), (3, 4)], close=True)
    table = AtomTable.for_variables(4)
    LC = make_labelled(
        K, [FactoredElement.from_support(table, (v,)) for v in range(1, 5)], reduced=True
    )
    for W in [(1, 2), (2, 3, 4), (1, 2, 3, 4), (4,)]:
        alpha = tuple(1 if v in W else 0 for v in range(1, 5))
        sl = graded_slice(LC, alpha)
        assert sl.subcomplex == full_subcomplex(K, W)
        assert slice_iso_check(graded_slice(LC, alpha))


def test_graded_slice_random_alphas():
    rng = random.Random(3)
    for _ in range(10):
        LC = random_monomial_labelled(rng, rng.randint(1, 6), 3, reduced=True)
        cap = FactoredElement.unit(LC.table)
        for m in LC.vertex_labels:
            cap = cap.lcm(m)
        for _ in range(4):
            alpha = tuple(rng.randint(0, e) for e in cap.exps)
            sl = graded_slice(LC, alpha)
            want = classical_betti(sl.subcomplex, QQ, reduced=True)
            got = sl.betti()
            assert got == {k: want.get(k, 0) for k in got}
            assert slice_iso_check(graded_slice(LC, alpha))


def _perturbed_slices(sl, rng):
    """The slice with one flipped sign, with one dropped nonzero, and with
    one extra zero row, each at a random nonzero of its matrices."""
    nonzeros = [(k, i, j) for k, mat in sl.matrices.items() for i, row in enumerate(mat) for j, v in enumerate(row) if v]
    out = []
    for change in ("flip", "drop", "row"):
        k, i, j = rng.choice(nonzeros)
        mats = {key: [list(row) for row in mat] for key, mat in sl.matrices.items()}
        if change == "row":
            mats[k].append([0] * len(mats[k][0]))
        else:
            mats[k][i][j] = -mats[k][i][j] if change == "flip" else 0
        out.append(dataclasses.replace(sl, matrices=mats))
    return out


def test_slice_iso_check_rejects_perturbed_slices(worked_labelled):
    rng = random.Random(27)
    slices = [graded_slice(worked_labelled, (0, 1, 1, 1))]
    while len(slices) < 40:
        LC = random_monomial_labelled(rng, rng.randint(1, 6), 3, reduced=True)
        cap = FactoredElement.unit(LC.table)
        for m in LC.vertex_labels:
            cap = cap.lcm(m)
        sl = graded_slice(LC, tuple(rng.randint(0, e) for e in cap.exps))
        if not sl.subcomplex.is_empty:
            slices.append(sl)
    for sl in slices:
        assert slice_iso_check(sl)
        for bad in _perturbed_slices(sl, rng):
            assert not slice_iso_check(bad), bad.matrices


def test_graded_slice_preconditions(worked_labelled, poly_labelled):
    unreduced = make_labelled(
        worked_labelled.complex, list(worked_labelled.vertex_labels), reduced=False
    )
    with pytest.raises(ValueError, match="reduced"):
        graded_slice(unreduced, (0, 0, 0, 0))
    poly_reduced = make_labelled(
        poly_labelled.complex, list(poly_labelled.vertex_labels), reduced=True
    )
    with pytest.raises(ValueError, match="variable atoms"):
        graded_slice(poly_reduced, (0, 0, 0))
    with pytest.raises(ValueError, match="alpha length"):
        graded_slice(worked_labelled, (0, 0))


def test_integer_prime_atom_labels():
    # labels drawn from the integers: atoms are the primes 2 and 3
    table = AtomTable(
        ("2", "3"),
        (("2", RingPolynomial.const(0, 2)), ("3", RingPolynomial.const(0, 3))),
    )
    K = SimplicialComplex.from_faces(3, [(1, 2), (2, 3)], close=True)
    labels = [
        FactoredElement(table, (1, 0)),
        FactoredElement(table, (0, 1)),
        FactoredElement(table, (1, 1)),
    ]
    LC = make_labelled(K, labels)
    d1 = boundary_matrices(LC).matrix(1)
    assert d1.render(table.atoms) == [["3", "0"], ["-2", "2"], ["0", "-1"]]
    assert diag_relation_check(LC)
    assert fraction_field_ranks(LC) == classical_boundary_ranks(K, QQ)
    assert evaluate_chain(LC, EvaluationPoint.of({})).betti() == classical_betti(K, QQ)
    W, _ = local_subcomplex(LC, allowed_atoms=("3",))
    assert W == (2,)


def test_equivalences_hold_along_a_labelled_filtration():
    # with step-independent labels, the evaluation and rank equivalences
    # and the slice isomorphism hold at every filtration step
    from idealtda.complexes import vr_filtration
    from idealtda.verify import random_metric

    rng = random.Random(4)
    dist = random_metric(rng, 5)
    f = vr_filtration(dist, max_dim=3)
    table = AtomTable.for_variables(3)
    labels = [
        FactoredElement(table, tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(5)
    ]
    point = EvaluationPoint.of({"x1": 2, "x2": Fraction(1, 3), "x3": -1})
    cap = FactoredElement.unit(table)
    for m in labels:
        cap = cap.lcm(m)
    alpha = tuple(max(e - 1, 0) for e in cap.exps)
    for _, K in f.steps:
        LC = make_labelled(K, labels, reduced=True)
        assert evaluate_chain(LC, point).betti() == classical_betti(K, QQ, reduced=True)
        assert fraction_field_ranks(LC) == classical_boundary_ranks(K, QQ, reduced=True)
        assert slice_iso_check(graded_slice(LC, alpha))


def test_restrict_and_dims(worked_labelled):
    assert worked_labelled.dims() == [-1, 0, 1, 2]
    assert worked_labelled.ncells(-1) == 1
    assert worked_labelled.ncells(1) == 4
    restricted = worked_labelled.restrict((1, 4))
    assert set(restricted.complex.faces()) == {(1,), (4,), (1, 4)}
    assert restricted.reduced


def test_boundary_matrices_built_once(worked_labelled):
    assert boundary_matrices(worked_labelled) is boundary_matrices(worked_labelled)


def _tampered(bm, k, j, edit):
    """Copy of bm with column j of d_k replaced by edit(column)."""
    mats = []
    for cm in bm.matrices:
        if cm.k == k:
            columns = list(cm.columns)
            columns[j] = edit(columns[j])
            cm = dataclasses.replace(cm, columns=tuple(columns))
        mats.append(cm)
    return dataclasses.replace(bm, matrices=tuple(mats))


def _flip_sign(col):
    (i, s, e), *rest = col
    return ((i, -s, e), *rest)


def _bump_exponent(col):
    (i, s, e), *rest = col
    return ((i, s, (e[0] + 1,) + e[1:]), *rest)


def _drop_nonzero(col):
    return col[1:]


def _move_nonzero(col):
    # the first nonzero goes, sign and quotient kept, to the lowest row the column misses
    (i, s, e), *rest = col
    used = {row for row, _, _ in col}
    return ((min(set(range(len(col) + 1)) - used), s, e), *rest)


# k = 0 is the augmentation row of the reduced complex, which has no other
# row to move a nonzero to.  A moved nonzero can keep d o d = 0 in general;
# on this complex both moves break it, as every other edit does.
_TAMPERED = [
    pytest.param(k, edit, id=f"{k}-{edit.__name__}")
    for k in (0, 1, 2)
    for edit in (_flip_sign, _bump_exponent, _drop_nonzero, _move_nonzero)
    if k or edit is not _move_nonzero
]


@pytest.mark.parametrize("k, edit", _TAMPERED)
def test_checks_reject_tampered_boundaries(monkeypatch, worked_labelled, k, edit):
    import idealtda.labelled as labelled

    LC = worked_labelled
    assert chain_condition_check(LC) and diag_relation_check(LC)
    bad = _tampered(boundary_matrices(LC), k, 0, edit)
    monkeypatch.setattr(labelled, "boundary_matrices", lambda _: bad)
    assert not diag_relation_check(LC)
    assert not chain_condition_check(LC)


def _spaced_table() -> AtomTable:
    # composite atoms whose names need parentheses: +, - and a space
    x1, x2 = RingPolynomial.variable(2, 0), RingPolynomial.variable(2, 1)
    expansions = {"x1+x2": x1 + x2, "x1-2": x1 - 2, "a b": x1 * x2 + 1}
    return AtomTable(("x1", "x2") + tuple(expansions), tuple(expansions.items()))


def _random_composite_labelled(rng: random.Random, table: AtomTable) -> LabelledComplex:
    n = rng.randint(1, 6)
    labels = [FactoredElement(table, tuple(rng.choice((0, 0, 0, 1, 2)) for _ in table.atoms)) for _ in range(n)]
    return make_labelled(random_complex(rng, n), labels, reduced=rng.random() < 0.5)


def test_render_matches_the_polynomial_writer():
    rng = random.Random(18)
    for table in (_composite_table(), _spaced_table()):
        names = table.atoms
        for _ in range(25):
            LC = _random_composite_labelled(rng, table)
            for cm in boundary_matrices(LC).matrices:
                got = cm.render(names)
                want = cm.dense(lambda s, e: RingPolynomial.monomial(len(e), e, s).render(names), "0")
                assert got == want


def _uncached_render(cm, names) -> list[list[str]]:
    return cm.dense(lambda s, e: ("-" if s < 0 else "") + (linalg.power_product(names, e) or "1"), "0")


def test_render_memo_lives_one_call(worked_labelled, poly_labelled):
    # the worked fixtures of acceptance test 06, entry for entry
    for LC in (worked_labelled, poly_labelled):
        for cm in boundary_matrices(LC).matrices:
            assert cm.render(LC.table.atoms) == _uncached_render(cm, LC.table.atoms)
    # one matrix, two tuples of atom names: each call writes its own names
    cm = boundary_matrices(worked_labelled).matrix(1)
    names, other = worked_labelled.table.atoms, ("a", "b", "c", "d")
    first, second, again = cm.render(names), cm.render(other), cm.render(names)
    assert second == _uncached_render(cm, other) and second[0][0] == "b*c"
    assert first == again == _uncached_render(cm, names) and first[0][0] == "x2*x3"


def test_ring_and_parsed_expansions_give_one_table_and_one_report(tmp_path, monkeypatch, labelled_to_dict):
    # the same expansions built with the ring and parsed from JSON: equal
    # tables with equal hashes, and byte-identical labelled reports
    rng = random.Random(97)
    tables = [_composite_table(), _spaced_table()] * 2 + [_rational_table(rng) for _ in range(2)]
    for t, built in enumerate(tables):
        table = AtomTable(built.atoms, tuple(sorted(built.expansions)))
        LC = _random_composite_labelled(rng, table)
        data = json.loads(json.dumps(labelled_to_dict(LC)))
        parsed = labelled_from_dict(data, reduced=LC.reduced)
        assert {type(p) for _, p in table.expansions} == {RingPolynomial}
        assert {type(p) for _, p in parsed.table.expansions} == {Polynomial}
        assert parsed.table == table and hash(parsed.table) == hash(table)
        path = tmp_path / f"in{t}.json"
        path.write_text(json.dumps(data))
        # all ones zeroes x1-x2 and x1*x2-1, so a window report comes out too
        point = ",".join(f"{x}={rng.choice(('1', '2', '-1/2')) if t % 2 else '1'}" for x in table.variables)

        def ring_from_dict(data, reduced=False, origin="<input>"):
            LC = labelled_from_dict(data, reduced, origin)
            labels = [FactoredElement(table, m.exps) for m in LC.vertex_labels]
            return make_labelled(LC.complex, labels, reduced=reduced)

        reports = []
        for from_dict in (labelled_from_dict, ring_from_dict):
            monkeypatch.setattr(cli, "labelled_from_dict", from_dict)
            out = tmp_path / f"{from_dict.__name__}{t}"
            assert cli.main(["labelled", "--input", str(path), "--point", point, "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


def _brute_label_status(LC: LabelledComplex, v: int, point: EvaluationPoint, field) -> str:
    """'zero', 'nonzero' or 'error' for the label of v, by expanding it into
    a polynomial over the variables and evaluating that."""
    table = LC.table
    label = RingPolynomial.monomial(len(table.atoms), LC.vertex_labels[v - 1].exps)
    poly = label.substitute(atom_polynomials(table), len(table.variables))
    q = poly.evaluate([point.coord_map[x] for x in table.variables])
    if field == QQ:
        return "zero" if q == 0 else "nonzero"
    if q.denominator % field.p == 0:
        return "error"
    return "zero" if q.numerator % field.p == 0 else "nonzero"


def _expected_scan(statuses: dict[int, str], vertices) -> list[int] | None:
    """The vanishing vertices in order, or None when the scan must raise."""
    if any(statuses[v] == "error" for v in vertices):
        return None
    return [v for v in vertices if statuses[v] == "zero"]


def test_vanishing_scan_and_window_match_brute_force():
    rng = random.Random(180)
    fields = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))
    # 0 and equal coordinates kill x1, x2, x1-x2; 1/2 is not in GF(2)
    values = (0, 1, 2, 3, -1, Fraction(1, 2), Fraction(2, 3))
    seen = {"admissible": 0, "inadmissible": 0, "error": 0}
    for t in range(120):
        table = _composite_table() if t % 2 else _spaced_table()
        LC = _random_composite_labelled(rng, table)
        point = EvaluationPoint.of({x: rng.choice(values) for x in table.variables})
        field = fields[t % len(fields)]
        statuses = {v: _brute_label_status(LC, v, point, field) for v in range(1, LC.complex.n + 1)}
        vertices = sorted(LC.complex.vertices())
        want = _expected_scan(statuses, vertices)
        if want is None:
            seen["error"] += 1
            with pytest.raises(ValueError, match="not invertible"):
                evaluate_chain(LC, point, field)
        elif want:
            seen["inadmissible"] += 1
            with pytest.raises(InadmissiblePointError) as err:
                evaluate_chain(LC, point, field)
            assert err.value.vanishing == [(v, str(LC.vertex_labels[v - 1])) for v in want]
        else:
            seen["admissible"] += 1
            evaluate_chain(LC, point, field)
        # the scan keeps the order it is given
        shuffled = rng.sample(vertices, len(vertices))
        want = _expected_scan(statuses, shuffled)
        if want is None:
            with pytest.raises(ValueError, match="not invertible"):
                labelled._vanishing_vertices(LC, shuffled, point.atom_values(table), field)
        else:
            assert labelled._vanishing_vertices(LC, shuffled, point.atom_values(table), field) == want
        # the window scans every vertex 1..n, in the complex or not
        everyone = range(1, LC.complex.n + 1)
        dead = _expected_scan(statuses, everyone)
        if dead is None:
            with pytest.raises(ValueError, match="not invertible"):
                local_subcomplex(LC, point=point, field=field)
        else:
            W, restricted = local_subcomplex(LC, point=point, field=field)
            assert W == tuple(v for v in everyone if v not in dead)
            assert restricted.complex == full_subcomplex(LC.complex, W)
    assert all(seen.values()), seen


def _entries(matrices):
    return [v for mat in matrices for row in mat for v in row]


def test_integral_points_keep_q_values_ints(poly_labelled, worked_labelled):
    point = EvaluationPoint.of({"x1": 2, "x2": -3})
    assert [type(v) for v in point.atom_values(poly_labelled.table)] == [int, int, int]
    ev = evaluate_chain(poly_labelled, point, QQ)
    assert _entries(ev.matrices.values()) and all(type(v) is int for v in _entries(ev.matrices.values()))
    rng = random.Random(71)
    for t in range(20):
        reduced = t % 2 == 1
        LC = random_monomial_labelled(rng, rng.randint(1, 6), 3, reduced=reduced)
        point = EvaluationPoint.of({v: rng.choice((-3, -1, 1, 2, 5)) for v in LC.table.variables})
        ev = evaluate_chain(LC, point, QQ)
        assert all(type(v) is int for v in _entries(ev.matrices.values()))
        assert ev.betti() == classical_betti(LC.complex, QQ, reduced=reduced)
    for alpha in ((1, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1)):
        sl = graded_slice(worked_labelled, alpha)
        assert all(type(v) is int for v in _entries(sl.matrices.values()))
        assert slice_iso_check(sl)


def test_rational_points_give_fractions_and_the_polynomial_ranks():
    # a p/q coordinate, or the atom x3^2 + x1/2 at an odd x1, gives a
    # Fraction atom value; an entry is a Fraction exactly when its value is
    # not an integer, which needs a Fraction atom value, and the ranks are
    # those of the polynomial oracle
    rng = random.Random(73)
    table = _composite_table()
    kinds = set()
    admissible = 0
    for t in range(60):
        n = rng.randint(1, 5)
        labels = [FactoredElement(table, tuple(rng.choice((0, 0, 0, 1, 2)) for _ in table.atoms)) for _ in range(n)]
        LC = make_labelled(random_complex(rng, n), labels, reduced=t % 2 == 1)
        coords = {x: rng.choice((Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5))), rng.randint(-4, 4))) for x in table.variables}
        point = EvaluationPoint.of(coords)
        try:
            ev = evaluate_chain(LC, point, QQ)
        except InadmissiblePointError:
            continue
        admissible += 1
        values = point.atom_values(table)
        for cm in boundary_matrices(LC).matrices:
            for j, col in enumerate(cm.columns):
                for i, sign, exps in col:
                    used = {type(v) for v, e in zip(values, exps) if e}
                    got = ev.matrices[cm.k][i][j]
                    want = sign * power_value([Fraction(v) for v in values], exps)
                    assert type(got) is (int if want.denominator == 1 else Fraction), (got, used)
                    assert type(got) is int or Fraction in used, (got, used)
                    assert got == want
                    kinds.add(type(got))
        assert ev.ranks() == polynomial_ranks(LC) == fraction_field_ranks(LC)
    assert admissible >= 20 and kinds == {int, Fraction}


def test_integral_products_of_rational_atom_values_are_ints(monkeypatch):
    # x3^2 + x1/2 is 3/2 at x1 = x3 = 1, and times the atom 2 it is 3: that
    # entry is the int 3 in the evaluated matrices and in the rows that the
    # rank kernel scales, and the ranks are the polynomial oracle's
    table = _composite_table()
    half, two = table.atoms.index("x3^2+x1/2"), table.atoms.index("2")

    def label(*idx):
        return FactoredElement(table, tuple(int(a in idx) for a in range(len(table.atoms))))

    K = SimplicialComplex.from_faces(3, [(1, 2, 3)], close=True)
    seen = []

    def spy(rows):
        seen.extend(v for row in rows for v in row)
        return integral_rows(rows)

    integral_rows = linalg._integral_rows
    monkeypatch.setattr(linalg, "_integral_rows", spy)
    for reduced in (False, True):
        LC = make_labelled(K, [label(half, two), label(half), label(0)], reduced=reduced)
        point = EvaluationPoint.of({"x1": 1, "x2": 2, "x3": 1})
        assert point.atom_values(table)[half] == Fraction(3, 2)
        ev = evaluate_chain(LC, point, QQ)
        entries = [v for mat in ev.matrices.values() for row in mat for v in row]
        assert {3, Fraction(3, 2)} <= {abs(v) for v in entries}
        seen.clear()
        assert ev.ranks() == polynomial_ranks(LC) == fraction_field_ranks(LC)
        for v in entries + seen:
            assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), v


def test_prime_field_evaluation_is_the_fraction_route():
    # over GF(p) each entry is the rational value sign * m(a) mapped into
    # the field, whatever type the Q value has on the way
    rng = random.Random(79)
    table = _composite_table()
    checked = 0
    for t in range(60):
        field = PrimeField(rng.choice((3, 5, 7, 1000003)))
        n = rng.randint(1, 5)
        labels = [FactoredElement(table, tuple(rng.choice((0, 0, 0, 1, 2)) for _ in table.atoms)) for _ in range(n)]
        LC = make_labelled(random_complex(rng, n), labels, reduced=t % 2 == 1)
        coords = {x: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 4))) for x in table.variables}
        point = EvaluationPoint.of(coords)
        try:
            ev = evaluate_chain(LC, point, field)
        except InadmissiblePointError:
            continue
        values = [poly.evaluate([coords[x] for x in table.variables]) for poly in atom_polynomials(table)]
        for cm in boundary_matrices(LC).matrices:
            want = [[0] * len(cm.cols) for _ in cm.rows]
            for j, col in enumerate(cm.columns):
                for i, sign, exps in col:
                    q = Fraction(sign)
                    for v, e in zip(values, exps):
                        q *= v**e
                    want[i][j] = q.numerator * pow(q.denominator, -1, field.p) % field.p
            assert ev.matrices[cm.k] == want
            assert all(type(v) is int for row in ev.matrices[cm.k] for v in row)
        assert ev.betti() == classical_betti(LC.complex, field, reduced=LC.reduced)
        checked += 1
    assert checked >= 20
