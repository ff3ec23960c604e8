from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from idealtda.complexes import SimplicialComplex, full_subcomplex
from idealtda.labelled import (
    EvaluationPoint,
    InadmissiblePointError,
    boundary_matrices,
    chain_condition_check,
    classical_betti,
    classical_boundary_ranks,
    diag_relation_check,
    evaluate_chain,
    evaluation_ranks,
    fraction_field_ranks,
    graded_slice,
    local_subcomplex,
    make_labelled,
    slice_iso_check,
)
from idealtda.linalg import QQ, PrimeField
from idealtda.monomials import AtomTable, FactoredElement
from idealtda.verify import random_admissible_point, random_monomial_labelled

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
        assert evaluation_ranks(LC, point, probe_field) == ff


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
    assert str(sl.m_alpha) == "x2*x3*x4"
    assert set(sl.subcomplex.faces()) == {(2,), (3,), (4,), (2, 3)}
    bases = sl.basis_map
    assert [f for f, _ in bases[-1]] == [()]
    assert str(bases[-1][0][1]) == "x2*x3*x4"
    assert [(f, str(c)) for f, c in bases[0]] == [
        ((2,), "x4"),
        ((3,), "x3"),
        ((4,), "x2"),
    ]
    assert [(f, str(c)) for f, c in bases[1]] == [((2, 3), "1")]
    mats = sl.matrix_map
    assert [list(r) for r in mats[1]] == [[1], [-1], [0]]
    assert [list(r) for r in mats[0]] == [[-1, -1, -1]]
    assert slice_iso_check(graded_slice(worked_labelled, (0, 1, 1, 1)))
    assert sl.betti() == {-1: 0, 0: 1, 1: 0}


def test_graded_slice_zero_degree(worked_labelled):
    sl = graded_slice(worked_labelled, (0, 0, 0, 0))
    assert sl.subcomplex.is_empty
    assert sl.basis_map == {-1: (((), FactoredElement.unit(worked_labelled.table)),)}
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
    from idealtda.linalg import Polynomial

    table = AtomTable(
        ("2", "3"),
        (("2", Polynomial.const(0, 2)), ("3", Polynomial.const(0, 3))),
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


@pytest.mark.parametrize("edit", [_flip_sign, _bump_exponent, _drop_nonzero])
@pytest.mark.parametrize("k", [1, 2])
def test_checks_reject_tampered_boundaries(monkeypatch, worked_labelled, edit, k):
    import idealtda.labelled as labelled

    LC = worked_labelled
    assert chain_condition_check(LC) and diag_relation_check(LC)
    bad = _tampered(boundary_matrices(LC), k, 0, edit)
    monkeypatch.setattr(labelled, "boundary_matrices", lambda _: bad)
    assert not diag_relation_check(LC)
    assert not chain_condition_check(LC)
