from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from idealtda import linalg
from idealtda.complexes import SimplicialComplex, _iter_bits
from idealtda.linalg import (
    GF2,
    MAX_MODULUS,
    QQ,
    Polynomial,
    PrimeField,
    _boundary_columns,
    _reduce_columns,
    bareiss_rank,
    parse_field,
    persistence_reduce,
    power_product,
    rank_dense,
)
from idealtda.persistence import _boundary_dense
from idealtda.verify import RingPolynomial, polynomial_bareiss_rank, random_complex


def test_parse_field():
    assert parse_field("q") is QQ
    assert parse_field("f2") == PrimeField(2)
    assert parse_field("fp:1000003").p == 1000003
    assert parse_field("fp:007").p == 7
    assert parse_field("fp:" + "0" * 4999 + "7").p == 7  # more digits than int() reads, all but one zeros
    for spec in ("f3?", "fp:", "fp:abc", "fp: 7", "fp:7 ", "fp:+7", "fp:-7", "fp:1_000_003", "fp:\u0667", "fp:7.0", "FP:7"):
        with pytest.raises(ValueError, match=r"unknown field descriptor .* \(expected q, f2 or fp:<p>\)$"):
            parse_field(spec)


def test_prime_field_ops():
    f5 = PrimeField(5)
    assert [f5.norm(a) for a in (-7, -1, 0, 4, 5, 13)] == [3, 4, 0, 4, 0, 3]
    assert f5.inv(2) == 3
    assert f5.from_fraction(Fraction(1, 2)) == 3
    assert f5.from_fraction(Fraction(-3, 7)) == 1  # -3 * 7^-1 = 2 * 3 in GF(5)
    for field, zero in ((f5, 0), (f5, 10), (QQ, 0), (QQ, Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            field.inv(zero)
    with pytest.raises(ZeroDivisionError):
        f5.from_fraction(Fraction(1, 10))
    assert QQ.norm(Fraction(2, 3)) == Fraction(2, 3)
    assert QQ.inv(49) == Fraction(1, 49)
    assert QQ.from_fraction(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_fields_expose_only_the_elimination_contract():
    public = {"name", "zero", "norm", "inv", "from_fraction"}
    assert {a for a in dir(PrimeField(5)) if not a.startswith("_")} == public | {"p"}
    assert {a for a in dir(QQ) if not a.startswith("_")} == public


def test_prime_field_refuses_moduli_over_the_bound():
    assert PrimeField(MAX_MODULUS).p == MAX_MODULUS  # 2^31 - 1 is prime
    for p in (MAX_MODULUS + 2, 10000000000000061, 1000000000000000003):
        with pytest.raises(ValueError, match=str(MAX_MODULUS)):
            PrimeField(p)
    with pytest.raises(ValueError, match=str(MAX_MODULUS)):
        parse_field("fp:1000000000000000003")
    # refused by length, before int() reads the digits
    for digits in ("9" * 11, "1" * 4301, "0" * 9 + "1" * 5000):
        with pytest.raises(ValueError, match=rf"^modulus of {len(digits.lstrip('0'))} digits exceeds .* {MAX_MODULUS}$"):
            parse_field("fp:" + digits)


def test_polynomial_basic_arithmetic():
    x = RingPolynomial.variable(2, 0)
    y = RingPolynomial.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p) == RingPolynomial.zero(2)
    assert not (p - p)
    assert (x + 1) ** 2 == x * x + 2 * x + 1


def test_polynomial_arity_mismatch():
    x = RingPolynomial.variable(2, 0)
    z = RingPolynomial.variable(3, 0)
    with pytest.raises(ValueError):
        x + z
    with pytest.raises(ValueError):
        x.evaluate([1])


def test_polynomial_evaluate_fixture():
    # x1 + x2 at (1, 1) is 2
    p = RingPolynomial(2, {(1, 0): 1, (0, 1): 1})
    assert p.evaluate([1, 1]) == 2
    assert (p * RingPolynomial.zero(2)).evaluate([3, 4]) == 0


def test_polynomial_evaluate_is_ring_hom():
    rng = random.Random(7)
    for _ in range(50):
        nv = rng.randint(1, 3)
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(nv))
                terms[e] = terms.get(e, 0) + Fraction(rng.randint(-4, 4))
            return RingPolynomial(nv, terms)
        a, b = rand_poly(), rand_poly()
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nv)]
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_polynomial_substitute():
    x = RingPolynomial.variable(1, 0)
    p = x * x + 1
    # x -> y1 + y2
    target = RingPolynomial(2, {(1, 0): 1, (0, 1): 1})
    q = p.substitute([target], 2)
    y1 = RingPolynomial.variable(2, 0)
    y2 = RingPolynomial.variable(2, 1)
    assert q == (y1 + y2) * (y1 + y2) + 1


def test_polynomial_exact_div():
    x = RingPolynomial.variable(2, 0)
    y = RingPolynomial.variable(2, 1)
    num = (x + y) * (x - y) * (x * y + 3)
    assert num.exact_div(x + y) == (x - y) * (x * y + 3)
    assert RingPolynomial.zero(2).exact_div(x) == RingPolynomial.zero(2)
    with pytest.raises(ValueError):
        (x * x + 1).exact_div(y)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(RingPolynomial.zero(2))


def test_polynomial_render():
    x = RingPolynomial.variable(2, 0)
    y = RingPolynomial.variable(2, 1)
    assert (x * x * y - 1).render() == "x1^2*x2 - 1"
    assert (-x).render(["x1+x2", "y"]) == "-(x1+x2)"
    assert RingPolynomial.zero(2).render() == "0"


def _reduction_rank(m, field):
    # independent oracle: the dict column reduction, with the rows at
    # positions 0..nr-1 and column j at position nr+j; each pair is a pivot
    nr = len(m)
    columns = [{} for _ in range(nr)]
    columns += [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(len(m[0]) if nr else 0)]
    pairs, _ = linalg._reduce_columns(columns, field)
    return len(pairs)


def test_rank_dense_hollow_triangle():
    # columns {1,2},{1,3},{2,3}; rows {1},{2},{3}; signs per boundary rule
    m = [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(-1), Fraction(-1)],
    ]
    assert rank_dense(m, QQ) == 2


def test_rank_zero_matrix():
    assert rank_dense([[Fraction(0)] * 3 for _ in range(2)], QQ) == 0
    assert rank_dense([], QQ) == 0


def test_rank_dense_over_q_is_exact_on_ints():
    # 98 * (1/49) is 1.9999999999999998 in floating point; over Q it is 2
    assert rank_dense([[49, 1], [98, 2]]) == 1
    assert rank_dense([[49, 1], [98, 2]], QQ) == 1
    for a in range(2, 200):
        for k in range(2, 20):
            assert rank_dense([[a, 1], [k * a, k]], QQ) == 1, (a, k)


def test_rank_dense_over_q_matches_bareiss_on_int_matrices():
    # a row [a, 1, ...] and k times it: a float 1/a leaves k - k*a*(1/a) != 0
    # for about one pair (a, k) in twenty
    rng = random.Random(29)
    for _ in range(300):
        a, k = rng.randrange(2, 200), rng.randrange(2, 20)
        top = [a, 1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
        m = [top, [k * x for x in top]]
        m += [[rng.randint(-9, 9) for _ in top] for _ in range(rng.randint(0, 2))]
        rng.shuffle(m)
        assert rank_dense(m, QQ) == bareiss_rank(m) == _reduction_rank(m, QQ), m


def test_rank_dense_normalises_gf_p_pivots():
    # 5 is 0 in GF(5): not a pivot
    assert rank_dense([[5, 1]], PrimeField(5)) == 1
    rng = random.Random(31)
    for _ in range(200):
        field = PrimeField(rng.choice([2, 3, 5, 7]))
        cols = rng.randint(1, 5)
        m = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rng.randint(1, 5))]
        assert rank_dense(m, field) == rank_dense([[field.norm(v) for v in row] for row in m], field), m


class _CountingField(PrimeField):
    """GF(p) that counts its inverses."""

    def __init__(self, p: int):
        super().__init__(p)
        self.inverses = 0

    def inv(self, a: int) -> int:
        self.inverses += 1
        return super().inv(a)


def test_rank_dense_inverts_each_pivot_once_over_gf_p():
    # the classical boundaries of the 511-face simplex: 255 pivots, and once
    # 32840 inverses, one per updated entry
    K = SimplicialComplex.from_faces(9, [tuple(range(1, 10))], close=True)
    field = _CountingField(1000003)
    for k in range(1, K.max_dim + 1):
        m = _boundary_dense(K, k, field)
        field.inverses = 0
        rank = rank_dense(m, field)
        assert rank == rank_dense(_boundary_dense(K, k, QQ), QQ)
        assert field.inverses <= rank + 1, (k, rank, field.inverses)
    rng = random.Random(14)
    for _ in range(100):
        field = _CountingField(rng.choice([3, 7, 1000003]))
        cols = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rng.randint(1, 6))]
        rank = rank_dense(m, field)
        assert field.inverses <= rank + 1
        assert rank == rank_dense(m, PrimeField(field.p))


def test_rank_agreement_large_prime_vs_rationals():
    rng = random.Random(3)
    big = PrimeField(1000003)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.choice([-1, 0, 1]) for _ in range(cols)] for _ in range(rows)]
        rq = rank_dense([[Fraction(v) for v in row] for row in m], QQ)
        rp = rank_dense([[big.norm(v) for v in row] for row in m], big)
        assert rq == rp == _reduction_rank(m, QQ) == _reduction_rank(m, big)


def test_rank_dense_over_q_scales_rows_with_mixed_denominators():
    # a row is scaled to ints by the lcm of its denominators; truncating
    # the entries instead loses the rank
    assert rank_dense([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]], QQ) == 1
    rng = random.Random(47)
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6 else 0 for _ in range(nc)]
            for _ in range(nr)
        ]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(m), rng.choice(m)
            s, t = Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(1, 5), rng.randint(1, 7))
            m.append([s * x + t * y for x, y in zip(a, b)])
        rng.shuffle(m)
        assert rank_dense(m, QQ) == _reduction_rank(m, QQ), m


def test_rank_dense_over_gf_p_on_sparse_stale_rows():
    # entries are not normal forms, pivots are not 1, and a product of two
    # entries can be a nonzero multiple of p, so every new entry must be
    # reduced, at the first step too: 2*3 - 1*1 = 5 is 0 in GF(5)
    assert rank_dense([[2, 1], [1, 3]], PrimeField(5)) == 1
    rng = random.Random(53)
    for _ in range(400):
        field = PrimeField(rng.choice([2, 3, 5, 7, 11]))
        nr, nc = rng.randint(2, 8), rng.randint(2, 8)
        density = rng.uniform(0.2, 0.7)
        m = [[rng.randint(-20, 20) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(m, 2)
            s, t = rng.randint(-9, 9), rng.randint(-9, 9)
            m.append([s * x + t * y for x, y in zip(a, b)])
        m.sort(key=lambda row: next((j for j, x in enumerate(row) if field.norm(x)), nc))
        assert rank_dense(m, field) == _reduction_rank(m, field), (field, m)


def test_bareiss_rank_polynomial_fixture():
    # the 4x4 labelled boundary matrix of the worked 4-vertex example
    def mono(*exps):
        return RingPolynomial.monomial(4, exps)

    zero = RingPolynomial.zero(4)
    m = [
        [mono(0, 1, 1, 0), mono(0, 1, 0, 1), zero, mono(0, 0, 1, 1)],
        [-mono(1, 0, 0, 0), zero, mono(0, 0, 0, 1), zero],
        [zero, -mono(1, 0, 0, 0), -mono(0, 0, 1, 0), zero],
        [zero, zero, zero, -mono(1, 0, 0, 0)],
    ]
    assert polynomial_bareiss_rank(m) == 3


def test_bareiss_rank_diagonal_and_ints():
    d = [
        [RingPolynomial.monomial(2, (1, 0)), RingPolynomial.zero(2)],
        [RingPolynomial.zero(2), RingPolynomial.monomial(2, (0, 3))],
    ]
    assert polynomial_bareiss_rank(d) == 2
    assert bareiss_rank([[2, 4], [1, 2]]) == 1
    assert bareiss_rank([[2, 4], [1, 3]]) == 2


def test_bareiss_agrees_with_field_rank_on_constant_matrices():
    rng = random.Random(17)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert bareiss_rank(m) == _reduction_rank([[Fraction(v) for v in r] for r in m], QQ)


def test_bareiss_matches_classical_rank_on_diag_conjugates():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        sign = [[rng.choice([-1, 0, 1]) for _ in range(n)] for _ in range(n)]
        left = [RingPolynomial.monomial(3, tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(n)]
        right = [RingPolynomial.monomial(3, tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(n)]
        conj = [
            [left[i] * right[j] * sign[i][j] for j in range(n)]
            for i in range(n)
        ]
        classical = _reduction_rank([[Fraction(v) for v in row] for row in sign], QQ)
        assert polynomial_bareiss_rank(conj) == classical


def test_bareiss_rank_matches_rank_over_q_on_sparse_stale_rows():
    # rows sorted by their leading zeros: the lower rows sit out several
    # pivot steps before they are used, and the pivots are not units, so a
    # row that is skipped without its rescaling breaks an exact division
    rng = random.Random(41)
    entries = [-7, -5, -3, -2, 2, 3, 5, 7]
    for _ in range(400):
        nr, nc = rng.randint(2, 8), rng.randint(2, 8)
        density = rng.uniform(0.2, 0.6)
        m = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(nc)] for _ in range(nr)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(m, 2)
            s, t = rng.choice(entries), rng.choice(entries)
            m.append([s * x + t * y for x, y in zip(a, b)])
        m.sort(key=lambda row: next((j for j, x in enumerate(row) if x), nc))
        assert bareiss_rank(m) == rank_dense(m, QQ) == _reduction_rank(m, QQ), m


def test_bareiss_rank_on_polynomial_diag_conjugates_of_boundaries():
    # L d R with polynomial diagonals L, R keeps the rank of the boundary d
    rng = random.Random(43)
    x, y = RingPolynomial.variable(2, 0), RingPolynomial.variable(2, 1)
    factors = [x, y, x + y, x - y + 1, 2 * x * y + 3, RingPolynomial.const(2, 5)]
    for _ in range(30):
        K = random_complex(rng, rng.randint(3, 6))
        for k in range(1, K.max_dim + 1):
            d = _boundary_dense(K, k, QQ)
            left = [rng.choice(factors) ** rng.randint(0, 2) for _ in d]
            right = [rng.choice(factors) ** rng.randint(0, 2) for _ in d[0]]
            conj = [[left[i] * right[j] * d[i][j] for j in range(len(d[0]))] for i in range(len(d))]
            assert polynomial_bareiss_rank(conj) == _reduction_rank(d, QQ), (K, k)


def test_bareiss_rank_fuzz_known_rank_products():
    # A = B*C with inner dimension r has rank <= r; at random evaluation
    # points the rank can only drop, so equality with the evaluated rank
    # certifies both. Rank-deficient inputs force pivot-column skips.
    rng = random.Random(23)
    big = PrimeField(1000003)
    for _ in range(25):
        m, r, n = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)

        def rand_entry():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                e = tuple(rng.randint(0, 2) for _ in range(2))
                terms[e] = terms.get(e, 0) + Fraction(rng.randint(-3, 3))
            return RingPolynomial(2, terms)

        B = [[rand_entry() for _ in range(r)] for _ in range(m)]
        C = [[rand_entry() for _ in range(n)] for _ in range(r)]
        A = [
            [sum((B[i][t] * C[t][j] for t in range(r)), RingPolynomial.zero(2)) for j in range(n)]
            for i in range(m)
        ]
        rank = polynomial_bareiss_rank(A)
        assert rank <= r
        point = [rng.randint(1, big.p - 1) for _ in range(2)]
        evaluated = [
            [big.from_fraction(A[i][j].evaluate(point)) for j in range(n)] for i in range(m)
        ]
        assert rank >= rank_dense(evaluated, big)


def test_persistence_reduce_empty_and_fixture():
    assert persistence_reduce([], GF2) == ([], [])
    # three vertices, then edges {1,2},{1,3}: pairs kill two components
    pairs, unpaired = persistence_reduce([0b001, 0b010, 0b100, 0b011, 0b101], GF2)
    assert pairs == [(1, 3), (2, 4)]
    assert unpaired == [0]


def test_persistence_reduce_rejects_bad_order():
    with pytest.raises(ValueError):
        persistence_reduce([0b011, 0b001, 0b010], GF2)  # an edge before its vertices
    with pytest.raises(ValueError):
        persistence_reduce([0b001, 0b011], GF2)  # vertex 2 is missing


def test_persistence_reduce_rejects_bad_order_over_other_fields():
    for field in (QQ, PrimeField(5)):
        with pytest.raises(ValueError):
            persistence_reduce([0b011, 0b001, 0b010], field)
        with pytest.raises(ValueError):
            persistence_reduce([0b001, 0b011], field)


@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
def test_persistence_reduce_rejects_repeated_and_empty_faces(field):
    with pytest.raises(ValueError, match="face 3 repeats face 2"):
        persistence_reduce([0b01, 0b10, 0b11, 0b11], field)
    with pytest.raises(ValueError, match="face 1 repeats face 0"):
        persistence_reduce([0b01, 0b01], field)
    with pytest.raises(ValueError, match="face 0 is the empty face"):
        persistence_reduce([0, 0b01], field)
    with pytest.raises(ValueError, match="face 1 is the empty face"):
        persistence_reduce([0b01, 0], field)


@pytest.mark.parametrize("field", [GF2, QQ, PrimeField(5)], ids=["f2", "q", "f5"])
def test_persistence_reduce_rejects_negative_masks(field):
    # -2 has one set bit as a count but infinitely many as a walk
    with pytest.raises(ValueError, match="^face 1 is the negative mask -2$"):
        persistence_reduce([0b01, -2], field)
    with pytest.raises(ValueError, match="^face 2 is the negative mask -4$"):
        persistence_reduce([0b01, 0b10, -4, 0b11], field)


def test_persistence_reduce_builds_a_column_only_when_it_is_added(monkeypatch):
    # the order check (the walk of FaceOrder, in complexes) finds each
    # face's youngest facet; a column whose youngest facet is not yet a
    # pivot row is paired without being built, and a creator, already a
    # pivot row when its dimension is reduced, is never built (clearing);
    # only building a column reads its face's bits in linalg
    reads = Counter()

    def counting_iter_bits(mask):
        reads[mask] += 1
        return _iter_bits(mask)

    monkeypatch.setattr(linalg, "_iter_bits", counting_iter_bits)
    # the 4-simplex in (dimension, colex) order: every pair is apparent
    order = sorted(range(1, 1 << 5), key=lambda m: (m.bit_count(), m))
    want = _reduce_columns(_boundary_columns(order), GF2)
    reads.clear()
    pairs, unpaired = persistence_reduce(order, GF2)
    assert (pairs, unpaired) == want
    assert unpaired == [0] and len(pairs) == 15
    assert reads == Counter()
    # four vertices and the edges 12, 13, 23, 14, 24: 12 and 13 pair at once
    # with vertices 2 and 3; 23 finds vertex 3 taken, so its column is built
    # and so are both lazy ones, which it adds; 24 adds 14, then 12 again,
    # whose column is built only once
    order = [0b0001, 0b0010, 0b0100, 0b1000, 0b0011, 0b0101, 0b0110, 0b1001, 0b1010]
    want = _reduce_columns(_boundary_columns(order), GF2)
    reads.clear()
    pairs, unpaired = persistence_reduce(order, GF2)
    assert (pairs, unpaired) == want == ([(1, 4), (2, 5), (3, 7)], [0, 6, 8])
    assert reads == Counter({m: 1 for m in order[4:]})


def test_persistence_reduce_tie_shuffle_invariance():
    # bars are stable under reordering simplices within a (birth, dim) class
    from idealtda.complexes import vr_filtration
    from idealtda.persistence import ph_barcode

    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(3, 5)
        dist = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = rng.choice([1.0, 1.5, 2.0])
                dist[i][j] = dist[j][i] = d
        f = vr_filtration(dist)
        births = f.birth_map
        base = ph_barcode(f)

        order = sorted(births, key=lambda m: (births[m], m.bit_count(), m))
        classes: dict[tuple, list[int]] = {}
        for m in order:
            classes.setdefault((births[m], m.bit_count()), []).append(m)
        shuffled: list[int] = []
        for key in sorted(classes):
            group = classes[key][:]
            rng.shuffle(group)
            shuffled.extend(group)
        pairs, unpaired = persistence_reduce(shuffled, GF2)
        bars: dict[int, list] = {}
        for i, j in pairs:
            dim = shuffled[i].bit_count() - 1
            b, d = births[shuffled[i]], births[shuffled[j]]
            if b != d:
                bars.setdefault(dim, []).append((b, d))
        for i in unpaired:
            bars.setdefault(shuffled[i].bit_count() - 1, []).append((births[shuffled[i]], None))
        got = {
            dim: sorted(v, key=lambda bd: (bd[0], bd[1] is None, bd[1] or 0.0))
            for dim, v in bars.items()
        }
        want: dict[int, list] = {}
        for dim, b, d in base.bars:
            want.setdefault(dim, []).append((b, d))
        assert got == {dim: sorted(v, key=lambda bd: (bd[0], bd[1] is None, bd[1] or 0.0)) for dim, v in want.items()}


def test_polynomial_evaluate_matches_the_term_loop():
    rng = random.Random(18)
    for _ in range(200):
        nvars = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(nvars)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(0, 5))
        }
        poly = Polynomial(nvars, terms)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nvars)]
        want = Fraction(0)
        for exps, c in poly.terms.items():
            term = c
            for v, e in zip(point, exps):
                if e:
                    term *= v**e
            want += term
        assert poly.evaluate(point) == want


def test_power_product_parenthesizes_names_with_operators():
    names = ("x1", "x1+x2", "y-1", "a b", "a*b", "x^2", "p/q", "f(x)", "x_1.5")
    for name in names:
        want = name if name in ("x1", "x_1.5") else f"({name})"
        assert power_product((name,), (1,)) == want
        assert power_product((name,), (3,)) == f"{want}^3"
    assert power_product(("a*b", "x^2"), (2, 0)) == "(a*b)^2"
    assert power_product(("a*b", "x^2", "z"), (1, 2, 1)) == "(a*b)*(x^2)^2*z"
    assert power_product(("a*b", "x^2"), (0, 0)) == ""


def test_rank_dense_over_q_agrees_on_int_fraction_typed_and_mixed_matrices():
    # one int matrix three ways: as ints, as Fraction-typed integers, and
    # with row i times r_i and column j times c_j (nonzero rationals), so
    # rows mix denominators while the rank stays the same
    rng = random.Random(61)
    scales = (1, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(7, 9))
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        ints = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(nc)] for _ in range(nr)]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.choice(ints), rng.choice(ints)
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            ints.append([s * x + t * y for x, y in zip(a, b)])
        rng.shuffle(ints)
        typed = [[Fraction(v) for v in row] for row in ints]
        cols = [rng.choice(scales) for _ in range(nc)]
        mixed = []
        for row in ints:
            r = rng.choice(scales)
            mixed.append([v * r * c for v, c in zip(row, cols)])
        before = [list(row) for row in mixed]
        want = _reduction_rank(ints, QQ)
        for m in (ints, typed, mixed):
            assert rank_dense(m, QQ) == bareiss_rank(m) == _reduction_rank(m, QQ) == want, m
        assert mixed == before  # the ranks work on copies


def test_int_exact_division_is_exact_and_ranks_over_q_use_only_ints(monkeypatch):
    assert linalg._int_exact_div(-12, 4) == -3
    assert linalg._int_exact_div(0, -7) == 0
    for num, den in ((7, 2), (-7, 2), (7, -2), (1, 3)):
        with pytest.raises(ValueError, match="inexact integer division"):
            linalg._int_exact_div(num, den)
    with pytest.raises(ZeroDivisionError):
        linalg._int_exact_div(1, 0)
    calls = []

    def recording_div(num, den):
        calls.append((type(num), type(den)))
        return exact(num, den)

    exact = linalg._int_exact_div
    monkeypatch.setattr(linalg, "_int_exact_div", recording_div)
    rng = random.Random(67)
    for _ in range(100):
        nr, nc = rng.randint(2, 6), rng.randint(2, 6)
        m = [[rng.choice((0, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))) for _ in range(nc)] for _ in range(nr)]
        assert rank_dense(m, QQ) == _reduction_rank(m, QQ), m
    assert calls and set(calls) == {(int, int)}
