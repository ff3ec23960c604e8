"""Exact linear algebra kernels.

Everything here is exact: arbitrary-precision rationals, prime fields,
one dense rank kernel and the column reduction used for persistence
pairing.  No floating point enters any rank or homology computation.

A field is a normal form and an inverse.  Its elements are plain Python
numbers that are zero exactly when falsy: ints in 0..p-1 over GF(p), and
ints or Fractions, never floats, over Q, where a value stays an int while
it is integral (``QQ.zero`` is ``0``).  ``norm`` brings the result of
``+``, ``-`` and ``*`` back to an element (``% p`` over GF(p), the identity
over Q); ``inv`` is exact and raises ZeroDivisionError on zero;
``from_fraction`` maps a rational into the field, over Q into that
normal form.

Every dense rank is lazy one-step fraction-free (Bareiss) elimination,
:func:`_bareiss`, given the exact division of its domain.
:func:`bareiss_rank` ranks over Q: rows holding a Fraction are scaled by
the lcm of their denominators and the ints divide exactly as ints.
:func:`rank_dense` is that rank over Q and, over GF(p), divides by
multiplying with an inverse.  A :class:`Polynomial` is a parsed atom
expansion, only read here and evaluated at the point of an evaluation;
the polynomial ring, with the specialization that searches an admissible
point, lives in :mod:`idealtda.verify`, beside the oracles that use it.

:func:`persistence_reduce` pairs a checked face order, a
:class:`~idealtda.complexes.FaceOrder` (a mask sequence is checked as one),
and builds each boundary column from a mask and the order's positions.
Over GF(2) a column is an int bitmask over the positions, reduced with
``^``, dimensions from the top down, skipping every column whose face is
already a pivot row (clearing) and building a column only when its
youngest facet, read from the order's ``lows``, is a pivot row or a later
column adds it.  Other fields reduce signed dict columns, the GF(2) route's
test oracle.  Both return the pairs sorted by death position and the
unpaired positions ascending.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .complexes import FaceOrder, _iter_bits

__all__ = [
    "PrimeField",
    "RationalField",
    "QQ",
    "GF2",
    "parse_field",
    "Polynomial",
    "power_product",
    "power_value",
    "rank_dense",
    "bareiss_rank",
    "persistence_reduce",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Largest prime modulus accepted; primality is checked by trial division,
# about 23k steps at this bound.  The largest modulus in use is 1000003.
MAX_MODULUS = 2**31 - 1


class PrimeField:
    """GF(p); elements are plain ints in 0..p-1."""

    __slots__ = ("p",)
    zero = 0

    def __init__(self, p: int):
        if p > MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds the largest supported modulus {MAX_MODULUS}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def name(self) -> str:
        return "f2" if self.p == 2 else f"fp:{self.p}"

    def norm(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, -1, self.p)

    def from_fraction(self, q: Fraction) -> int:
        return q.numerator * self.inv(q.denominator) % self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class RationalField:
    """Q; elements are ints or Fractions, never floats, so they are exact
    as they stand."""

    zero = 0
    name = "q"

    @staticmethod
    def norm(a):
        return a

    @staticmethod
    def inv(a) -> Fraction:
        return Fraction(1) / a

    @staticmethod
    def from_fraction(q: Fraction) -> int | Fraction:
        """The one normal form of a value: an int when it is integral."""
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()
GF2 = PrimeField(2)


def parse_field(spec: str):
    """Parse a field descriptor: 'q', 'f2', or 'fp:<prime>', the prime in
    ASCII decimal digits only (``int`` would also read ' 7', '+7', '1_000_003'
    and other scripts' digits).  Past its leading zeros, a prime with more
    digits than ``MAX_MODULUS`` is refused by its length, before ``int``,
    which refuses more than 4300 digits."""
    if spec == "q":
        return QQ
    if spec == "f2":
        return GF2
    digits = spec[3:] if spec.startswith("fp:") else ""
    if digits.isascii() and digits.isdigit():
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(MAX_MODULUS)):
            raise ValueError(f"modulus of {len(digits)} digits exceeds the largest supported modulus {MAX_MODULUS}")
        return PrimeField(int(digits))
    raise ValueError(f"unknown field descriptor {spec!r} (expected q, f2 or fp:<p>)")


_OPERATOR_CHARS = frozenset("+-*/^() ")


def power_product(names: Sequence[str], exps: Sequence[int]) -> str:
    """The one writer of an atom monomial, e.g. ``x1*(x1+x2)^2`` ("" for the
    unit); a name containing an operator (``+ - * / ^``), a parenthesis or a
    space is put in parentheses, so ``(a*b)^2`` is not read as ``a*b^2``."""
    factors = []
    for name, e in zip(names, exps):
        if e:
            if not _OPERATOR_CHARS.isdisjoint(name):
                name = f"({name})"
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def power_value(values: Sequence, exps: Sequence[int]):
    """The one evaluator of a monomial: the product of the values to their
    powers, an int when the values are ints."""
    out = 1
    for v, e in zip(values, exps):
        if e:
            out *= v**e
    return out


class Polynomial:
    """A parsed atom expansion: a sparse multivariate polynomial with
    Fraction coefficients, as a dict from exponent tuples (length
    ``nvars``) to nonzero coefficients.  Instances are treated as
    immutable; :class:`idealtda.verify.RingPolynomial` adds the ring."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
                clean[tuple(exps)] = c
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def evaluate(self, values: Sequence) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("variable arity mismatch")
        vals = [Fraction(v) for v in values]
        return sum((c * power_value(vals, exps) for exps, c in self.terms.items()), Fraction(0))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nvars}, {self.terms!r})"


def rank_dense(rows: Sequence[Sequence], field=QQ) -> int:
    """Rank of a dense matrix of field elements: :func:`bareiss_rank` over
    Q, and :func:`_bareiss` on normal forms over GF(p), where the exact
    division multiplies by an inverse."""
    if field == QQ:
        return bareiss_rank(rows)
    norm, inv = field.norm, field.inv
    inverses = {}  # one inverse per pivot: every division is by a pivot

    def div(a, b):
        ib = inverses.get(b)
        if ib is None:
            ib = inverses[b] = inv(b)
        return norm(a * ib)

    return _bareiss([[norm(v) for v in row] for row in rows], div)


def _integral_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Copies of the rational rows as ints: an all-int row as it is, a row
    holding a Fraction scaled by the lcm of its entries' denominators, a
    nonzero constant per row, so the rank is kept."""
    m = []
    for row in rows:
        if Fraction in set(map(type, row)):
            scale = lcm(*(v.denominator for v in row))
            m.append([v.numerator * (scale // v.denominator) for v in row])
        else:
            m.append(list(row))
    return m


def _int_exact_div(num: int, den: int) -> int:
    q = num // den
    if q * den != num:
        raise ValueError("inexact integer division in fraction-free elimination")
    return q


def bareiss_rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of rows of ints and Fractions: :func:`_bareiss` with
    int-only exact division on the :func:`_integral_rows` copies."""
    return _bareiss(_integral_rows(rows), _int_exact_div)


def _bareiss(m: list[list], div) -> int:
    """Rank of the rows ``m``, which it overwrites, by lazy one-step Bareiss.

    Fraction-free one-step Bareiss elimination (Bareiss 1968): ``div(a, b)``
    is the exact quotient a / b in the domain of the entries, and every
    division is by the previous pivot, exact by the Sylvester determinant
    identity.  Each new entry goes through ``div``, at the first step too,
    so over GF(p) every entry stays a normal form, zero exactly when falsy.

    A one-step Bareiss step only rescales a row whose pivot-column entry is
    zero: the row becomes p_t / p_{t-1} times itself.  So each row records
    the step it was last brought to and is left alone until it next has a
    nonzero in the pivot column; then it is brought up to date in one go,
    times P[t] and exactly divided by P[s].  Entries that are zero in both
    rows are skipped.  The entries are the minors of eager Bareiss.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = [1]  # pivots[t]: pivot of step t, counting from 1; pivots[0] = 1
    level = [0] * nr  # the step each row was last brought to
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        level[r], level[piv] = level[piv], level[r]
        prev = pivots[r]
        for i in range(r, nr):
            row = m[i]
            if not row[c]:
                continue
            s = level[i]
            if s < r:  # bring the row up from step s; earlier columns are never read again
                down = pivots[s]
                for j in range(c, nc):
                    if row[j]:
                        row[j] = div(row[j] * prev, down)
            if i == r:
                pivot_row, p = row, row[c]
                continue
            mic = row[c]
            for j in range(c + 1, nc):
                a, b = row[j], pivot_row[j]
                if a or b:
                    row[j] = div(p * a - mic * b, prev)
            level[i] = r + 1
        pivots.append(p)
        r += 1
        if r == nr:
            break
    return r


def _checked(order: FaceOrder | Sequence[int]) -> FaceOrder:
    return order if isinstance(order, FaceOrder) else FaceOrder(order)


def _boundary_columns(order: FaceOrder | Sequence[int]) -> list[dict[int, int]]:
    """Signed boundary columns of face masks listed in filtration order.

    Column j maps the position of each facet of face j to (-1)^u, u
    counting the vertices from 1, lowest first; vertices have empty
    columns.  A mask sequence is checked as a :class:`FaceOrder`."""
    order = _checked(order)
    index = order.index
    return [
        {index[m ^ bit]: (-1) ** u for u, bit in enumerate(_iter_bits(m), start=1)} if m & (m - 1) else {}
        for m in order.faces
    ]


def _reduce_columns(
    columns: Sequence[Mapping[int, object]], field=GF2
) -> tuple[list[tuple[int, int]], list[int]]:
    """Standard column reduction of general sparse columns over a field.

    ``columns[j]`` maps row indices (< j) to nonzero coefficients.  Pairs
    come out sorted by death index, unpaired indices ascending.
    """
    reduced: dict[int, dict[int, object]] = {}
    low_to_col: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    norm = field.norm
    for j, raw in enumerate(columns):
        col: dict[int, object] = {}
        for i, c in raw.items():
            if i >= j:
                raise ValueError(f"column {j} references row {i}: subfaces must precede faces")
            c = norm(c)
            if c:
                col[i] = c
        while col:
            low = max(col)
            k = low_to_col.get(low)
            if k is None:
                break
            other = reduced[k]
            f = norm(col[low] * field.inv(other[low]))
            for i, c in other.items():
                v = norm(col.get(i, 0) - f * c)
                if v:
                    col[i] = v
                else:
                    col.pop(i, None)
        if col:
            reduced[j] = col
            low = max(col)
            low_to_col[low] = j
            pairs.append((low, j))
    killed = {i for i, _ in pairs}
    unpaired = [j for j in range(len(columns)) if j not in reduced and j not in killed]
    return pairs, unpaired


def persistence_reduce(order: FaceOrder | Sequence[int], field=GF2) -> tuple[list[tuple[int, int]], list[int]]:
    """Persistence pairing of face masks listed in filtration order.

    ``order`` is a :class:`FaceOrder` or a mask sequence checked as one.
    Returns (pairs, unpaired): pairs are (birth position, death position)
    sorted by death, unpaired positions are the creators of essential
    classes, ascending.  The pivot pairing of a fixed total order is
    unique, so both routes below agree.

    Over GF(2) column j is an int with bit i set for each facet at
    position i: the pivot is the top bit and adding a column is ``^``.
    Dimensions are reduced from the top down, and a face that is already a
    pivot row is a creator whose reduced column is zero, so its column is
    never built (clearing; Chen-Kerber 2011).  The order's ``lows`` give
    each face's youngest facet, the initial pivot of its column; when that
    row is not yet a pivot the column is already reduced, so it is paired
    at once and stored as the marker ``-1 - j``, and its bitmask is built
    only if a later column must add it (the apparent pairs of Bauer 2021,
    §3.5, found without a separate scan).  Any other column is built when
    its initial pivot turns out to be taken.  Other fields reduce the
    signed dict columns of :func:`_boundary_columns`.
    """
    order = _checked(order)
    if field != GF2:
        return _reduce_columns(_boundary_columns(order), field)
    faces, index, lows = order.faces, order.index, order.lows

    def column(j: int) -> int:
        m = faces[j]
        col = 0
        for bit in _iter_bits(m):
            col |= 1 << index[m ^ bit]
        return col

    pivots: dict[int, int] = {}  # pivot row -> reduced column, or -1 - j if not built yet
    pairs: list[tuple[int, int]] = []
    for dim in sorted(lows, reverse=True):
        for j, low in zip(*lows[dim]):
            if j in pivots:
                continue
            other = pivots.get(low)
            if other is None:
                pivots[low] = -1 - j
                pairs.append((low, j))
                continue
            col = column(j)
            while True:
                if other < 0:
                    other = pivots[low] = column(-1 - other)
                col ^= other
                if not col:
                    break
                low = col.bit_length() - 1
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    pairs.append((low, j))
                    break
    pairs.sort(key=lambda p: p[1])
    deaths = {j for _, j in pairs}
    unpaired = [j for j in range(len(faces)) if j not in pivots and j not in deaths]
    return pairs, unpaired
