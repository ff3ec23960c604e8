"""Labelled complexes over factored UFDs and their chain complexes.

Each vertex carries a nonzero factored ring element; a face is labelled
by the lcm of its vertex labels, and the boundary map multiplies each
facet by the exact label quotient:

    d(sigma) = sum_u (-1)^u (m_sigma / m_{sigma\\{i_u}}) sigma\\{i_u},

with u counting the removed vertex's position from 1 (so removing the
smallest vertex carries sign -1, and in reduced mode d({i}) = -m_i * 0).

Every nonzero entry is a signed monomial in the atoms, so each boundary
is stored as sparse columns of (row, sign, exponent vector of
m_sigma / m_tau): the classical columns of ``complexes.boundary_masks``
with the label quotients added, built once per labelled complex.  The
chain and diagonal checks are exponent arithmetic on those entries
(atoms treated as independent symbols, which is exact for these formal
identities; the diagonal and slice checks compare with the columns of
``boundary_masks`` itself); evaluation and graded slices densify the
same columns into the one dense chain record, :class:`EvaluatedChain` (a
:class:`GradedSlice` is one, with its subcomplex and bases added).  An
entry, like a label, is written by ``linalg.power_product`` and
evaluated by ``linalg.power_value``, the one writer and the one
evaluator of an atom monomial;
``_vanishing_vertices`` is the one scan for the vertex labels that
vanish at a point, read by :func:`evaluate_chain` and by the window of
:func:`local_subcomplex`.

The entries make each boundary a diagonal similarity of the classical
one: D_k = L_{k-1}^{-1} d_k L_k, with L_j the diagonal of the j-face
labels.  So the fraction-field rank of D_k is rank_Q d_k, and
:func:`fraction_field_ranks` ranks the signs of the cached columns, which
are d_k (``diag_relation_check`` checks it), by fraction-free
elimination: it searches no point and evaluates no atom.  The route
through an admissible point is ``verify``'s oracle.  No rank is
probabilistic and no entry or variable atom is expanded into a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from operator import add, sub
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import Face, SimplicialComplex, boundary_masks, face_mask, full_subcomplex, mask_face
from .linalg import QQ, bareiss_rank, power_product, power_value, rank_dense
from .monomials import AtomTable, FactoredElement
from .persistence import betti_from_ranks, classical_betti, classical_boundary_ranks

__all__ = [
    "LabelledComplex",
    "ChainMatrix",
    "BoundaryMatrices",
    "EvaluationPoint",
    "EvaluatedChain",
    "InadmissiblePointError",
    "GradedSlice",
    "make_labelled",
    "boundary_matrices",
    "chain_condition_check",
    "diag_relation_check",
    "evaluate_chain",
    "fraction_field_ranks",
    "classical_boundary_ranks",
    "classical_betti",
    "local_subcomplex",
    "graded_slice",
    "slice_iso_check",
]


class InadmissiblePointError(ValueError):
    """Raised when an evaluation point kills some vertex label."""

    def __init__(self, vanishing: list[tuple[int, str]]):
        self.vanishing = vanishing
        detail = ", ".join(f"m_{v} = {label}" for v, label in vanishing)
        super().__init__(f"evaluation point kills vertex labels: {detail}")


@dataclass(frozen=True)
class LabelledComplex:
    """A complex together with one nonzero factored label per vertex."""

    complex: SimplicialComplex
    table: AtomTable
    vertex_labels: tuple[FactoredElement, ...]
    reduced: bool = False

    def __post_init__(self):
        if len(self.vertex_labels) != self.complex.n:
            raise ValueError("need exactly one label per vertex in 1..n")
        for v, label in enumerate(self.vertex_labels, start=1):
            if label is None:
                raise ValueError(f"vertex {v} has a zero label")
            if label.table != self.table:
                raise ValueError(f"label of vertex {v} lives over a different atom table")

    @cached_property
    def face_labels(self) -> dict[int, FactoredElement]:
        """Face mask -> lcm of the vertex labels (the empty face maps to 1)."""
        labels = {0: FactoredElement.unit(self.table)}
        for m in sorted(self.complex.face_masks, key=lambda m: m.bit_count()):
            low = m & -m
            if m == low:
                labels[m] = self.vertex_labels[low.bit_length() - 1]
            else:
                labels[m] = labels[m ^ low].lcm(labels[low])
        return labels

    def label_of(self, face: Iterable[int]) -> FactoredElement:
        return self.face_labels[face_mask(face)]

    def dims(self) -> list[int]:
        out = [-1] if self.reduced else []
        if not self.complex.is_empty:
            out.extend(range(self.complex.max_dim + 1))
        return out

    def ncells(self, k: int) -> int:
        if k == -1:
            return 1 if self.reduced else 0
        return len(self.complex.masks_of_dim(k))

    def restrict(self, W: Iterable[int]) -> "LabelledComplex":
        return LabelledComplex(
            full_subcomplex(self.complex, W), self.table, self.vertex_labels, self.reduced
        )

    @cached_property
    def _boundary(self) -> "BoundaryMatrices":
        """The sparse signed-monomial columns of :func:`boundary_matrices`: those
        of ``boundary_masks`` with the label quotient m_sigma / m_tau on each entry."""
        labels = self.face_labels
        out = []
        for k in range(0 if self.reduced else 1, self.complex.max_dim + 1):
            rows, cols, columns = boundary_masks(self.complex, k)
            below = [labels[m].exps for m in rows]
            entries = tuple(
                tuple((i, sign, tuple(map(sub, top, below[i]))) for i, sign in col)
                for top, col in zip([labels[m].exps for m in cols], columns)
            )
            out.append(ChainMatrix(k, tuple(map(mask_face, rows)), tuple(map(mask_face, cols)), entries))
        return BoundaryMatrices(tuple(out))


def make_labelled(
    K: SimplicialComplex,
    labels: Sequence[FactoredElement],
    reduced: bool = False,
) -> LabelledComplex:
    """Attach vertex labels to a complex and derive all face labels."""
    if not labels:
        raise ValueError("at least one vertex label is required")
    return LabelledComplex(K, labels[0].table, tuple(labels), reduced)


@dataclass(frozen=True)
class ChainMatrix:
    """Matrix of the boundary map in one dimension, canonical bases.

    Rows are the (k-1)-faces, columns the k-faces, both in colex order;
    in reduced degree 0 the single row is the empty face ().  Column j
    lists its nonzeros as (row index, sign, exponent vector of the
    quotient m_sigma / m_tau).
    """

    k: int
    rows: tuple[Face, ...]
    cols: tuple[Face, ...]
    columns: tuple[tuple[tuple[int, int, tuple[int, ...]], ...], ...]

    def dense(self, entry: Callable[[int, tuple[int, ...]], object], zero) -> list[list]:
        """Dense matrix with entry(sign, exps) at each nonzero and zero elsewhere."""
        out = [[zero] * len(self.cols) for _ in self.rows]
        for j, col in enumerate(self.columns):
            for i, sign, exps in col:
                out[i][j] = entry(sign, exps)
        return out

    def render(self, names: Sequence[str]) -> list[list[str]]:
        @cache  # one text per distinct entry, for this call's names only
        def entry(sign: int, exps: tuple[int, ...]) -> str:
            return ("-" if sign < 0 else "") + (power_product(names, exps) or "1")

        return self.dense(entry, "0")


@dataclass(frozen=True)
class BoundaryMatrices:
    matrices: tuple[ChainMatrix, ...]

    def matrix(self, k: int) -> ChainMatrix | None:
        for m in self.matrices:
            if m.k == k:
                return m
        return None


def boundary_matrices(LC: LabelledComplex) -> BoundaryMatrices:
    """All boundary matrices of the labelled chain complex.

    Dimensions run from 1 (or 0 in reduced mode) to the top dimension;
    entries are signed atom-ring monomials m_sigma / m_tau.  Built once
    per labelled complex and cached on it.
    """
    return LC._boundary


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def chain_condition_check(LC: LabelledComplex) -> bool:
    """Verify d_{k-1} o d_k = 0 symbolically in the atom ring."""
    bm = boundary_matrices(LC)
    for upper in bm.matrices:
        lower = bm.matrix(upper.k - 1)
        if lower is None:
            continue
        for col in upper.columns:
            coeffs: dict[tuple[int, tuple[int, ...]], int] = {}
            for t, s1, e1 in col:
                for i, s2, e2 in lower.columns[t]:
                    key = (i, _add(e1, e2))
                    coeffs[key] = coeffs.get(key, 0) + s1 * s2
            if any(coeffs.values()):
                return False
    return True


def diag_relation_check(LC: LabelledComplex) -> bool:
    """Entrywise identity D~_k = diag(1/m_row) D_k diag(m_col) over Frac(R).

    For every entry, D~[t, s] * m_t must equal D[t, s] * m_s, where D is
    the classical signed boundary of ``boundary_masks``: each labelled
    matrix has its bases, and each column the rows and signs of the
    classical column, lowest vertex first; and each quotient exponent
    vector plus that of m_t is the one of m_s.
    """
    labels = LC.face_labels
    for cm in boundary_matrices(LC).matrices:
        rows, cols, classical = boundary_masks(LC.complex, cm.k)
        if (
            cm.rows != tuple(map(mask_face, rows))
            or cm.cols != tuple(map(mask_face, cols))
            or len(cm.columns) != len(cols)
        ):
            return False
        row_labels = [labels[m].exps for m in rows]
        for m, col, want in zip(cols, cm.columns, classical):
            if len(col) != len(want):
                return False
            m_sigma = labels[m].exps
            for (i, sign, exps), (row, s) in zip(col, want):
                if i != row or sign != s or _add(exps, row_labels[i]) != m_sigma:
                    return False
    return True


@dataclass(frozen=True)
class EvaluationPoint:
    """Rational coordinates for the variable atoms of a table.

    Composite atoms evaluate through their polynomial expansions; the
    point is admissible for a labelled complex when no vertex label
    evaluates to zero.
    """

    coords: tuple[tuple[str, Fraction], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, Fraction | int | str]) -> "EvaluationPoint":
        items = tuple(sorted((k, Fraction(v)) for k, v in mapping.items()))
        return cls(items)

    @property
    def coord_map(self) -> dict[str, Fraction]:
        return dict(self.coords)

    def atom_values(self, table: AtomTable) -> list[int | Fraction]:
        """The value of each atom, an int when it is integral: a variable
        takes its coordinate and a composite atom evaluates its expansion."""
        coords = self.coord_map
        missing = [v for v in table.variables if v not in coords]
        if missing:
            raise ValueError(f"missing coordinates for variables: {', '.join(missing)}")
        var_values = [coords[v] for v in table.variables]
        values = coords | {name: poly.evaluate(var_values) for name, poly in table.expansions}
        return [QQ.from_fraction(values[a]) for a in table.atoms]


def _to_field(field, q: Fraction):
    try:
        return field.from_fraction(q)
    except ZeroDivisionError:
        raise ValueError(f"coordinate denominators are not invertible in {field.name}") from None


def _vanishing_vertices(LC: LabelledComplex, vertices: Iterable[int], values: Sequence, field) -> list[int]:
    """The vertices, in the given order, whose label is zero in ``field`` at
    the atom values; a denominator the field cannot invert is a ValueError."""
    labels = LC.vertex_labels
    return [v for v in vertices if not _to_field(field, power_value(values, labels[v - 1].exps))]


@dataclass(frozen=True)
class EvaluatedChain:
    """Dense field matrices of a chain complex: the one dense chain record.

    ``ncells[k]`` counts the k-cells and ``matrices[k]`` is the boundary
    out of them, rows the (k-1)-cells; :func:`evaluate_chain` makes one at
    a point and :func:`graded_slice` one over QQ with entries in {0, +-1}.
    """

    field: object
    ncells: dict[int, int]
    matrices: dict[int, list[list]]

    def ranks(self) -> dict[int, int]:
        out = {}
        for k, mat in self.matrices.items():
            out[k] = rank_dense(mat, self.field) if mat else 0
        return out

    def betti(self) -> dict[int, int]:
        return betti_from_ranks(self.ncells, self.ranks())


def evaluate_chain(LC: LabelledComplex, point: EvaluationPoint, field=QQ) -> EvaluatedChain:
    """Evaluate every boundary entry at an admissible point.

    Admissibility is checked in the target field (a label may evaluate
    nonzero over the rationals yet vanish in a prime field); an
    :class:`InadmissiblePointError` lists the vanishing vertex labels.
    """
    values = point.atom_values(LC.table)
    vanishing = _vanishing_vertices(LC, sorted(LC.complex.vertices()), values, field)
    if vanishing:
        raise InadmissiblePointError([(v, str(LC.vertex_labels[v - 1])) for v in vanishing])
    ncells = {k: LC.ncells(k) for k in LC.dims()}

    @cache
    def entry(sign: int, exps: tuple[int, ...]):
        return _to_field(field, sign * power_value(values, exps))

    matrices = {cm.k: cm.dense(entry, field.zero) for cm in boundary_matrices(LC).matrices}
    return EvaluatedChain(field, ncells, matrices)


def fraction_field_ranks(LC: LabelledComplex) -> dict[int, int]:
    """Rank of every boundary matrix over the fraction field of the ring.

    Every labelled boundary is the similarity D_k = L_{k-1}^{-1} d_k L_k,
    with L_j the diagonal of the j-face labels and d_k the classical
    boundary, so its fraction-field rank is rank_Q d_k, exactly.  The
    signs of the cached columns of :func:`boundary_matrices` are d_k, as
    :func:`diag_relation_check` checks, and ``linalg.bareiss_rank`` ranks
    them on ints.
    """
    return {cm.k: bareiss_rank(cm.dense(lambda s, e: s, 0)) for cm in boundary_matrices(LC).matrices}


def local_subcomplex(
    LC: LabelledComplex,
    point: EvaluationPoint | None = None,
    allowed_atoms: Iterable[str] | None = None,
    field=QQ,
) -> tuple[tuple[int, ...], LabelledComplex]:
    """Vertex window W on which the equivalences hold, plus the restriction.

    Point form: W is the set of vertices whose label survives evaluation
    in the given field.  Atom form: W is the set of vertices whose label
    lies in the multiplicative set generated by the allowed atoms, i.e.
    whose label only uses allowed atoms.
    """
    if (point is None) == (allowed_atoms is None):
        raise ValueError("supply exactly one of point / allowed_atoms")
    vertices = range(1, LC.complex.n + 1)
    if point is not None:
        vanishing = set(_vanishing_vertices(LC, vertices, point.atom_values(LC.table), field))
        W = [v for v in vertices if v not in vanishing]
    else:
        allowed = set(allowed_atoms)
        unknown = allowed - set(LC.table.atoms)
        if unknown:
            raise ValueError(f"unknown atoms: {', '.join(sorted(unknown))}")
        allowed_idx = {LC.table.index(a) + 1 for a in allowed}
        W = [v for v in vertices if set(LC.vertex_labels[v - 1].support()) <= allowed_idx]
    return tuple(W), LC.restrict(W)


@dataclass(frozen=True)
class GradedSlice(EvaluatedChain):
    """Degree-alpha homogeneous part of a reduced labelled chain complex.

    An :class:`EvaluatedChain` over QQ whose k-cells are the basis
    {(m_alpha / m_sigma) sigma} over the k-faces of the divisibility
    subcomplex: ``bases[k]`` lists them as (face, cofactor) pairs, and the
    boundary matrices have int entries in {0, +-1} and agree with the
    classical reduced matrices of that subcomplex.
    """

    subcomplex: SimplicialComplex
    bases: dict[int, tuple[tuple[Face, FactoredElement], ...]]


def _slice_degree(LC: LabelledComplex, alpha: Sequence[int]) -> FactoredElement:
    """x^alpha, once alpha is checked to be a slice degree of ``LC``: a
    reduced complex over variable atoms, one nonnegative entry per atom."""
    if not LC.reduced:
        raise ValueError("graded slices are defined for reduced labelled complexes")
    if not LC.table.is_pure_variables:
        raise ValueError("graded slices need monomial labels over variable atoms only")
    if len(alpha) != len(LC.table.atoms):
        raise ValueError("alpha length must match the number of variables")
    return FactoredElement.from_exponents(LC.table, alpha)


def graded_slice(LC: LabelledComplex, alpha: Sequence[int]) -> GradedSlice:
    """Degree-alpha slice of a monomially labelled reduced complex.

    Requires a pure-variable atom table and a reduced complex; the slice
    is spanned, in each dimension, by the faces whose label divides
    x^alpha, scaled by the cofactor monomial.
    """
    m_alpha = _slice_degree(LC, alpha)
    # a face label divides x^alpha exactly when all its vertex labels do
    window = LC.restrict(
        v for v in range(1, LC.complex.n + 1) if LC.vertex_labels[v - 1].divides(m_alpha)
    )
    labels = window.face_labels
    bases = {}
    for k in window.dims():
        masks = [0] if k == -1 else window.complex.masks_of_dim(k)
        bases[k] = tuple((mask_face(m), m_alpha.over(labels[m])) for m in masks)
    ncells = {k: len(basis) for k, basis in bases.items()}
    matrices = {cm.k: cm.dense(lambda s, e: s, 0) for cm in boundary_matrices(window).matrices}
    return GradedSlice(QQ, ncells, matrices, window.complex, bases)


def slice_iso_check(sl: GradedSlice) -> bool:
    """Verify a slice of :func:`graded_slice` equals the reduced classical
    complex of its divisibility subcomplex, dimension by dimension, on the
    nose: the bases are its faces in colex order, and the matrices are
    filled from the columns of ``boundary_masks``."""
    sub = sl.subcomplex
    for k, basis in sl.bases.items():
        masks = (0,) if k == -1 else sub.masks_of_dim(k)
        if tuple(f for f, _ in basis) != tuple(map(mask_face, masks)):
            return False
    for k in range(sub.max_dim + 1):
        rows, cols, columns = boundary_masks(sub, k)
        classical = [[0] * len(cols) for _ in rows]
        for j, col in enumerate(columns):
            for i, sign in col:
                classical[i][j] = sign
        if sl.matrices.get(k) != classical:
            return False
    return True
