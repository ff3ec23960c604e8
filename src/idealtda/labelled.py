"""Labelled complexes over factored UFDs and their chain complexes.

Each vertex carries a nonzero factored ring element; a face is labelled
by the lcm of its vertex labels, and the boundary map multiplies each
facet by the exact label quotient:

    d(sigma) = sum_u (-1)^u (m_sigma / m_{sigma\\{i_u}}) sigma\\{i_u},

with u counting the removed vertex's position from 1 (so removing the
smallest vertex carries sign -1, and in reduced mode d({i}) = -m_i * 0).

Every nonzero entry is a signed monomial in the atoms, so each boundary
is stored as sparse columns of (row, sign, exponent vector of
m_sigma / m_tau) and built once per labelled complex.  The chain and
diagonal checks are exponent arithmetic on those entries (atoms treated
as independent symbols, which is exact for these formal identities);
evaluation, fraction-field ranks (composite atoms expanded, fraction-free
elimination over the genuine polynomial ring) and graded slices densify
the same columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import Face, SimplicialComplex, _iter_bits, boundary_entries, face_mask, full_subcomplex, mask_face
from .linalg import QQ, Polynomial, bareiss_rank, rank_dense
from .monomials import AtomTable, FactoredElement
from .persistence import _boundary_dense, betti_from_ranks, classical_betti, classical_boundary_ranks

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
    "evaluation_ranks",
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
        """The boundary matrices as sparse signed-monomial columns (see
        :func:`boundary_matrices`); signs follow the lowest-vertex-first order."""
        labels = self.face_labels
        out = []
        for k in range(0 if self.reduced else 1, self.complex.max_dim + 1):
            col_masks = self.complex.masks_of_dim(k)
            if not col_masks:
                continue
            row_masks = [0] if k == 0 else self.complex.masks_of_dim(k - 1)
            row_index = {m: i for i, m in enumerate(row_masks)}
            columns = []
            for cm in col_masks:
                m_sigma = labels[cm].exps
                col = []
                for u, bit in enumerate(_iter_bits(cm), start=1):
                    sub = cm ^ bit
                    quotient = tuple(a - b for a, b in zip(m_sigma, labels[sub].exps))
                    col.append((row_index[sub], -1 if u % 2 else 1, quotient))
                columns.append(tuple(col))
            rows = tuple(mask_face(m) for m in row_masks)
            out.append(ChainMatrix(k, rows, tuple(mask_face(m) for m in col_masks), tuple(columns)))
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
        return self.dense(lambda s, e: Polynomial.monomial(len(e), e, s).render(names), "0")


@dataclass(frozen=True)
class BoundaryMatrices:
    matrices: tuple[ChainMatrix, ...]

    def matrix(self, k: int) -> ChainMatrix | None:
        for m in self.matrices:
            if m.k == k:
                return m
        return None

    def dims(self) -> list[int]:
        return [m.k for m in self.matrices]


def boundary_matrices(LC: LabelledComplex) -> BoundaryMatrices:
    """All boundary matrices of the labelled chain complex.

    Dimensions run from 1 (or 0 in reduced mode) to the top dimension;
    entries are signed atom-ring monomials m_sigma / m_tau.  Built once
    per labelled complex and cached on it.
    """
    return LC._boundary


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


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
    the classical signed boundary matrix built independently: the
    nonzeros sit at the same positions with the same signs, and each
    quotient exponent vector plus that of m_t is the one of m_s.
    """
    bm = boundary_matrices(LC)
    labels = LC.face_labels
    for cm in bm.matrices:
        _, _, classical = boundary_entries(LC.complex, cm.k, reduced=LC.reduced)
        row_labels = [labels[face_mask(tau)].exps for tau in cm.rows]
        nonzeros = set()
        for j, (sigma, col) in enumerate(zip(cm.cols, cm.columns)):
            m_sigma = labels[face_mask(sigma)].exps
            for i, sign, exps in col:
                nonzeros.add((i, j))
                if classical.get((i, j)) != sign or _add(exps, row_labels[i]) != m_sigma:
                    return False
        if nonzeros != classical.keys():
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

    def atom_values(self, table: AtomTable) -> list[Fraction]:
        coords = self.coord_map
        missing = [v for v in table.variables if v not in coords]
        if missing:
            raise ValueError(f"missing coordinates for variables: {', '.join(missing)}")
        var_values = [coords[v] for v in table.variables]
        return [poly.evaluate(var_values) for poly in table.atom_polynomials()]

    def label_value(self, label: FactoredElement) -> Fraction:
        return _monomial_value(self.atom_values(label.table), label.exps)


def _monomial_value(values: Sequence[Fraction], exps: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for v, e in zip(values, exps):
        if e:
            out *= v**e
    return out


def _to_field(field, q: Fraction):
    try:
        return field.from_fraction(q)
    except ZeroDivisionError:
        raise ValueError(f"coordinate denominators are not invertible in {field.name}") from None


@dataclass
class EvaluatedChain:
    """Field matrices of a labelled chain complex at an evaluation point."""

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
    vanishing = []
    for v in sorted(LC.complex.vertices()):
        label = LC.vertex_labels[v - 1]
        if _to_field(field, _monomial_value(values, label.exps)) == field.zero:
            vanishing.append((v, str(label)))
    if vanishing:
        raise InadmissiblePointError(vanishing)
    ncells = {k: LC.ncells(k) for k in LC.dims()}
    matrices = {
        cm.k: cm.dense(lambda s, e: _to_field(field, s * _monomial_value(values, e)), field.zero)
        for cm in boundary_matrices(LC).matrices
    }
    return EvaluatedChain(field, ncells, matrices)


def evaluation_ranks(LC: LabelledComplex, point: EvaluationPoint, field=QQ) -> dict[int, int]:
    """Ranks of the evaluated boundary matrices (probabilistic rank probe)."""
    return evaluate_chain(LC, point, field).ranks()


def fraction_field_ranks(LC: LabelledComplex) -> dict[int, int]:
    """Rank of every boundary matrix over the fraction field of the ring.

    Composite atoms are substituted by their polynomial expansions and the
    rank is computed by exact fraction-free elimination.
    """
    atoms = LC.table.atom_polynomials()
    nvars = len(LC.table.variables)

    @cache
    def expand(sign: int, exps: tuple[int, ...]) -> Polynomial:
        return Polynomial.monomial(len(atoms), exps, sign).substitute(atoms, nvars)

    zero = Polynomial.zero(nvars)
    return {cm.k: bareiss_rank(cm.dense(expand, zero)) for cm in boundary_matrices(LC).matrices}


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
    W = []
    if point is not None:
        for v in range(1, LC.complex.n + 1):
            if _to_field(field, point.label_value(LC.vertex_labels[v - 1])) != field.zero:
                W.append(v)
    else:
        allowed = set(allowed_atoms)
        unknown = allowed - set(LC.table.atoms)
        if unknown:
            raise ValueError(f"unknown atoms: {', '.join(sorted(unknown))}")
        allowed_idx = {LC.table.index(a) + 1 for a in allowed}
        for v in range(1, LC.complex.n + 1):
            if set(LC.vertex_labels[v - 1].support()) <= allowed_idx:
                W.append(v)
    return tuple(W), LC.restrict(W)


@dataclass(frozen=True)
class GradedSlice:
    """Degree-alpha homogeneous part of a reduced labelled chain complex.

    The slice basis in dimension k is {(m_alpha / m_sigma) sigma} over the
    faces of the divisibility subcomplex; its boundary matrices have
    entries in {0, +-1} and agree with the classical reduced matrices of
    that subcomplex.
    """

    alpha: tuple[int, ...]
    m_alpha: FactoredElement
    subcomplex: SimplicialComplex
    bases: tuple[tuple[int, tuple[tuple[Face, FactoredElement], ...]], ...]
    matrices: tuple[tuple[int, tuple[tuple[Fraction, ...], ...]], ...]

    @cached_property
    def basis_map(self) -> dict[int, tuple[tuple[Face, FactoredElement], ...]]:
        return dict(self.bases)

    @cached_property
    def matrix_map(self) -> dict[int, tuple[tuple[Fraction, ...], ...]]:
        return dict(self.matrices)

    def betti(self) -> dict[int, int]:
        ranks = {
            k: rank_dense([list(r) for r in mat], QQ) if mat else 0
            for k, mat in self.matrix_map.items()
        }
        return betti_from_ranks({k: len(basis) for k, basis in self.bases}, ranks)


def graded_slice(LC: LabelledComplex, alpha: Sequence[int]) -> GradedSlice:
    """Degree-alpha slice of a monomially labelled reduced complex.

    Requires a pure-variable atom table and a reduced complex; the slice
    is spanned, in each dimension, by the faces whose label divides
    x^alpha, scaled by the cofactor monomial.
    """
    if not LC.reduced:
        raise ValueError("graded slices are defined for reduced labelled complexes")
    if not LC.table.is_pure_variables:
        raise ValueError("graded slices need monomial labels over variable atoms only")
    if len(alpha) != len(LC.table.atoms):
        raise ValueError("alpha length must match the number of variables")
    m_alpha = FactoredElement.from_exponents(LC.table, alpha)
    # a face label divides x^alpha exactly when all its vertex labels do
    window = LC.restrict(
        v for v in range(1, LC.complex.n + 1) if LC.vertex_labels[v - 1].divides(m_alpha)
    )
    labels = window.face_labels
    bases = []
    for k in window.dims():
        masks = [0] if k == -1 else window.complex.masks_of_dim(k)
        bases.append((k, tuple((mask_face(m), m_alpha.over(labels[m])) for m in masks)))
    matrices = tuple(
        (cm.k, tuple(map(tuple, cm.dense(lambda s, e: Fraction(s), Fraction(0)))))
        for cm in boundary_matrices(window).matrices
    )
    return GradedSlice(tuple(alpha), m_alpha, window.complex, tuple(bases), matrices)


def slice_iso_check(sl: GradedSlice) -> bool:
    """Verify a slice of :func:`graded_slice` equals the reduced classical
    complex of its divisibility subcomplex, dimension by dimension, on the
    nose."""
    sub = sl.subcomplex
    for k, basis in sl.bases:
        if k == -1:
            if [f for f, _ in basis] != [()]:
                return False
            continue
        if [f for f, _ in basis] != sub.faces_of_dim(k):
            return False
    for k in range(sub.max_dim + 1):
        got = sl.matrix_map.get(k)
        if got is None or [list(r) for r in got] != _boundary_dense(sub, k, QQ, True):
            return False
    return True
