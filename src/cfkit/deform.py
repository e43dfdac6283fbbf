"""Deformation maps, deformed algebras, and equivalence.

A deformation map ``φ: Q -> R`` is a module homomorphism, stored as a matrix
of ``d``-polynomials.  :func:`_graph` takes the products of the graph
elements ``(φe_i, e_i)`` in the bicrossed product ``E = R ⋈ Q`` once, split
into an R part ``r`` and a Q part ``q``, and both halves of the deformation
statement are read off that one pass: ``φ`` is a deformation map when
``φ(q) = r``, which is when the graph is a subalgebra of ``E`` (after Agore
and Militaru), and ``q`` is the deformed product, whose raw entries only
:func:`deformed_algebra` and the CLI wrap in an algebra.  ``α`` makes two maps
equivalent when it is a morphism between their deformed algebras.  Residuals
are subtracted coordinate by coordinate.  Only
:func:`build_bicrossed` expands the cross actions, once per pair
(``mp.bicrossed``).  Every product here, of graph elements or of morphism
images, is taken by :func:`cfkit.algebra._products`, which rewrites each
element once for all the pairs it enters.  The morphism identity is read off
:func:`_morphism_residuals`, which accepts symbolic matrices, so
``constraints.search_equivalence_diagonal`` compiles it into equations
instead of checking candidates one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import MatchedPair
from .algebra import (
    CheckReport,
    ConformalAlgebra,
    _element,
    _products,
    _violations,
)
from .poly import D, MultiPoly
from .structure import poly_det

Matrix = tuple[tuple[MultiPoly, ...], ...]


def _check_matrix(matrix: Matrix, rows: int, cols: int, what: str) -> None:
    if len(matrix) != rows or any(len(r) != cols for r in matrix):
        raise ValueError(f"{what} matrix must be {rows}x{cols}")
    for row in matrix:
        for entry in row:
            if not entry.variables() <= {D}:
                raise ValueError(f"{what} entry {entry} must be univariate in d")


@dataclass(frozen=True)
class DeformationMap:
    """Module homomorphism Q -> R attached to a matched pair."""

    pair: MatchedPair
    matrix: Matrix  # Q rank rows, R rank columns

    def __post_init__(self):
        _check_matrix(self.matrix, self.pair.Q.rank, self.pair.R.rank, "deformation")


@dataclass(frozen=True)
class Morphism:
    """Module map between algebras of the same kind, matrix over d-polynomials."""

    source: ConformalAlgebra
    target: ConformalAlgebra
    matrix: Matrix  # source rank rows, target rank columns

    def __post_init__(self):
        if self.source.kind != self.target.kind:
            raise ValueError("morphism endpoints must have the same kind")
        _check_matrix(self.matrix, self.source.rank, self.target.rank, "morphism")


def apply_matrix(matrix: Matrix, coords: tuple[MultiPoly, ...]) -> tuple[MultiPoly, ...]:
    cols = len(matrix[0]) if matrix else 0
    out = [MultiPoly.zero()] * cols
    for xi, row in zip(coords, matrix):
        if xi.is_zero:
            continue
        for j, entry in enumerate(row):
            if not entry.is_zero:
                out[j] = out[j] + xi * entry
    return tuple(out)


def _graph(mp: MatchedPair, matrix: Matrix):
    """The products at ``l`` of the graph elements ``(φe_i, e_i)``, ``φ``
    being ``matrix``, taken once by :func:`_products`: the deformed table's
    raw entries ``{(i, j): q}``, ``q`` their nonzero Q parts, and a lazy
    generator of the residuals ``(i, j, φ(q) - r)``, ``r`` their R parts, so
    a caller that reads only the entries forms none.  Ansatz unknowns in a
    symbolic matrix ride along inertly, as every substitution acts on ``d``
    and ``l`` alone; so the entries are not validated here."""
    nr, nq = mp.R.rank, mp.Q.rank
    zero, one = MultiPoly.zero(), MultiPoly.const(1)
    graph = [tuple(row) + (zero,) * i + (one,) + (zero,) * (nq - 1 - i)
             for i, row in enumerate(matrix)]
    products = list(_products(mp.bicrossed, graph))
    entries = {(i, j): q for i, j, p in products if any(q := p[nr:])}
    residuals = (
        (i, j, tuple(a - b for a, b in zip(apply_matrix(matrix, p[nr:]), p[:nr])))
        for i, j, p in products
    )
    return entries, residuals


def _require_pair(mp: MatchedPair, dm: DeformationMap) -> None:
    if dm.pair is not mp and dm.pair != mp:
        raise ValueError("map is attached to a different matched pair")


def check_deformation_map(mp: MatchedPair, dm: DeformationMap) -> CheckReport:
    """The quadratic identity a map must satisfy to twist Q into a complement:
    the graph is closed under the bicrossed product."""
    _require_pair(mp, dm)
    _, residuals = _graph(mp, dm.matrix)
    return CheckReport(_violations("deformation", mp.R.basis, residuals))


def deformed_algebra(mp: MatchedPair, dm: DeformationMap) -> ConformalAlgebra:
    """Q with the product of the graph carried back to it: the entries half
    of :func:`_graph`, whose residuals it never forms.

    Computed unconditionally so that a failing candidate can still be
    inspected; when the map passes its check the output passes the axioms.
    """
    _require_pair(mp, dm)
    table, _ = _graph(mp, dm.matrix)
    return ConformalAlgebra(mp.kind, mp.Q.basis, table)


def _morphism_residuals(
    source: ConformalAlgebra, target: ConformalAlgebra, matrix: Matrix
):
    """Yield ``(i, j, h(e_i e_j) - h(e_i) h(e_j))`` for the map ``h`` given by
    ``matrix``; symbolic entries carrying ansatz unknowns ride along inertly.
    The products ``h(e_i) h(e_j)`` are :func:`_products` of the rows, and
    ``e_i e_j`` is read off the source's stored constants."""
    for i, j, prod in _products(target, matrix):
        lhs = apply_matrix(matrix, _element(source.constants[i].get(j, ()), source.rank))
        yield i, j, tuple(a - b for a, b in zip(lhs, prod))


def check_morphism(h: Morphism) -> CheckReport:
    """A morphism must intertwine the source and target products."""
    return CheckReport(_violations(
        "morphism", h.target.basis, _morphism_residuals(h.source, h.target, h.matrix)
    ))


def _is_invertible(matrix: Matrix) -> bool:
    """Over the d-polynomial ring a matrix is invertible exactly when it is
    square and its determinant is a nonzero constant."""
    if any(len(row) != len(matrix) for row in matrix):
        return False
    return poly_det(matrix).constant_value() not in (None, 0)


def check_equivalence(
    mp: MatchedPair, phi: DeformationMap, psi: DeformationMap, alpha: Morphism
) -> CheckReport:
    """Whether ``alpha`` witnesses equivalence of the two deformation maps.

    ``alpha`` is only required to be a module isomorphism of Q; it witnesses
    the equivalence when it is also a morphism from the algebra deformed by
    ``phi`` to the one deformed by ``psi``.
    """
    _check_matrix(alpha.matrix, mp.Q.rank, mp.Q.rank, "equivalence witness")
    if not _is_invertible(alpha.matrix):
        raise ValueError("equivalence witness must be an invertible module map")
    return CheckReport(_violations("equivalence", mp.Q.basis, _morphism_residuals(
        deformed_algebra(mp, phi), deformed_algebra(mp, psi), alpha.matrix
    )))
