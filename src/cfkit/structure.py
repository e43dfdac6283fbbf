"""Module invariants over the univariate d-polynomial ring.

The ring of polynomials in ``d`` over the rationals is Euclidean, so
submodules of a free module have a unique row-style Hermite normal form:
echelon by pivot column, monic pivots, entries above each pivot reduced to
smaller degree.  Division works on :class:`MultiPoly` values directly, one
leading term at a time, and one row-reduction step serves the echelon pass
and the reduction above each pivot.  Storing that form makes submodule
equality a syntactic comparison, ``==`` on :class:`Submodule`, which the
derived series and solvability verdicts build on.  Generators, like every
element, are coordinate tuples: the rows of that form.  Each term of the
series is spanned by the spectral coefficients of the pairwise products of
the previous term's generators, all taken in one pass of
:func:`cfkit.algebra._products`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ConformalAlgebra, LIE, _products
from .poly import D, L1, MultiPoly

PolyRow = tuple[MultiPoly, ...]
PolyMatrix = tuple[PolyRow, ...]


# -- univariate helpers ------------------------------------------------------


def poly_deg(p: MultiPoly) -> int:
    """Degree in d; -1 for the zero polynomial."""
    if p.is_zero:
        return -1
    if not p.variables() <= {D}:
        raise ValueError(f"expected a polynomial in d only: {p}")
    return p.degree(D)


def poly_divmod(a: MultiPoly, b: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Euclidean division in the d-polynomial ring, one leading term of the
    quotient at a time."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    deg_b = poly_deg(b)
    # Fraction, not the stored int: int / int would give a float
    lead = Fraction(b.leading()[1])
    quot, rem = MultiPoly.zero(), a
    while poly_deg(rem) >= deg_b:
        term = MultiPoly.var(D, poly_deg(rem) - deg_b) * (rem.leading()[1] / lead)
        quot, rem = quot + term, rem - term * b
    return quot, rem


def _reduce(row: list[MultiPoly], by: PolyRow, col: int) -> list[MultiPoly]:
    """``row`` minus the multiple of ``by`` that leaves its ``col`` entry the
    remainder of dividing it by ``by[col]``."""
    if row[col].is_zero:
        return row
    q, _ = poly_divmod(row[col], by[col])
    return row if q.is_zero else [x - q * y for x, y in zip(row, by)]


def poly_det(matrix: PolyMatrix) -> MultiPoly:
    """Determinant by fraction-free (Bareiss) elimination over the d-ring:
    step ``k`` replaces each entry below and right of the pivot by a 2 x 2
    minor divided exactly by the previous pivot, and a row swap flips the
    sign, so the work is cubic in the rank, not factorial."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return MultiPoly.const(1)
    rows = [list(row) for row in matrix]
    sign, prev = 1, MultiPoly.const(1)
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if not rows[r][k].is_zero), None)
        if pivot is None:
            return MultiPoly.zero()
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, n):
                row[j] = row[j] * top[k] - row[k] * top[j]
                if prev != 1:
                    row[j], rem = poly_divmod(row[j], prev)
                    assert rem.is_zero, "a Bareiss step divides exactly"
        prev = top[k]
    return sign * rows[-1][-1]


# -- Hermite normal form -----------------------------------------------------


def hermite_normal_form(matrix: PolyMatrix) -> PolyMatrix:
    """Canonical row form under invertible row operations over the d-ring."""
    rows = [list(r) for r in matrix if any(not e.is_zero for e in r)]
    if not rows:
        return ()
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    pivot = 0
    for col in range(ncols):
        if pivot >= len(rows):
            break
        while True:
            live = [r for r in range(pivot, len(rows)) if not rows[r][col].is_zero]
            if not live:
                break
            best = min(live, key=lambda r: poly_deg(rows[r][col]))
            rows[pivot], rows[best] = rows[best], rows[pivot]
            for r in range(pivot + 1, len(rows)):
                rows[r] = _reduce(rows[r], rows[pivot], col)
            if all(rows[r][col].is_zero for r in range(pivot + 1, len(rows))):
                break
        if rows[pivot][col].is_zero:
            continue
        lead = rows[pivot][col].leading()[1]
        if lead != 1:
            rows[pivot] = [x / lead for x in rows[pivot]]
        for r in range(pivot):
            rows[r] = _reduce(rows[r], rows[pivot], col)
        pivot += 1
    result = [tuple(r) for r in rows[:pivot] if any(not e.is_zero for e in r)]
    return tuple(result)


@dataclass(frozen=True)
class Submodule:
    """Submodule of a free module, stored by its Hermite-normal generators."""

    ambient_rank: int
    generators: PolyMatrix  # already in normal form; () is the zero submodule

    @property
    def is_zero(self) -> bool:
        return not self.generators


def full_submodule(rank: int) -> Submodule:
    one = MultiPoly.const(1)
    zero = MultiPoly.zero()
    rows = tuple(
        tuple(one if j == i else zero for j in range(rank)) for i in range(rank)
    )
    return Submodule(rank, rows)


def span(ambient_rank: int, rows: list[PolyRow]) -> Submodule:
    """Canonical submodule generated by rows of d-polynomial coordinates."""
    for row in rows:
        if len(row) != ambient_rank:
            raise ValueError("vector rank does not match ambient rank")
        for c in row:
            if not c.variables() <= {D}:
                raise ValueError(f"spectral variable leaked into a generator: {c}")
    return Submodule(ambient_rank, hermite_normal_form(tuple(rows)))


def derived_subalgebra(algebra: ConformalAlgebra, sub: Submodule) -> Submodule:
    """Span of all spectral coefficients of products of the generators.

    Sesquilinearity moves d-polynomial coefficients through the product, so
    the spectral coefficients of products of arbitrary submodule elements
    stay inside the span computed from canonical generators alone; the test
    suite asserts this rather than assuming it.  Generators of another
    rank than the algebra's are refused here, where they come in.
    """
    if sub.ambient_rank != algebra.rank:
        raise ValueError("submodule does not live in the algebra's module")
    if any(len(row) != algebra.rank for row in sub.generators):
        raise ValueError("element rank does not match algebra rank")
    rows: list[PolyRow] = []
    for _, _, prod in _products(algebra.table, sub.generators):
        split = [c.coefficient_list(L1) for c in prod]
        depth = max((len(s) for s in split), default=0)
        for t in range(depth):
            row = tuple(s[t] if t < len(s) else MultiPoly.zero() for s in split)
            if any(row):
                rows.append(row)
    return span(algebra.rank, rows)


@dataclass(frozen=True)
class Solvability:
    verdict: str  # "solvable" | "not_solvable" | "unknown"
    depth: int | None = None
    #: the derived series walked, from the full module to the last term
    #: examined; it does not enter the verdict's text or equality
    series: tuple[Submodule, ...] = field(default=(), compare=False, repr=False)

    def __str__(self) -> str:
        if self.verdict == "solvable":
            return f"solvable({self.depth})"
        return self.verdict


def is_solvable(algebra: ConformalAlgebra, max_depth: int = 10) -> Solvability:
    """Iterate the derived series until zero, stabilization, or the cap.

    Descending chains over the d-polynomial ring need not terminate, so a
    series still strictly shrinking at ``max_depth`` is honestly reported
    as unknown.
    """
    if algebra.kind != LIE:
        raise ValueError("solvability applies to Lie kind only")
    if max_depth < 1:
        raise ValueError("max_depth must be positive")
    current = full_submodule(algebra.rank)
    series = [current]
    for depth in range(max_depth + 1):
        if current.is_zero:
            return Solvability("solvable", depth, tuple(series))
        if depth == max_depth:
            break
        nxt = derived_subalgebra(algebra, current)
        if nxt == current:
            return Solvability("not_solvable", series=tuple(series))
        current = nxt
        series.append(current)
    return Solvability("unknown", series=tuple(series))


def is_abelian(algebra: ConformalAlgebra) -> bool:
    return all(
        coeff.is_zero for row in algebra.table for entry in row for coeff in entry
    )
