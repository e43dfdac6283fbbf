"""Module invariants over the univariate d-polynomial ring.

The ring of polynomials in ``d`` over the rationals is Euclidean, so
submodules of a free module have a unique row-style Hermite normal form:
echelon by pivot column, monic pivots, entries above each pivot reduced to
smaller degree.  Division works on :class:`MultiPoly` values directly, one
leading term at a time.  The form is built one row at a time (after Kannan
and Bachem): each row read is reduced against the pivots found so far and,
where a remainder is left, swaps with that pivot, as in Euclid's algorithm;
pivots are made monic and the entries above them reduced once, at the end.
Once every column has a constant pivot the span is the full module, and no
further row is read.  Storing that form makes submodule equality a
syntactic comparison, ``==`` on :class:`Submodule`, and a submodule's rank
its number of generators.  Generators, like every element, are coordinate
tuples: the rows of that form.  Each term of the derived series is spanned
by the spectral coefficients of the pairwise products of the previous
term's generators, taken lazily from one pass of
:func:`cfkit.algebra._products`, so no product past the full module is
computed.  The series stops at zero or at its first repeated rank, after
which no rank falls again, so the solvability verdict of a rank-n algebra
is exact within n + 1 derived steps (proof at :func:`is_solvable`).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
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
    if not p.uses_only_up_to(D):
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
    remainder of dividing it by ``by[col]``; an entry where ``by`` is zero
    is kept as it stands."""
    if row[col].is_zero:
        return row
    q, _ = poly_divmod(row[col], by[col])
    return row if q.is_zero else [x - q * y if y else x for x, y in zip(row, by)]


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


def hermite_normal_form(rows: Iterable[PolyRow]) -> PolyMatrix:
    """Canonical row form under invertible row operations over the d-ring,
    built from ``rows`` one row at a time; the identity, reading no further
    row, once every column has a constant pivot."""
    pivots: dict[int, list[MultiPoly]] = {}
    width, units = None, 0
    for row in rows:
        width = len(row) if width is None else width
        if len(row) != width:
            raise ValueError("ragged matrix")
        row, col = list(row), 0
        while row is not None:
            col = next((c for c in range(col, width) if row[c]), None)
            if col is None:
                break
            top = pivots.get(col)
            if top is not None:
                row = _reduce(row, top, col)
                if not row[col]:
                    continue
            # a new pivot, or Euclid's swap: the remainder becomes the pivot
            pivots[col], row = row, top
            # a constant pivot divides every entry, so it is never replaced
            if poly_deg(pivots[col][col]) == 0:
                units += 1
                if units == width:
                    return full_submodule(width).generators
    out: list[list[MultiPoly]] = []
    for col in sorted(pivots):
        top = pivots[col]
        lead = top[col].leading()[1]
        if lead != 1:
            top = [x / lead for x in top]
        out = [_reduce(r, top, col) for r in out] + [top]
    return tuple(tuple(r) for r in out)


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


def _checked(ambient_rank: int, row: PolyRow) -> PolyRow:
    if len(row) != ambient_rank:
        raise ValueError("vector rank does not match ambient rank")
    for c in row:
        if not c.uses_only_up_to(D):
            raise ValueError(f"spectral variable leaked into a generator: {c}")
    return row


def span(ambient_rank: int, rows: Iterable[PolyRow]) -> Submodule:
    """Canonical submodule generated by rows of d-polynomial coordinates.

    Every row read is checked.  The Hermite form reads no row past the full
    module, so a generator's later rows are never computed; a collection,
    computed already, is checked in full.
    """
    checked = (_checked(ambient_rank, row) for row in rows)
    if isinstance(rows, Collection):
        checked = list(checked)
    return Submodule(ambient_rank, hermite_normal_form(checked))


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

    def rows():
        for _, _, prod in _products(algebra, sub.generators):
            split = [c.coefficient_list(L1) for c in prod]
            depth = max((len(s) for s in split), default=0)
            for t in range(depth):
                yield tuple(s[t] if t < len(s) else MultiPoly.zero() for s in split)

    return span(algebra.rank, rows())


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
    """Walk the derived series until zero, its first repeated rank, or the cap.

    Each term lies in the one before, and its rank is its number of Hermite
    generators, echelon rows being independent over K = Q(d).  Once two
    consecutive terms have equal rank, every later term has that rank too,
    so a nonzero term of repeated rank decides ``not_solvable``; that term
    ends the series when it differs from the one before.  Ranks fall at
    most n times, so n + 1 derived steps decide every rank-n algebra, and
    ``unknown`` means only that ``max_depth`` was smaller than the steps
    needed.

    Proof.  Finite conformal algebras are free Q[d]-modules (after D'Andrea
    and Kac).  Let M' ⊆ M be submodules of equal rank, and X = [a_λ b] for
    a, b in M.  M/M' is torsion, so some p ≠ 0 puts p(d)a and p(d)b in M';
    sesquilinearity gives [p(d)a_λ p(d)b] = p(-λ)p(d+λ)X, so q·X has its
    λ-coefficients in V, the K-span of those of [M'_λ M'], for q =
    p(-λ)p(d+λ) ≠ 0.  K[λ] is a domain and (K^n/V)[λ] is torsion-free over
    it, so X itself has its λ-coefficients in V: the next terms after M'
    and M span the same K-space, and so have equal rank.  A free module has
    no torsion, so a term of rank 0 is zero.
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
        if len(nxt.generators) == len(current.generators):
            if nxt != current:
                series.append(nxt)
            return Solvability("not_solvable", series=tuple(series))
        current = nxt
        series.append(current)
    return Solvability("unknown", series=tuple(series))


def is_abelian(algebra: ConformalAlgebra) -> bool:
    return not any(algebra.constants)
