"""Conformal algebras: finite free basis, spectral product table, axiom checks.

An element of a free module is the tuple of its coordinates, one
polynomial per basis vector; table entries, products and residuals are
all such tuples.  A table is given as its entries ``{(i, j): coordinates}``,
a missing entry being zero, and stored only as its nonzero structure
constants (after D'Andrea and Kac) in canonical order (:func:`_constants`),
an algebra's and each of a matched pair's actions': equality compares them,
the bicrossed product places them, the ``.cfk`` serializer renders them with
:func:`pairs_text` and the CLI's degree budget reads their degrees.  The
dense ``ConformalAlgebra.table`` is a view for readers outside cfkit.

Two rewriting rules extend a basis product table to arbitrary elements at a
spectral parameter ``s``: a ``d``-polynomial multiplying the left argument
is re-evaluated at ``-s`` (:func:`_as_left`), one multiplying the right
argument at ``d + s`` (:func:`_as_right`), and the table's ``l`` is set to
``s``.  The kernel sees each only as its nonzero entries: a table as its
stored constants, rewritten at another ``s`` by :func:`_sparse`; and an
argument as its nonzero ``(index, coordinate)`` pairs, so a unit vector is
one pair.
:func:`spectral_eval` is the bilinear contraction of the two argument lists
against the constants; it walks no zero and tests nothing for zero.
:func:`_products` multiplies every ordered pair of a list of elements at
``l``, rewriting each element once as a left and once as a right argument.

:func:`check_axioms` is the one axiom check, for either kind.  It builds,
once per call, the stored constants at ``m`` and ``l + m`` and the
nonzero pair products already rewritten as arguments, the structure
constants c_jk(d+l, m), c_ij(-l-m, l) and c_ik(d+m, l); each product of a
Jacobi or associativity identity is one contraction of a unit vector against
them, skew-symmetry is read off the constants at ``l`` and ``-l-d`` with
no contraction, and each residual adds or subtracts only at coordinates
where some term is nonzero.  Each identity is named where its residual is
formed, prefix included, so no report is rebuilt to rename its violations.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from typing import NamedTuple

from .poly import D, L1, L2, MultiPoly

LIE = "lie"
ASSOCIATIVE = "assoc"
KINDS = (LIE, ASSOCIATIVE)

_PD = MultiPoly.var(D)
_PL1 = MultiPoly.var(L1)
_PL2 = MultiPoly.var(L2)
_PLM = _PL1 + _PL2
_ONE = MultiPoly.const(1)

Element = tuple[MultiPoly, ...]
Table = tuple[tuple[Element, ...], ...]
Entries = dict[tuple[int, int], Element]  # [e_i e_j] at (i, j), zero if missing
#: The nonzero coordinates of an element, as ``(index, coordinate)`` pairs.
Pairs = tuple[tuple[int, MultiPoly], ...]
#: A table's nonzero structure constants: row ``i`` maps each ``j`` whose
#: entry ``[i][j]`` has a nonzero coefficient to that entry's nonzero pairs.
Sparse = tuple[dict[int, Pairs], ...]


def element_text(coords: Element, names: tuple[str, ...]) -> str:
    """Canonical rendering ``(poly) name + ...``, or ``0``."""
    return pairs_text([(k, c) for k, c in enumerate(coords) if c], names)


def pairs_text(pairs: Pairs, names: tuple[str, ...]) -> str:
    """:func:`element_text` of the element whose nonzero ``(index,
    coordinate)`` pairs are ``pairs``, in index order."""
    parts = [names[k] if c == 1 else f"({c}) {names[k]}" for k, c in pairs]
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Violation:
    """One failed identity instance, with the exact residual element."""

    identity: str
    indices: tuple[int, ...]
    residual: Element
    basis: tuple[str, ...]


@dataclass(frozen=True)
class CheckReport:
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class ConformalAlgebra:
    """Free finite-rank module with a spectral product table, given as its
    entries in ``d`` and ``l`` and stored as its canonical constants
    (:func:`_constants`), which ``==`` compares; the hash reads the kind and
    basis alone."""

    kind: str
    basis: tuple[str, ...]
    entries: InitVar[Entries]
    constants: Sparse = field(init=False, hash=False)

    def __post_init__(self, entries: Entries):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        n = len(self.basis)
        if len(set(self.basis)) != n:
            raise ValueError("basis names must be distinct")
        object.__setattr__(self, "constants", _constants(entries, (n, n, n), "table"))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def table(self) -> Table:
        """The dense table, ``table[i][j]`` the product of basis elements i
        and j: a read-only view, built from the constants on each read."""
        n = self.rank
        return tuple(tuple(_element(row.get(j, ()), n) for j in range(n))
                     for row in self.constants)


def _constants(entries: Entries, shape: tuple[int, int, int], what: str) -> Sparse:
    """Raise unless each entry lies in the rows x columns of ``shape``, has
    its entry length of coordinates and uses no variable but ``d`` and ``l``;
    return the nonzero constants at ``l`` in (i, j, k) order, read off the
    given entries alone."""
    rows, cols, width = shape
    constants = tuple({} for _ in range(rows))
    for (i, j), coords in sorted(entries.items()):  # keys are distinct
        if not (0 <= i < rows and 0 <= j < cols) or len(coords) != width:
            raise ValueError(
                f"{what} entry ({i}, {j}) does not fit the shape {rows} x {cols} x {width}"
            )
        nonzero = tuple((k, c) for k, c in enumerate(coords) if c)
        for _, coeff in nonzero:
            if not coeff.variables() <= {D, L1}:
                raise ValueError(f"{what} entry {coeff} uses variables other than d, l")
        if nonzero:
            constants[i][j] = nonzero
    return constants


def _element(pairs: Pairs, rank: int) -> Element:
    """The element of ``rank`` coordinates whose nonzero ``(index,
    coordinate)`` pairs are ``pairs``."""
    coords = [MultiPoly.zero()] * rank
    for k, c in pairs:
        coords[k] = c
    return tuple(coords)


def _sparse(constants: Sparse, s: MultiPoly) -> Sparse:
    """Nonzero structure constants stored at ``l`` (:func:`_constants`),
    with ``l`` set to ``s``: entry ``[i][j]`` lists the product of the i-th
    and j-th basis vectors at ``s``.  Only stored nonzeros are rewritten."""
    return tuple(
        {j: tuple((k, c.substitute(L1, s)) for k, c in entry) for j, entry in row.items()}
        for row in constants
    )


def spectral_eval(table: Sparse, out_rank: int, left: Pairs, right: Pairs) -> Element:
    """The bilinear contraction ``sum_ij left_i * right_j * table[i][j]``.

    ``table`` holds the nonzero structure constants (:func:`_sparse`) of the
    products of the i-th left and j-th right basis vectors, as coordinates
    ``k < out_rank``; ``left`` and ``right`` are the arguments' nonzero
    ``(index, coordinate)`` pairs.  All three are taken as already at the
    spectral parameter: the table from :func:`_sparse`, the arguments from
    :func:`_as_left` and :func:`_as_right`.  Nothing is substituted or
    tested for zero here, so a caller that contracts one argument or table
    many times rewrites it once, and a unit vector is one pair.
    """
    out = [MultiPoly.zero()] * out_rank
    for i, a in left:
        row = table[i]
        for j, b in right:
            entry = row.get(j)
            if entry is None:
                continue
            factor = a * b
            for k, coeff in entry:
                out[k] = out[k] + factor * coeff
    return tuple(out)


def _as_left(pairs, s: MultiPoly) -> Pairs:
    """The nonzero ``(index, coordinate)`` pairs of a left argument at ``s``:
    a ``d``-polynomial multiplying the left factor is re-evaluated at the
    negated spectral parameter, ``d -> -s``."""
    minus_s = -s
    return tuple((i, c.substitute(D, minus_s)) for i, c in pairs if c)


def _as_right(pairs, s: MultiPoly) -> Pairs:
    """The nonzero ``(index, coordinate)`` pairs of a right argument at
    ``s``: a ``d``-polynomial multiplying the right factor is re-evaluated at
    ``d`` shifted by the parameter, ``d -> d + s``."""
    shifted = _PD + s
    return tuple((i, c.substitute(D, shifted)) for i, c in pairs if c)


def _products(algebra: ConformalAlgebra, elements):
    """Yield ``(i, j, [x_i _l x_j])`` for every ordered pair of ``elements``,
    coordinate tuples multiplied through the algebra's stored constants at
    ``l``.  Each element is rewritten once as a left and once as a right
    argument, however many pairs it enters."""
    constants, n = algebra.constants, algebra.rank
    left = [_as_left(enumerate(x), _PL1) for x in elements]
    right = [_as_right(enumerate(x), _PL1) for x in elements]
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            yield i, j, spectral_eval(constants, n, x, y)


def _violations(identity: str, names, rows) -> tuple[Violation, ...]:
    """One violation per row ``(*indices, residual)`` whose residual is
    nonzero, in the order of ``rows``: every check reports through this."""
    return tuple(
        Violation(identity, tuple(indices), residual, names)
        for *indices, residual in rows
        if any(residual)
    )


class _AxiomTables(NamedTuple):
    """What the axiom checks contract unit vectors against, each built once
    per check: the stored constants at ``l`` and their rewrites at ``m`` and
    ``l + m``, and the nonzero pair products already rewritten as kernel
    arguments, one dict per row (the structure constants of D'Andrea and
    Kac's form of the identities)."""

    l: Sparse
    m: Sparse
    lm: Sparse
    jk: list  # c_jk(d+l, m): [e_j _m e_k] as a right argument at l
    ij: list  # c_ij(-l-m, l): [e_i _l e_j] as a left argument at l+m
    ik: list  # c_ik(d+m, l): [e_i _l e_k] as a right argument at m
    zero: Element  # shared by every triple whose three pair products vanish


def _axiom_tables(algebra: ConformalAlgebra) -> _AxiomTables:
    at_l, at_m = algebra.constants, _sparse(algebra.constants, _PL2)
    return _AxiomTables(
        at_l,
        at_m,
        _sparse(at_l, _PLM),
        [{k: _as_right(entry, _PL1) for k, entry in row.items()} for row in at_m],
        [{j: _as_left(entry, _PLM) for j, entry in row.items()} for row in at_l],
        [{k: _as_right(entry, _PL2) for k, entry in row.items()} for row in at_l],
        (MultiPoly.zero(),) * algebra.rank,
    )


def _jacobiator(at: _AxiomTables, unit, i, j, k) -> Element:
    """J(e_i, e_j, e_k)(l, m) = [e_i_l [e_j_m e_k]] - [[e_i_l e_j]_{l+m} e_k]
    - [e_j_m [e_i_l e_k]]: one contraction per product, of a unit vector
    against a pair product rewritten once per check (``at``), and
    subtractions only at coordinates where the second or third product is
    nonzero.  Each product contracts one of [e_j e_k], [e_i e_j] and
    [e_i e_k], so where all three vanish the shared zero is returned with no
    contraction.  The triple comes last, so the orbit-count test can read it
    off the call.
    """
    jk, ij, ik = at.jk[j].get(k, ()), at.ij[i].get(j, ()), at.ik[i].get(k, ())
    if not (jk or ij or ik):
        return at.zero
    n = len(unit)
    lhs = spectral_eval(at.l, n, unit[i], jk)
    mid = spectral_eval(at.lm, n, ij, unit[k])
    rhs = spectral_eval(at.m, n, unit[j], ik)
    return tuple(a - b - c if b or c else a for a, b, c in zip(lhs, mid, rhs))


def _associator(at: _AxiomTables, unit, i, j, k) -> Element:
    """[[e_i_l e_j]_{l+m} e_k] - [e_i_l [e_j_m e_k]]: one contraction per
    product, of a unit vector against a rewritten pair product, and one
    subtraction at each coordinate where the inner product is nonzero.  The
    products contract [e_i e_j] and [e_j e_k], so where both vanish the
    shared zero is returned with no contraction."""
    ij, jk = at.ij[i].get(j, ()), at.jk[j].get(k, ())
    if not (ij or jk):
        return at.zero
    n = len(unit)
    outer = spectral_eval(at.lm, n, ij, unit[k])
    inner = spectral_eval(at.l, n, unit[i], jk)
    return tuple(a - b if b else a for a, b in zip(outer, inner))


def _jacobi_violations(jacobiator, zero: Element, names: tuple[str, ...], skew_holds: bool):
    """Violations of J(a,b,c)(l,m) = [a_l[b_m c]] - [[a_l b]_{l+m} c] - [b_m[a_l c]]
    on basis triples, in the lexicographic order of the full n^3 loop;
    ``jacobiator(i, j, k)`` is :func:`_jacobiator` bound to one check's
    tables, and ``zero`` the shared zero it returns with no contraction,
    which is told by identity, not scanned.

    If skew-symmetry holds on the basis table, it holds on all elements by
    sesquilinearity, and J is alternating up to invertible substitutions:

    * (12) J(b,a,c)(m,l) = -J(a,b,c)(l,m).  The outer terms swap; in the
      middle one [b_m a] = -[a_{-m-d} b], and the product at l+m evaluates
      that d at -l-m, so [[b_m a]_{l+m} c] = -[[a_l b]_{l+m} c].
    * (23) J(a,c,b)(l,n) = -J(a,b,c)(l,m) at n = -l-m-d.  Skew-symmetry gives
      [c_n [a_l b]] = -[[a_l b]_{l+m} c], [[a_l c]_{-m-d} b] = -[b_m [a_l c]]
      and, as [a_l .] evaluates the d of [c_n b] at d' = d+l, so that
      n = -m-d', [c_n b] = -[b_m c] there.

    l <-> m and m -> -l-m-d are automorphisms of Q[d, l, m], so J vanishes at
    a triple exactly when it vanishes at its image.  (12) and (23) generate
    S3: a zero at the sorted representative i <= j <= k proves its orbit
    zero, and a passing table costs n(n+1)(n+2)/6 evaluations, not n^3.  The
    members of an orbit with a nonzero representative are evaluated one by
    one, so residuals and their order are those of the full loop, which
    runs as it is when skew-symmetry fails.
    """
    n = len(names)
    triples = product(range(n), repeat=3)
    if skew_holds:
        triples = sorted({
            perm
            for rep in combinations_with_replacement(range(n), 3)
            if (r := jacobiator(*rep)) is not zero and any(r)
            for perm in permutations(rep)
        })
    return _violations(
        "jacobi:jacobi", names, ((*t, jacobiator(*t)) for t in triples)
    )


def check_axioms(algebra: ConformalAlgebra) -> CheckReport:
    """The one axiom check: skew-symmetry plus Jacobi for Lie kind,
    associativity otherwise.

    The tables of :func:`_axiom_tables` and the unit vectors are built once
    per call, for either kind, and each identity is named where its residual
    is formed: ``skew:skew-symmetry``, ``jacobi:jacobi`` or
    ``assoc:associativity``.  Skew-symmetry reads c_ij(d, l) + c_ji(d, -l-d)
    straight off the stored constants and their rewrite at ``-l-d``, only
    for the pairs where one of them is nonzero.
    """
    n, names = algebra.rank, algebra.basis
    at = _axiom_tables(algebra)
    unit = [((i, _ONE),) for i in range(n)]
    if algebra.kind == ASSOCIATIVE:
        associator = partial(_associator, at, unit)
        return CheckReport(_violations("assoc:associativity", names, (
            (*t, associator(*t)) for t in product(range(n), repeat=3)
        )))
    at_neg = _sparse(at.l, -_PL1 - _PD)

    def skew_sum(i, j) -> Element:
        out = list(at.zero)
        for k, c in at.l[i].get(j, ()) + at_neg[j].get(i, ()):
            out[k] = out[k] + c
        return tuple(out)

    # the sum is zero unless c_ij or c_ji is nonzero
    stored = {(i, j) for i, row in enumerate(at.l) for j in row}
    skew = _violations("skew:skew-symmetry", names, (
        (i, j, skew_sum(i, j)) for i, j in sorted(stored | {(j, i) for i, j in stored})
    ))
    jacobi = partial(_jacobiator, at, unit)
    return CheckReport(skew + _jacobi_violations(jacobi, at.zero, names, skew_holds=not skew))
