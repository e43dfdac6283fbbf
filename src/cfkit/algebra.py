"""Conformal algebras: finite free basis, spectral product table, axiom checks.

An element of a free module is the tuple of its coordinates, one
polynomial per basis vector; products and residuals are such tuples.  A
table is given as its structure constants, entries ``{(i, j): {k: c}}``, a
missing entry or coordinate being zero, and stored only as its nonzero ones
(after D'Andrea and Kac) in canonical order (:func:`_constants`),
an algebra's and each of a matched pair's actions': equality compares them,
the bicrossed product places them, the ``.cfk`` serializer renders them with
:func:`pairs_text` and the CLI's degree budget reads their degrees.  The
dense ``ConformalAlgebra.table`` is a view for readers outside cfkit.

Two rewriting rules extend a basis product table to arbitrary elements at a
spectral parameter ``s``: a ``d``-polynomial multiplying the left argument
is re-evaluated at ``-s``, one multiplying the right argument at ``d + s``
(:func:`_at_d`, whose replacements at the kernel's parameters are module
constants, built once), and the table's ``l`` is set to ``s``.  The kernel
sees each only as its nonzero entries: a table as its stored constants,
rewritten at another ``s`` by :func:`_sparse`; and an argument as its
nonzero ``(index, coordinate)`` pairs, so a unit vector is one pair.
:func:`spectral_eval` is the bilinear contraction of the two argument lists
against the constants; it walks no zero and tests no coefficient for zero.
Both sums here, the contraction's and skew-symmetry's, store a
coordinate's first term instead of adding it to the shared zero, which they
tell by identity, so a coordinate with one term takes no addition.
:func:`_products` multiplies every ordered pair of a list of elements at
``l``, rewriting each element once as a left and once as a right argument.

:func:`check_axioms` is the one axiom check, for either kind.  It builds,
once per call, the stored constants at ``m`` and ``l + m`` and the
nonzero pair products already rewritten as arguments, the structure
constants c_jk(d+l, m), c_ij(-l-m, l) and c_ik(d+m, l).  Two of them take
no substitution but an exchange of ``l`` and ``m``
(:meth:`MultiPoly.exchange`): the constants at ``m`` are the stored ones
exchanged, and c_jk(d+l, m) is c_ik(d+m, l) exchanged at the same indices.
Both are exact because a stored constant uses only ``d`` and ``l``, so the
exchange is the substitution ``l -> m``, and it takes c(d+m, l) to
c(d+l, m): the inner products of the Jacobiator's outer terms trade places
under (a, l) <-> (b, m), the symmetry of the Jacobi identity.  So each
stored constant takes two exchanges and four substitutions, skew-symmetry's
included.  Each product of a Jacobi or associativity identity is one
contraction of a unit vector against them, skew-symmetry is read off the
constants at ``l`` and ``-l-d`` with no contraction, and each residual adds
or subtracts only at coordinates where some term is nonzero.  Each identity
is named where its residual is formed, prefix included, so no report is
rebuilt to rename its violations.
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
_ZERO = MultiPoly.zero()
#: The fixed replacements of the kernel's rewrites, built once: ``d`` in a
#: left argument at ``l`` or ``l + m`` and in a right argument at ``l`` or
#: ``m`` (:func:`_at_d`), and ``l`` in skew-symmetry's ``c_ji(d, -l-d)``.
_NEG_L, _NEG_LM, _D_PLUS_L, _D_PLUS_M = -_PL1, -_PLM, _PD + _PL1, _PD + _PL2
_NEG_LD = -_PL1 - _PD

Element = tuple[MultiPoly, ...]
Table = tuple[tuple[Element, ...], ...]
Entries = dict[tuple[int, int], dict[int, MultiPoly]]  # [e_i e_j] as {k: c}, 0 if missing
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
        n, zero = self.rank, MultiPoly.zero()
        return tuple(tuple(tuple(dict(row.get(j, ())).get(k, zero) for k in range(n))
                           for j in range(n)) for row in self.constants)


def _constants(entries: Entries, shape: tuple[int, int, int], what: str) -> Sparse:
    """Raise unless each entry is keyed by an ``(i, j)`` pair in the rows x
    columns of ``shape``, maps ``int`` coordinates below its entry width to
    :class:`MultiPoly` coefficients and uses no variable but ``d`` and
    ``l``; return the nonzero constants at ``l`` in (i, j, k) order, read
    off the given coordinates alone.  Each entry is validated, sorted and
    kept in one pass over its coordinates, which names its first fault."""
    rows, cols, width = shape
    if not isinstance(entries, dict) or not all(
        type(key) is tuple and len(key) == 2 for key in entries
    ):
        raise ValueError(f"{what} entries must be keyed by (i, j) pairs")
    constants = tuple({} for _ in range(rows))
    for (i, j), coords in entries.items():
        fits = (isinstance(coords, dict) and type(i) is int and type(j) is int
                and 0 <= i < rows and 0 <= j < cols)
        pairs = []
        for k, c in (coords.items() if fits else ()):
            if type(k) is not int or not 0 <= k < width:
                fits = False
                break
            if not isinstance(c, MultiPoly):
                raise ValueError(f"{what} entry ({i}, {j}) has a non-polynomial coefficient")
            if c:
                if not c.uses_only_up_to(L1):
                    raise ValueError(f"{what} entry {c} uses variables other than d, l")
                pairs.append((k, c))
        if not fits:
            raise ValueError(
                f"{what} entry ({i}, {j}) does not fit the shape {rows} x {cols} x {width}"
            )
        if pairs:
            pairs.sort()  # no two share k, so no coefficients are compared
            constants[i][j] = tuple(pairs)
    # each row in column order, whatever order the entries came in
    return tuple(dict(sorted(row.items())) for row in constants)


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
    :func:`_at_d`.  Nothing is substituted or
    tested for zero here, so a caller that contracts one argument or table
    many times rewrites it once, and a unit vector is one pair.  Each
    output coordinate starts at its first term, not at zero plus it.
    """
    out = [_ZERO] * out_rank
    for i, a in left:
        row = table[i]
        for j, b in right:
            entry = row.get(j)
            if entry is None:
                continue
            factor = a * b
            for k, coeff in entry:
                term = factor * coeff
                out[k] = term if (prev := out[k]) is _ZERO else prev + term
    return tuple(out)


def _at_d(pairs, r: MultiPoly) -> Pairs:
    """The nonzero ``(index, coordinate)`` pairs of an argument with ``d``
    set to ``r``: a ``d``-polynomial multiplying the left factor at the
    spectral parameter ``s`` is re-evaluated at ``r = -s``, one multiplying
    the right factor at ``r = d + s``."""
    return tuple((i, c.substitute(D, r)) for i, c in pairs if c)


def _exchanged(table) -> Sparse:
    """``table``'s rows with ``l`` and ``m`` exchanged in every coefficient."""
    return tuple(
        {j: tuple((k, c.exchange(L1, L2)) for k, c in entry) for j, entry in row.items()}
        for row in table
    )


def _products(algebra: ConformalAlgebra, elements):
    """Yield ``(i, j, [x_i _l x_j])`` for every ordered pair of ``elements``,
    coordinate tuples multiplied through the algebra's stored constants at
    ``l``.  Each element is rewritten once as a left and once as a right
    argument, however many pairs it enters."""
    constants, n = algebra.constants, algebra.rank
    left = [_at_d(enumerate(x), _NEG_L) for x in elements]
    right = [_at_d(enumerate(x), _D_PLUS_L) for x in elements]
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
    Kac's form of the identities).  ``m`` and ``jk`` are exchanges of ``l``
    and ``m`` in ``l`` and ``ik``, exact for constants in ``d`` and ``l``
    alone (module docstring); the other three are substituted."""

    l: Sparse
    m: Sparse  # c(d, m): l exchanged with m
    lm: Sparse
    jk: Sparse  # c_jk(d+l, m): [e_j _m e_k] as a right argument at l, ik exchanged
    ij: Sparse  # c_ij(-l-m, l): [e_i _l e_j] as a left argument at l+m
    ik: Sparse  # c_ik(d+m, l): [e_i _l e_k] as a right argument at m
    zero: Element  # shared by every triple whose three pair products vanish


def _axiom_tables(algebra: ConformalAlgebra) -> _AxiomTables:
    at_l = algebra.constants
    ik = tuple({k: _at_d(entry, _D_PLUS_M) for k, entry in row.items()} for row in at_l)
    return _AxiomTables(
        at_l,
        _exchanged(at_l),
        _sparse(at_l, _PLM),
        _exchanged(ik),
        tuple({j: _at_d(entry, _NEG_LM) for j, entry in row.items()} for row in at_l),
        ik,
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
    at_neg = _sparse(at.l, _NEG_LD)

    def skew_sum(i, j) -> Element:
        out = list(at.zero)
        for k, c in at.l[i].get(j, ()) + at_neg[j].get(i, ()):
            out[k] = c if (prev := out[k]) is _ZERO else prev + c
        return tuple(out)

    # the sum is zero unless c_ij or c_ji is nonzero
    stored = {(i, j) for i, row in enumerate(at.l) for j in row}
    skew = _violations("skew:skew-symmetry", names, (
        (i, j, skew_sum(i, j)) for i, j in sorted(stored | {(j, i) for i, j in stored})
    ))
    jacobi = partial(_jacobiator, at, unit)
    return CheckReport(skew + _jacobi_violations(jacobi, at.zero, names, skew_holds=not skew))
