"""Module actions over conformal algebras, matched pairs, bicrossed products.

An action table has the layout of a product table: entry ``[i][j]``
indexes its two arguments in the order they appear in the infix notation,
so ``x <| a`` and ``a ~> x`` both read left-to-right.  Where each cross
action sits is written down once, in the layout table :data:`_LAYOUT`: the
pair field, the arrow that spells it, the components of its two operands
and the component its values lie in.  The pair's validation, the ``.cfk``
parser and serializer and :func:`build_bicrossed` all read it.  A pair
takes each action as an algebra takes its product, as entries
``{(i, j): {k: c}}`` in the shape :data:`_LAYOUT` gives, and keeps only its
constants.  The bicrossed product ``E = R ⋈ Q`` is built by placing stored
constants: R's and Q's on the diagonal, each action's into the carrier
coordinates of its operands' block, and for a Lie pair the remaining block
by skew-symmetry.
A matched pair is decided by one test: ``E`` must satisfy the Lie (or
associative) conformal axioms, which contain the axioms of R and Q, the
module laws and the cross conditions.  A pair builds its ``E`` and checks
E's axioms once.  The direct check of a Lie pair's two cross identities is a
projection of that report: the R and Q parts of E's Jacobiator on mixed
triples.  The CLI reports it beside the verdict and compares the two, never
substituting one for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product

from .algebra import (
    _PD,
    _PL1,
    ASSOCIATIVE,
    CheckReport,
    ConformalAlgebra,
    LIE,
    Sparse,
    _constants,
    _violations,
    check_axioms,
)
from .poly import L1, MultiPoly

#: The cross actions of a matched pair, one row each: the :class:`MatchedPair`
#: field, the arrow of its infix notation ``x op y``, the components x and y
#: belong to, and the carrier component its values lie in; the other operand's
#: component acts.  Entry ``[i][j]`` of the table is the product of the i-th
#: x and j-th y generators in ``E = R ⋈ Q``, so the table fills the carrier
#: coordinates of E's (x, y) block.  A Lie pair has the first two rows.
_LAYOUT = (
    ("lhd", "<|", "Q", "R", "Q"),
    ("rhd", "|>", "Q", "R", "R"),
    ("lhu", "<~", "R", "Q", "R"),
    ("rhu", "~>", "R", "Q", "Q"),
)


def _layout(kind: str) -> tuple[tuple[str, str, str, str, str], ...]:
    """The rows of :data:`_LAYOUT` a pair of ``kind`` has."""
    return _LAYOUT if kind == ASSOCIATIVE else _LAYOUT[:2]


@dataclass(frozen=True)
class MatchedPair:
    """Two algebras with the cross actions that glue them into one.

    For the Lie kind the actions are ``lhd`` (right action of R on Q) and
    ``rhd`` (left action of Q on R).  The associative kind adds ``rhu``
    (left action of R on Q) and ``lhu`` (right action of Q on R).  Each is
    given as entries and kept as its constants, which ``==`` compares; the
    hash reads the kind and the two algebras alone.
    """

    kind: str
    R: ConformalAlgebra
    Q: ConformalAlgebra
    lhd: Sparse = field(hash=False)
    rhd: Sparse = field(hash=False)
    lhu: Sparse | None = field(default=None, hash=False)
    rhu: Sparse | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.kind not in (LIE, ASSOCIATIVE):
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.R.kind != self.kind or self.Q.kind != self.kind:
            raise ValueError("component algebra kinds must match the pair kind")
        if set(self.R.basis) & set(self.Q.basis):
            raise ValueError("R and Q generator names must not overlap")
        if self.kind == LIE and (self.lhu is not None or self.rhu is not None):
            raise ValueError("harpoon actions are for the associative kind")
        ranks = {"R": self.R.rank, "Q": self.Q.rank}
        for attr, _, left, right, carrier in _layout(self.kind):
            entries = getattr(self, attr)
            if entries is None:
                raise ValueError(f"{self.kind} pairs need the {attr} action")
            shape = (ranks[left], ranks[right], ranks[carrier])
            object.__setattr__(self, attr, _constants(entries, shape, attr))

    @cached_property
    def bicrossed(self) -> ConformalAlgebra:
        """The bicrossed product ``R ⋈ Q``, built on first use and kept.

        Not a field, so equality and hashing ignore it.
        """
        return build_bicrossed(self)

    @cached_property
    def axioms(self) -> CheckReport:
        """``check_axioms`` of :attr:`bicrossed`, kept the same way."""
        return check_axioms(self.bicrossed)


def build_bicrossed(mp: MatchedPair) -> ConformalAlgebra:
    """Algebra on R + Q (R basis first) defined by the pair's actions.

    Stored constants are placed as they stand, each coefficient ``c`` at
    ``{carrier offset + k: c}``: R's and Q's on the diagonal, each action's
    in its operands' block.  A Lie pair has no action on R x Q;
    skew-symmetry gives that block from the placed Q x R entries,
    ``[a_l x] = -[x_{-l-d} a]``.  The algebra orders the placed entries.
    """
    nr = mp.R.rank
    at = {"R": 0, "Q": nr}
    placed = {}  # (i, j) -> {k: c}, the nonzero coordinates of [e_i e_j]
    blocks = [("R", "R", "R", mp.R.constants), ("Q", "Q", "Q", mp.Q.constants)] + [
        (left, right, carrier, getattr(mp, attr))
        for attr, _, left, right, carrier in _layout(mp.kind)
    ]
    for left, right, carrier, constants in blocks:
        for i, row in enumerate(constants):
            for j, pairs in row.items():
                entry = placed.setdefault((at[left] + i, at[right] + j), {})
                entry.update((at[carrier] + k, c) for k, c in pairs)
    if mp.kind == LIE:
        neg = -_PL1 - _PD
        for (i, j), entry in list(placed.items()):
            if i >= nr > j:
                placed[j, i] = {k: -c.substitute(L1, neg) for k, c in entry.items()}
    return ConformalAlgebra(mp.kind, mp.R.basis + mp.Q.basis, placed)


def check_matched_pair(mp: MatchedPair) -> CheckReport:
    """Normative test: the axioms of the bicrossed product, and nothing else.

    E's axioms restricted to R, to Q and to mixed triples are exactly the
    axioms of the components, the module laws of the actions and the cross
    conditions, so this check is independent of how nested spectral
    substitutions are read.  :func:`check_axioms` is the one axiom check
    and names each identity where its residual is formed; this prefixes
    each name with ``E:``.
    """
    return CheckReport(tuple(
        replace(v, identity=f"E:{v.identity}") for v in mp.axioms.violations
    ))


def check_b1_b2_direct(mp: MatchedPair) -> CheckReport:
    """The two Lie cross-compatibility identities, read off E's Jacobiator.

    With J(u, v, w) = [u_l [v_m w]] - [[u_l v]_{l+m} w] - [v_m [u_l w]] in E
    and nr = R.rank, the cross-left residual at (x, a, b) is the R part of
    J(a, b, nr + x), and the cross-right residual at (x, y, a) is minus the
    Q part of J(a, nr + x, nr + y).  Expanded by :func:`build_bicrossed`'s
    R x Q block, ``[a_l x] = -[x_{-l-d} a]``, J gives the five terms of each
    identity as the nested kernel evaluates them, except that cross-left
    writes the R product ``[b_m (x |> a)]`` as ``-[(x |> a)_{-m-d} b]``.  So
    the residuals are exact wherever R is skew-symmetric; where it is not,
    neither is E, and :func:`check_matched_pair` fails the pair anyway.

    ``mp.axioms`` holds every nonzero Jacobiator of E: when skew-symmetry
    fails, ``_jacobi_violations`` runs the full loop; when it holds, a zero
    representative proves its orbit zero, and every member of an orbit with
    a nonzero representative is evaluated.  Zero projections are dropped.
    The CLI reports this check beside :func:`check_matched_pair` and flags
    any disagreement between the two verdicts.
    """
    if mp.kind != LIE:
        raise ValueError("direct compatibility check applies to Lie pairs")
    nr, nq = mp.R.rank, mp.Q.rank
    jacobi = {v.indices: v.residual
              for v in mp.axioms.violations if v.identity == "jacobi:jacobi"}
    zero = (MultiPoly.zero(),) * (nr + nq)
    return CheckReport(_violations("cross-left", mp.R.basis, (
        (x, a, b, jacobi.get((a, b, nr + x), zero)[:nr])
        for x, a, b in product(range(nq), range(nr), range(nr))
    )) + _violations("cross-right", mp.Q.basis, (
        (x, y, a, tuple(-c for c in jacobi.get((a, nr + x, nr + y), zero)[nr:]))
        for x, y, a in product(range(nq), range(nq), range(nr))
    )))
