"""Module actions over conformal algebras, matched pairs, bicrossed products.

An action table is evaluated with the same kernel as an algebra product;
``action_eval(act, x, v, s)`` takes its two arguments in the order they
appear in the infix notation, so ``x <| a`` and ``a ~> x`` both read
left-to-right.  A matched pair is decided by one test: its bicrossed product
``E = R ⋈ Q`` must satisfy the Lie (or associative) conformal axioms, which
contain the axioms of R and Q, the module laws and the cross conditions.
:func:`build_bicrossed` is the only place the cross actions are expanded,
and a pair builds its ``E`` once.  The direct two-identity check of Lie
pairs is a second reading of the cross conditions that the CLI reports
beside the verdict and compares against it, never a substitute for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    ASSOCIATIVE,
    CheckReport,
    ConformalAlgebra,
    GenElement,
    LIE,
    Violation,
    check_axioms,
    merge_reports,
    product_eval,
    spectral_eval,
)
from .poly import D, L1, L2, MultiPoly, Scalar

LEFT = "left"
RIGHT = "right"

_PD = MultiPoly.var(D)
_PL1 = MultiPoly.var(L1)
_PL2 = MultiPoly.var(L2)

ActionTable = tuple[tuple[tuple[MultiPoly, ...], ...], ...]


@dataclass(frozen=True)
class ModuleAction:
    """A left or right action of ``acting`` on a free carrier module.

    Left table layout is acting x carrier, right is carrier x acting; either
    way ``table[i][j]`` indexes the first and second infix argument, and the
    entry is a coefficient vector over the carrier basis.
    """

    side: str
    acting: ConformalAlgebra
    carrier_rank: int
    table: ActionTable

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"unknown action side {self.side!r}")
        rows, cols = self.shape
        if len(self.table) != rows or any(len(r) != cols for r in self.table):
            raise ValueError("action table shape mismatch")
        for row in self.table:
            for entry in row:
                if len(entry) != self.carrier_rank:
                    raise ValueError("action entry length must equal carrier rank")
                for coeff in entry:
                    if not coeff.variables() <= {D, L1}:
                        raise ValueError(
                            f"action entry {coeff} uses variables other than d, l"
                        )

    @property
    def shape(self) -> tuple[int, int]:
        if self.side == LEFT:
            return (self.acting.rank, self.carrier_rank)
        return (self.carrier_rank, self.acting.rank)

    @property
    def kind(self) -> str:
        return self.acting.kind


def trivial_action(side: str, acting: ConformalAlgebra, carrier_rank: int) -> ModuleAction:
    rows = acting.rank if side == LEFT else carrier_rank
    cols = carrier_rank if side == LEFT else acting.rank
    zero = MultiPoly.zero()
    table = tuple(tuple((zero,) * carrier_rank for _ in range(cols)) for _ in range(rows))
    return ModuleAction(side, acting, carrier_rank, table)


def action_eval(
    act: ModuleAction, first: GenElement, second: GenElement, s: MultiPoly | Scalar
) -> GenElement:
    """Evaluate ``first_s second`` where one argument is an algebra element.

    For a left action the first argument belongs to the acting algebra; for
    a right action it is the carrier element.  Same kernel as the product.
    """
    s = MultiPoly.const(0) + s
    rows, cols = act.shape
    if len(first.coords) != rows or len(second.coords) != cols:
        raise ValueError("action argument rank mismatch")
    return GenElement(
        spectral_eval(act.table, act.carrier_rank, first.coords, second.coords, s)
    )


@dataclass(frozen=True)
class MatchedPair:
    """Two algebras with the cross actions that glue them into one.

    For the Lie kind the actions are ``lhd`` (right action of R on Q) and
    ``rhd`` (left action of Q on R).  The associative kind adds ``rhu``
    (left action of R on Q) and ``lhu`` (right action of Q on R).
    """

    kind: str
    R: ConformalAlgebra
    Q: ConformalAlgebra
    lhd: ModuleAction
    rhd: ModuleAction
    lhu: ModuleAction | None = None
    rhu: ModuleAction | None = None

    def __post_init__(self):
        if self.kind not in (LIE, ASSOCIATIVE):
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if self.R.kind != self.kind or self.Q.kind != self.kind:
            raise ValueError("component algebra kinds must match the pair kind")
        _expect_action(self.lhd, RIGHT, self.R, self.Q.rank, "lhd")
        _expect_action(self.rhd, LEFT, self.Q, self.R.rank, "rhd")
        if self.kind == LIE:
            if self.lhu is not None or self.rhu is not None:
                raise ValueError("harpoon actions are for the associative kind")
        else:
            if self.lhu is None or self.rhu is None:
                raise ValueError("associative pairs need all four actions")
            _expect_action(self.lhu, RIGHT, self.Q, self.R.rank, "lhu")
            _expect_action(self.rhu, LEFT, self.R, self.Q.rank, "rhu")

    @cached_property
    def bicrossed(self) -> ConformalAlgebra:
        """The bicrossed product ``R ⋈ Q``, built on first use and kept.

        Not a field, so equality and hashing ignore it.
        """
        return build_bicrossed(self)


def _expect_action(act, side, acting, carrier_rank, label):
    if act.side != side or act.acting != acting or act.carrier_rank != carrier_rank:
        raise ValueError(f"action {label} has inconsistent side or dimensions")


def trivial_pair(R: ConformalAlgebra, Q: ConformalAlgebra) -> MatchedPair:
    """Matched pair with every cross action zero (direct sum)."""
    if R.kind != Q.kind:
        raise ValueError("component kinds differ")
    kind = R.kind
    lhd = trivial_action(RIGHT, R, Q.rank)
    rhd = trivial_action(LEFT, Q, R.rank)
    if kind == LIE:
        return MatchedPair(kind, R, Q, lhd, rhd)
    lhu = trivial_action(RIGHT, Q, R.rank)
    rhu = trivial_action(LEFT, R, Q.rank)
    return MatchedPair(kind, R, Q, lhd, rhd, lhu, rhu)


def build_bicrossed(mp: MatchedPair) -> ConformalAlgebra:
    """Algebra on R + Q (R basis first) defined by the pair's actions."""
    nr, nq = mp.R.rank, mp.Q.rank
    n = nr + nq
    zero = MultiPoly.zero()
    neg = -_PL1 - _PD

    def pad(r_part: tuple[MultiPoly, ...] | None, q_part: tuple[MultiPoly, ...] | None):
        return tuple(r_part or (zero,) * nr) + tuple(q_part or (zero,) * nq)

    r_basis = [mp.R.basis_element(i) for i in range(nr)]
    q_basis = [mp.Q.basis_element(i) for i in range(nq)]
    table = [[None] * n for _ in range(n)]
    for i in range(nr):
        for j in range(nr):
            table[i][j] = pad(mp.R.table[i][j], None)
    for i in range(nq):
        for j in range(nq):
            table[nr + i][nr + j] = pad(None, mp.Q.table[i][j])
    if mp.kind == LIE:
        for i in range(nr):
            for j in range(nq):
                r_part = -action_eval(mp.rhd, q_basis[j], r_basis[i], neg)
                q_part = -action_eval(mp.lhd, q_basis[j], r_basis[i], neg)
                table[i][nr + j] = pad(r_part.coords, q_part.coords)
        for i in range(nq):
            for j in range(nr):
                r_part = action_eval(mp.rhd, q_basis[i], r_basis[j], _PL1)
                q_part = action_eval(mp.lhd, q_basis[i], r_basis[j], _PL1)
                table[nr + i][j] = pad(r_part.coords, q_part.coords)
    else:
        for i in range(nr):
            for j in range(nq):
                r_part = action_eval(mp.lhu, r_basis[i], q_basis[j], _PL1)
                q_part = action_eval(mp.rhu, r_basis[i], q_basis[j], _PL1)
                table[i][nr + j] = pad(r_part.coords, q_part.coords)
        for i in range(nq):
            for j in range(nr):
                r_part = action_eval(mp.rhd, q_basis[i], r_basis[j], _PL1)
                q_part = action_eval(mp.lhd, q_basis[i], r_basis[j], _PL1)
                table[nr + i][j] = pad(r_part.coords, q_part.coords)
    names = mp.R.basis + mp.Q.basis
    return ConformalAlgebra(mp.kind, names, tuple(tuple(row) for row in table))


def check_matched_pair(mp: MatchedPair) -> CheckReport:
    """Normative test: the axioms of the bicrossed product, and nothing else.

    E's axioms restricted to R, to Q and to mixed triples are exactly the
    axioms of the components, the module laws of the actions and the cross
    conditions, so this check is independent of how nested spectral
    substitutions are read.  Violations carry the prefix ``E:``.
    """
    return merge_reports([("E", check_axioms(mp.bicrossed))])


def check_b1_b2_direct(mp: MatchedPair) -> CheckReport:
    """Direct evaluation of the two Lie cross-compatibility identities.

    Nested terms are computed innermost first: each inner action is
    evaluated at its literal spectral polynomial and the outer kernel
    rewrites whatever ``d`` dependence the inner result carries.  The CLI
    reports this reading beside :func:`check_matched_pair` and flags any
    disagreement between the two verdicts; it is never silently resolved.
    """
    if mp.kind != LIE:
        raise ValueError("direct compatibility check applies to Lie pairs")
    violations = []
    r_basis = [mp.R.basis_element(i) for i in range(mp.R.rank)]
    q_basis = [mp.Q.basis_element(i) for i in range(mp.Q.rank)]
    s_l = -_PL1 - _PD
    s_m = -_PL2 - _PD
    s_lm = -_PL1 - _PL2 - _PD
    l_plus_m = _PL1 + _PL2
    # every inner evaluation depends on two of the three indices only
    rhd_l = [[action_eval(mp.rhd, x, a, s_l) for a in r_basis] for x in q_basis]
    rhd_m = [[action_eval(mp.rhd, x, a, s_m) for a in r_basis] for x in q_basis]
    lhd_l = [[action_eval(mp.lhd, x, a, s_l) for a in r_basis] for x in q_basis]
    lhd_m = [[action_eval(mp.lhd, x, a, s_m) for a in r_basis] for x in q_basis]
    r_at_l = [[product_eval(mp.R, a, b, _PL1) for b in r_basis] for a in r_basis]
    q_at_m = [[product_eval(mp.Q, x, y, _PL2) for y in q_basis] for x in q_basis]
    for x_i, x in enumerate(q_basis):
        for a_i, a in enumerate(r_basis):
            for b_i, b in enumerate(r_basis):
                lhs = action_eval(mp.rhd, x, r_at_l[a_i][b_i], s_lm)
                t1 = product_eval(mp.R, rhd_l[x_i][a_i], b, s_m)
                t2 = product_eval(mp.R, a, rhd_m[x_i][b_i], _PL1)
                t3 = action_eval(mp.rhd, lhd_l[x_i][a_i], b, s_m)
                t4 = action_eval(mp.rhd, lhd_m[x_i][b_i], a, s_l)
                residual = lhs - t1 - t2 - t3 + t4
                if not residual.is_zero:
                    violations.append(
                        Violation("cross-left", (x_i, a_i, b_i), residual, mp.R.basis)
                    )
    for x_i, x in enumerate(q_basis):
        for y_i, y in enumerate(q_basis):
            for a_i, a in enumerate(r_basis):
                lhs = action_eval(mp.lhd, q_at_m[x_i][y_i], a, s_l)
                t1 = product_eval(mp.Q, x, lhd_l[y_i][a_i], _PL2)
                t2 = product_eval(mp.Q, lhd_l[x_i][a_i], y, l_plus_m)
                t3 = action_eval(mp.lhd, x, rhd_l[y_i][a_i], _PL2)
                t4 = action_eval(mp.lhd, y, rhd_l[x_i][a_i], s_lm)
                residual = lhs - t1 - t2 - t3 + t4
                if not residual.is_zero:
                    violations.append(
                        Violation("cross-right", (x_i, y_i, a_i), residual, mp.Q.basis)
                    )
    return CheckReport(tuple(violations))
