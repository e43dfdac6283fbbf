"""Module actions over conformal algebras, matched pairs, bicrossed products.

An action table is evaluated with the same kernel as an algebra product;
``action_eval(act, x, v, s)`` takes its two arguments in the order they
appear in the infix notation, so ``x <| a`` and ``a ~> x`` both read
left-to-right.  The normative matched-pair test builds the bicrossed product
and checks its axioms; the direct two-identity check is a secondary
diagnostic whose agreement with the normative test is asserted, never
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    ASSOCIATIVE,
    CheckReport,
    ConformalAlgebra,
    GenElement,
    LIE,
    Violation,
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

    def is_trivial(self) -> bool:
        return all(c.is_zero for row in self.table for entry in row for c in entry)


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


def _carrier_basis(rank: int) -> list[GenElement]:
    out = []
    for i in range(rank):
        coords = [MultiPoly.zero()] * rank
        coords[i] = MultiPoly.const(1)
        out.append(GenElement(tuple(coords)))
    return out


def check_module(act: ModuleAction) -> CheckReport:
    """Check the side- and kind-appropriate composition identity on a basis."""
    alg = act.acting
    carrier = _carrier_basis(act.carrier_rank)
    names = tuple(f"v{i}" for i in range(act.carrier_rank))
    violations = []
    for i in range(alg.rank):
        ei = alg.basis_element(i)
        for j in range(alg.rank):
            ej = alg.basis_element(j)
            for k, vk in enumerate(carrier):
                if act.kind == LIE and act.side == LEFT:
                    residual = (
                        action_eval(act, product_eval(alg, ei, ej, _PL1), vk, _PL1 + _PL2)
                        - action_eval(act, ei, action_eval(act, ej, vk, _PL2), _PL1)
                        + action_eval(act, ej, action_eval(act, ei, vk, _PL1), _PL2)
                    )
                    name = "left-module"
                elif act.kind == LIE and act.side == RIGHT:
                    residual = (
                        action_eval(act, vk, product_eval(alg, ei, ej, _PL1), _PL2)
                        - action_eval(
                            act, action_eval(act, vk, ei, _PL2), ej, _PL1 + _PL2
                        )
                        + action_eval(
                            act, action_eval(act, vk, ej, _PL2), ei, -_PL1 - _PD
                        )
                    )
                    name = "right-module"
                elif act.side == LEFT:
                    residual = action_eval(
                        act, product_eval(alg, ei, ej, _PL1), vk, _PL1 + _PL2
                    ) - action_eval(act, ei, action_eval(act, ej, vk, _PL2), _PL1)
                    name = "left-module"
                else:
                    residual = action_eval(
                        act, action_eval(act, vk, ei, _PL1), ej, _PL1 + _PL2
                    ) - action_eval(act, vk, product_eval(alg, ei, ej, _PL2), _PL1)
                    name = "right-module"
                if not residual.is_zero:
                    violations.append(Violation(name, (i, j, k), residual, names))
    return CheckReport(tuple(violations))


def check_bimodule(left: ModuleAction, right: ModuleAction) -> CheckReport:
    """Full bimodule check: both module laws plus their compatibility.

    Compatibility alone is not discriminating enough; a table can satisfy it
    while failing to be a module at all, so both one-sided laws are included
    in the verdict.
    """
    if left.kind != ASSOCIATIVE or right.kind != ASSOCIATIVE:
        raise ValueError("bimodule compatibility applies to associative kind only")
    if left.side != LEFT or right.side != RIGHT:
        raise ValueError("expected a (left, right) action pair")
    if left.acting != right.acting or left.carrier_rank != right.carrier_rank:
        raise ValueError("actions must share the acting algebra and carrier")
    alg = left.acting
    carrier = _carrier_basis(left.carrier_rank)
    names = tuple(f"v{i}" for i in range(left.carrier_rank))
    violations = list(check_module(left).violations)
    violations.extend(check_module(right).violations)
    for i in range(alg.rank):
        ei = alg.basis_element(i)
        for k, vk in enumerate(carrier):
            lv = action_eval(left, ei, vk, _PL1)
            for j in range(alg.rank):
                ej = alg.basis_element(j)
                residual = action_eval(right, lv, ej, _PL1 + _PL2) - action_eval(
                    left, ei, action_eval(right, vk, ej, _PL2), _PL1
                )
                if not residual.is_zero:
                    violations.append(Violation("bimodule", (i, k, j), residual, names))
    return CheckReport(tuple(violations))


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
    """Normative test: component axioms, module laws, and the glued algebra.

    The bicrossed table's own axioms subsume the cross-compatibility
    conditions, so this check is independent of how nested spectral
    substitutions are read.
    """
    from .algebra import check_axioms  # local to keep module load order flat

    parts = [
        ("R", check_axioms(mp.R)),
        ("Q", check_axioms(mp.Q)),
        ("lhd", check_module(mp.lhd)),
        ("rhd", check_module(mp.rhd)),
    ]
    if mp.kind == ASSOCIATIVE:
        parts.append(("lhu", check_module(mp.lhu)))
        parts.append(("rhu", check_module(mp.rhu)))
        parts.append(("Q-bimodule", check_bimodule(mp.rhu, mp.lhd)))
        parts.append(("R-bimodule", check_bimodule(mp.rhd, mp.lhu)))
    parts.append(("E", check_axioms(build_bicrossed(mp))))
    return merge_reports(parts)


def check_b1_b2_direct(mp: MatchedPair) -> CheckReport:
    """Direct evaluation of the two Lie cross-compatibility identities.

    Nested terms are computed innermost first: each inner action is
    evaluated at its literal spectral polynomial and the outer kernel
    rewrites whatever ``d`` dependence the inner result carries.  This
    convention is cross-checked against :func:`check_matched_pair` by the
    test suite; a disagreement is a diagnostic, never silently resolved.
    """
    if mp.kind != LIE:
        raise ValueError("direct compatibility check applies to Lie pairs")
    violations = []
    r_basis = [mp.R.basis_element(i) for i in range(mp.R.rank)]
    q_basis = [mp.Q.basis_element(i) for i in range(mp.Q.rank)]
    s_l = -_PL1 - _PD
    s_m = -_PL2 - _PD
    s_lm = -_PL1 - _PL2 - _PD
    for x_i, x in enumerate(q_basis):
        for a_i, a in enumerate(r_basis):
            for b_i, b in enumerate(r_basis):
                lhs = action_eval(mp.rhd, x, product_eval(mp.R, a, b, _PL1), s_lm)
                t1 = product_eval(mp.R, action_eval(mp.rhd, x, a, s_l), b, s_m)
                t2 = product_eval(mp.R, a, action_eval(mp.rhd, x, b, s_m), _PL1)
                t3 = action_eval(mp.rhd, action_eval(mp.lhd, x, a, s_l), b, s_m)
                t4 = action_eval(mp.rhd, action_eval(mp.lhd, x, b, s_m), a, s_l)
                residual = lhs - t1 - t2 - t3 + t4
                if not residual.is_zero:
                    violations.append(
                        Violation("cross-left", (x_i, a_i, b_i), residual, mp.R.basis)
                    )
    for x_i, x in enumerate(q_basis):
        for y_i, y in enumerate(q_basis):
            for a_i, a in enumerate(r_basis):
                lhs = action_eval(mp.lhd, product_eval(mp.Q, x, y, _PL2), a, s_l)
                t1 = product_eval(mp.Q, x, action_eval(mp.lhd, y, a, s_l), _PL2)
                t2 = product_eval(mp.Q, action_eval(mp.lhd, x, a, s_l), y, _PL1 + _PL2)
                t3 = action_eval(mp.lhd, x, action_eval(mp.rhd, y, a, s_l), _PL2)
                t4 = action_eval(mp.lhd, y, action_eval(mp.rhd, x, a, s_l), s_lm)
                residual = lhs - t1 - t2 - t3 + t4
                if not residual.is_zero:
                    violations.append(
                        Violation("cross-right", (x_i, y_i, a_i), residual, mp.Q.basis)
                    )
    return CheckReport(tuple(violations))
