import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit.actions
from cfkit.actions import (
    MatchedPair,
    _layout,
    build_bicrossed,
    check_b1_b2_direct,
    check_matched_pair,
)
from cfkit.algebra import (
    ASSOCIATIVE,
    CheckReport,
    ConformalAlgebra,
    LIE,
    Violation,
    _constants,
    _sparse,
    check_axioms,
)
from cfkit.deform import check_deformation_map, deformed_algebra
from cfkit.poly import D, L1, L2, MultiPoly

from helpers import (
    abelian, action_eval, action_table, add, assoc4_doc, basis_element, bundled, element,
    entries, neg, nfold_doc, pair_with, product_at, reference_constants,
    reference_spectral_eval, sub, sv_doc, trivial_pair, vir_algebra, wab_doc,
)
from test_deform import explicit_graph_embedding

d = MultiPoly.var(D)
l = MultiPoly.var(L1)

_PD = d
_PL1 = l
_PL2 = MultiPoly.var(L2)

#: The sides of a module action: the acting algebra's elements come first
#: in the infix notation of a left action and second in that of a right one.
LEFT = "left"
RIGHT = "right"


# -- reference: the composite matched-pair check, identity by identity ----------
#
# ``check_matched_pair`` decides a pair by the axioms of its bicrossed product
# alone.  The functions below are the composite check it replaces: component
# axioms, the module laws expanded by hand, the bimodule compatibilities of an
# associative pair, and then E's axioms.  They are kept as the reference for
# the differential test at the end of this file.


def _carrier_basis(rank: int) -> list[tuple]:
    out = []
    for i in range(rank):
        coords = [MultiPoly.zero()] * rank
        coords[i] = MultiPoly.const(1)
        out.append(tuple(coords))
    return out


def check_module(side: str, alg: ConformalAlgebra, act) -> CheckReport:
    """The module law of the ``side`` action of ``alg`` whose table is
    ``act``, for ``alg``'s kind, expanded by hand on a basis."""
    rank = len(act[0][0])
    carrier = _carrier_basis(rank)
    names = tuple(f"v{i}" for i in range(rank))
    violations = []
    for i in range(alg.rank):
        ei = basis_element(alg, i)
        for j in range(alg.rank):
            ej = basis_element(alg, j)
            for k, vk in enumerate(carrier):
                if alg.kind == LIE and side == LEFT:
                    residual = add(
                        action_eval(act, product_at(alg, ei, ej, _PL1), vk, _PL1 + _PL2),
                        neg(action_eval(act, ei, action_eval(act, ej, vk, _PL2), _PL1)),
                        action_eval(act, ej, action_eval(act, ei, vk, _PL1), _PL2),
                    )
                    name = "left-module"
                elif alg.kind == LIE and side == RIGHT:
                    residual = add(
                        action_eval(act, vk, product_at(alg, ei, ej, _PL1), _PL2),
                        neg(action_eval(act, action_eval(act, vk, ei, _PL2), ej, _PL1 + _PL2)),
                        action_eval(act, action_eval(act, vk, ej, _PL2), ei, -_PL1 - _PD),
                    )
                    name = "right-module"
                elif side == LEFT:
                    residual = sub(
                        action_eval(act, product_at(alg, ei, ej, _PL1), vk, _PL1 + _PL2),
                        action_eval(act, ei, action_eval(act, ej, vk, _PL2), _PL1),
                    )
                    name = "left-module"
                else:
                    residual = sub(
                        action_eval(act, action_eval(act, vk, ei, _PL1), ej, _PL1 + _PL2),
                        action_eval(act, vk, product_at(alg, ei, ej, _PL2), _PL1),
                    )
                    name = "right-module"
                if any(residual):
                    violations.append(Violation(name, (i, j, k), residual, names))
    return CheckReport(tuple(violations))


def check_bimodule(alg: ConformalAlgebra, left, right) -> CheckReport:
    """Full bimodule check of the left and right actions of ``alg`` whose
    tables are ``left`` and ``right``: both module laws plus their
    compatibility.

    Compatibility alone is not discriminating enough; a table can satisfy it
    while failing to be a module at all, so both one-sided laws are included
    in the verdict.
    """
    if alg.kind != ASSOCIATIVE:
        raise ValueError("bimodule compatibility applies to associative kind only")
    rank = len(left[0][0])
    if (len(left), len(left[0]), len(right), len(right[0]), len(right[0][0])) != (
        alg.rank, rank, rank, alg.rank, rank
    ):
        raise ValueError("actions must share the acting algebra and carrier")
    carrier = _carrier_basis(rank)
    names = tuple(f"v{i}" for i in range(rank))
    violations = list(check_module(LEFT, alg, left).violations)
    violations.extend(check_module(RIGHT, alg, right).violations)
    for i in range(alg.rank):
        ei = basis_element(alg, i)
        for k, vk in enumerate(carrier):
            lv = action_eval(left, ei, vk, _PL1)
            for j in range(alg.rank):
                ej = basis_element(alg, j)
                residual = sub(
                    action_eval(right, lv, ej, _PL1 + _PL2),
                    action_eval(left, ei, action_eval(right, vk, ej, _PL2), _PL1),
                )
                if any(residual):
                    violations.append(Violation("bimodule", (i, k, j), residual, names))
    return CheckReport(tuple(violations))


def reference_check_matched_pair(mp: MatchedPair) -> CheckReport:
    act = {attr: action_table(mp, attr) for attr, *_ in _layout(mp.kind)}
    parts = [
        ("R", check_axioms(mp.R)),
        ("Q", check_axioms(mp.Q)),
        ("lhd", check_module(RIGHT, mp.R, act["lhd"])),
        ("rhd", check_module(LEFT, mp.Q, act["rhd"])),
    ]
    if mp.kind == ASSOCIATIVE:
        parts.append(("lhu", check_module(RIGHT, mp.Q, act["lhu"])))
        parts.append(("rhu", check_module(LEFT, mp.R, act["rhu"])))
        parts.append(("Q-bimodule", check_bimodule(mp.R, act["rhu"], act["lhd"])))
        parts.append(("R-bimodule", check_bimodule(mp.Q, act["rhd"], act["lhu"])))
    parts.append(("E", check_axioms(build_bicrossed(mp))))
    return CheckReport(tuple(
        Violation(f"{prefix}:{v.identity}", v.indices, v.residual, v.basis)
        for prefix, report in parts
        for v in report.violations
    ))


def corpus_lie_pairs():
    return [
        wab_doc(1, 0).find("matched", "WP"),
        wab_doc(1, 3).find("matched", "WP"),
        wab_doc(2, 0).find("matched", "WP"),
        wab_doc(0, 1).find("matched", "WP"),
        nfold_doc().find("matched", "NP"),
        sv_doc().find("matched", "SVP"),
    ]


def split_current_pair():
    """Current-algebra split with a nontrivial left cross action."""
    r = abelian(LIE, ("E",))
    q = abelian(LIE, ("F",))
    return MatchedPair(LIE, r, q, {}, {(0, 0): {0: MultiPoly.const(-1)}})


class TestActionEval:
    def test_wab_action(self):
        pair = wab_doc(2, 0).find("matched", "WP")
        w = basis_element(pair.Q, 0)
        big_l = basis_element(pair.R, 0)
        out = action_eval(action_table(pair, "lhd"), w, big_l, l)
        assert out == (d + 2 * l,)

    def test_trivial_action_is_zero(self):
        pair = trivial_pair(vir_algebra(), abelian(LIE, ("W",)))
        w, big_l = basis_element(pair.Q, 0), basis_element(pair.R, 0)
        out = action_eval(action_table(pair, "lhd"), w, big_l, l)
        assert not any(out)

    def test_sv_constant_action(self):
        pair = sv_doc().find("matched", "SVP")
        m_el = element(pair.Q, {"M": 1})
        n_el = element(pair.R, {"N": 1})
        out = action_eval(action_table(pair, "lhd"), m_el, n_el, l)
        assert out == (MultiPoly.zero(), MultiPoly.const(-2))

    def test_dimension_mismatch(self):
        pair = nfold_doc().find("matched", "NP")
        big_l = basis_element(pair.R, 0)
        with pytest.raises(ValueError):
            action_eval(action_table(pair, "lhd"), big_l, big_l, l)


# the reference laws must hold on the bundled actions and catch broken ones
class TestCheckModule:
    @pytest.mark.parametrize("a,b", [(1, 0), (1, 3), (2, 0)])
    def test_wab_right_action(self, a, b):
        pair = wab_doc(a, b).find("matched", "WP")
        assert check_module(RIGHT, pair.R, action_table(pair, "lhd")).passed

    def test_trivial_passes(self):
        pair = trivial_pair(vir_algebra(), abelian(LIE, ("W",)))
        assert check_module(RIGHT, pair.R, action_table(pair, "lhd")).passed
        assert check_module(LEFT, pair.Q, action_table(pair, "rhd")).passed

    def test_sv_right_action(self):
        pair = sv_doc().find("matched", "SVP")
        assert check_module(RIGHT, pair.R, action_table(pair, "lhd")).passed

    def test_broken_action_fails(self):
        vir = vir_algebra()
        # wrong coefficient: not a module over the rank-one table
        assert not check_module(RIGHT, vir, (((d + l,),),)).passed

    def test_associative_left_and_right(self):
        pair = assoc4_doc().find("matched", "AP")
        act = {attr: action_table(pair, attr) for attr, *_ in _layout(ASSOCIATIVE)}
        assert check_module(LEFT, pair.R, act["rhu"]).passed
        assert check_module(RIGHT, pair.R, act["lhd"]).passed
        assert check_module(LEFT, pair.Q, act["rhd"]).passed
        assert check_module(RIGHT, pair.Q, act["lhu"]).passed


class TestCheckBimodule:
    def test_four_generator_example(self):
        pair = assoc4_doc().find("matched", "AP")
        act = {attr: action_table(pair, attr) for attr, *_ in _layout(ASSOCIATIVE)}
        assert check_bimodule(pair.R, act["rhu"], act["lhd"]).passed
        assert check_bimodule(pair.Q, act["rhd"], act["lhu"]).passed

    def test_both_trivial(self):
        a2 = assoc4_doc().find("algebra", "A2")
        zero = ((MultiPoly.zero(),) * a2.rank,) * a2.rank
        assert check_bimodule(a2, (zero,) * a2.rank, (zero,) * a2.rank).passed

    def test_wrong_side_copy_fails(self):
        pair = assoc4_doc().find("matched", "AP")
        # feed the left-action table in as a right action: shapes are square
        # here so this parses, but the compatibility identity breaks
        rhu = action_table(pair, "rhu")
        assert not check_bimodule(pair.R, rhu, rhu).passed


class TestBuildBicrossed:
    def test_wab_reconstruction(self):
        doc = wab_doc(1, 0)
        pair = doc.find("matched", "WP")
        assert build_bicrossed(pair) == doc.find("algebra", "Wab")

    def test_trivial_actions_give_direct_sum(self):
        r = vir_algebra()
        q = abelian(LIE, ("W",))
        big = build_bicrossed(trivial_pair(r, q))
        assert big.table[0][0] == (d + 2 * l, MultiPoly.zero())
        assert all(c.is_zero for c in big.table[0][1])
        assert all(c.is_zero for c in big.table[1][0])
        assert check_axioms(big).passed

    def test_four_generator_reconstruction(self):
        doc = assoc4_doc()
        pair = doc.find("matched", "AP")
        assert build_bicrossed(pair) == doc.find("algebra", "E4")

    def test_sv_reconstruction(self):
        doc = sv_doc()
        pair = doc.find("matched", "SVP")
        assert build_bicrossed(pair) == doc.find("algebra", "SV")

    def test_components_embed_as_subalgebras(self):
        pair = sv_doc().find("matched", "SVP")
        big = build_bicrossed(pair)
        nr = pair.R.rank
        for i in range(nr):
            for j in range(nr):
                assert big.table[i][j][:nr] == pair.R.table[i][j]
                assert all(c.is_zero for c in big.table[i][j][nr:])
        for i in range(pair.Q.rank):
            for j in range(pair.Q.rank):
                assert big.table[nr + i][nr + j][nr:] == pair.Q.table[i][j]
                assert all(c.is_zero for c in big.table[nr + i][nr + j][:nr])

    def test_direct_sum_fails_iff_component_fails(self):
        bad = ConformalAlgebra(LIE, ("L",), {(0, 0): {0: d + 3 * l}})
        good = abelian(LIE, ("W",))
        assert not check_axioms(build_bicrossed(trivial_pair(bad, good))).passed
        assert check_axioms(build_bicrossed(trivial_pair(vir_algebra(), good))).passed


class TestCheckMatchedPair:
    @pytest.mark.parametrize("a,b", [(1, 0), (2, 0), (1, 3)])
    def test_wab_passes(self, a, b):
        assert check_matched_pair(wab_doc(a, b).find("matched", "WP")).passed

    def test_trivial_pair_passes(self):
        assert check_matched_pair(trivial_pair(vir_algebra(), abelian(LIE, ("W",)))).passed

    def test_sign_flip_fails(self):
        pair = wab_doc(2, 0).find("matched", "WP")
        broken = pair_with(pair, lhd={(0, 0): {0: -action_table(pair, "lhd")[0][0][0]}})
        assert not check_matched_pair(broken).passed

    def test_associative_pair_passes(self):
        assert check_matched_pair(assoc4_doc().find("matched", "AP")).passed

    def test_split_current_pair_passes(self):
        assert check_matched_pair(split_current_pair()).passed

    @pytest.mark.parametrize("field, entry, message", [
        ("lhd", {(1, 0): {0: d}}, "lhd entry (1, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 1): {0: d}}, "lhd entry (0, 1) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(-1, 0): {0: d}}, "lhd entry (-1, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): {1: d}}, "lhd entry (0, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): {-1: d}}, "lhd entry (0, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): {0.0: d}}, "lhd entry (0, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): {"W": d}}, "lhd entry (0, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(False, 0): {0: d}}, "lhd entry (False, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): (d,)}, "lhd entry (0, 0) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): ()}, "lhd entry (0, 0) does not fit the shape 1 x 1 x 1"),
        ("rhd", {(0, 1): {0: d}}, "rhd entry (0, 1) does not fit the shape 1 x 1 x 1"),
        ("lhd", {(0, 0): {0: d + MultiPoly.var(L2)}},
         "lhd entry d + m uses variables other than d, l"),
        ("lhd", {(0, 0): {0: 3}}, "lhd entry (0, 0) has a non-polynomial coefficient"),
        ("rhd", {(0, 0): {0: Fraction(1, 2)}},
         "rhd entry (0, 0) has a non-polynomial coefficient"),
        ("lhd", {0: {0: d}}, "lhd entries must be keyed by (i, j) pairs"),
    ], ids=["row", "column", "negative-row", "coordinate", "negative-coordinate",
            "float-coordinate", "name-coordinate", "bool-row", "dense", "short",
            "rhd-column", "m-coefficient", "int-coefficient", "rhd-fraction-coefficient",
            "int-key"])
    def test_bad_action_table_is_named(self, field, entry, message):
        pair = wab_doc(2, 0).find("matched", "WP")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pair_with(pair, **{field: entry})

    def test_overlapping_names_are_refused(self):
        """R and Q that share a generator name are refused where the pair is
        made, in the parser's words, not at its first check."""
        vir = vir_algebra()
        renamed = ConformalAlgebra(LIE, ("W",), {(0, 0): {0: d + 2 * l}})
        with pytest.raises(ValueError, match="^R and Q generator names must not overlap$"):
            trivial_pair(vir, vir_algebra())
        with pytest.raises(ValueError, match="^R and Q generator names must not overlap$"):
            pair_with(wab_doc(2, 0).find("matched", "WP"), Q=vir)
        assert check_matched_pair(trivial_pair(vir, renamed)).passed

    @pytest.mark.parametrize("field", ["lhd", "rhd"])
    def test_missing_lie_action_is_named(self, field):
        pair = wab_doc(2, 0).find("matched", "WP")
        with pytest.raises(ValueError, match=f"lie pairs need the {field} action"):
            pair_with(pair, **{field: None})


class TestDirectCompatibility:
    def test_agrees_with_normative_on_corpus(self):
        for pair in corpus_lie_pairs():
            assert check_b1_b2_direct(pair).passed == check_matched_pair(pair).passed

    def test_agrees_on_nontrivial_left_action(self):
        pair = split_current_pair()
        assert check_b1_b2_direct(pair).passed == check_matched_pair(pair).passed

    def test_broken_pair_fails_normative(self):
        # the direct identities only cover the cross conditions, so on a pair
        # whose module law is broken they can still hold vacuously; only the
        # normative check is the arbiter there
        pair = wab_doc(2, 0).find("matched", "WP")
        broken = pair_with(pair, lhd={(0, 0): {0: -action_table(pair, "lhd")[0][0][0]}})
        assert not check_matched_pair(broken).passed

    def test_lie_only(self):
        with pytest.raises(ValueError):
            check_b1_b2_direct(assoc4_doc().find("matched", "AP"))


class TestBicrossedBuiltOnce:
    def test_one_build_per_pair(self, monkeypatch):
        calls = []
        original = cfkit.actions.build_bicrossed

        def counting(mp):
            calls.append(mp)
            return original(mp)

        monkeypatch.setattr(cfkit.actions, "build_bicrossed", counting)
        doc = wab_doc(1, 0, 3)
        pair, phi = doc.find("matched", "WP"), doc.find("defmap", "phi")
        assert check_matched_pair(pair).passed
        assert check_deformation_map(pair, phi).passed
        deformed_algebra(pair, phi)
        assert explicit_graph_embedding(pair, phi) == ()
        assert calls == [pair]

    def test_cache_is_not_a_field(self):
        first = wab_doc(1, 0).find("matched", "WP")
        second = wab_doc(1, 0).find("matched", "WP")
        hash_before = hash(first)
        assert first.bicrossed == build_bicrossed(second)
        assert first == second
        assert hash(first) == hash_before == hash(second)


def test_stored_action_constants_are_compared_not_hashed():
    """Each action is stored once, as its canonical constants in its own
    field: equality compares them, the hash reads the kind and algebras."""
    first = wab_doc(1, 0).find("matched", "WP")
    assert first == wab_doc(1, 0).find("matched", "WP")
    assert first.lhd == ({0: ((0, action_table(first, "lhd")[0][0][0]),)},)
    other = pair_with(first, lhd={(0, 0): {0: d}})
    assert other != first and hash(other) == hash(first)
    assert not hasattr(first, "constants")


class TestAxiomsCheckedOnce:
    def test_one_check_per_pair(self, monkeypatch):
        calls = []
        original = cfkit.actions.check_axioms

        def counting(algebra):
            calls.append(algebra)
            return original(algebra)

        monkeypatch.setattr(cfkit.actions, "check_axioms", counting)
        for pair in (wab_doc(1, 3).find("matched", "WP"), split_current_pair()):
            calls.clear()
            assert check_matched_pair(pair).passed
            assert check_b1_b2_direct(pair).passed
            assert check_matched_pair(pair).passed
            assert calls == [pair.bicrossed]

    def test_cache_is_not_a_field(self):
        first = wab_doc(1, 0).find("matched", "WP")
        second = wab_doc(1, 0).find("matched", "WP")
        hash_before = hash(first)
        assert first.axioms == check_axioms(build_bicrossed(second))
        assert first == second
        assert hash(first) == hash_before == hash(second)


# -- differential test: E's axioms against the composite reference --------------

# eight pairs: the Lie pairs of the corpus, the associative pair AP and the
# direct sum of its two components
PERTURBED_PAIRS = {
    "WP(1,0)": lambda: wab_doc(1, 0).find("matched", "WP"),
    "WP(1,3)": lambda: wab_doc(1, 3).find("matched", "WP"),
    "WP(2,0)": lambda: wab_doc(2, 0).find("matched", "WP"),
    "WP(0,1)": lambda: wab_doc(0, 1).find("matched", "WP"),
    "NP": lambda: nfold_doc().find("matched", "NP"),
    "SVP": lambda: sv_doc().find("matched", "SVP"),
    "AP": lambda: assoc4_doc().find("matched", "AP"),
    "A2+Q2": lambda: trivial_pair(
        assoc4_doc().find("algebra", "A2"), assoc4_doc().find("algebra", "Q2")
    ),
}


def _bump(table, i, j, k, delta):
    rows = [list(row) for row in table]
    entry = list(rows[i][j])
    entry[k] = entry[k] + delta
    rows[i][j] = tuple(entry)
    return tuple(tuple(row) for row in rows)


def perturb(pair: MatchedPair, rng: random.Random) -> MatchedPair:
    """The pair with one entry of one component or action table shifted by a
    small multiple of ``1``, ``d``, ``l`` or ``d + 2l``."""
    names = ["R", "Q", "lhd", "rhd"] + (["lhu", "rhu"] if pair.kind == ASSOCIATIVE else [])
    target = rng.choice(names)
    old = getattr(pair, target)
    table = old.table if target in ("R", "Q") else action_table(pair, target)
    i, j = rng.randrange(len(table)), rng.randrange(len(table[0]))
    k = rng.randrange(len(table[0][0]))
    delta = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2)) * rng.choice(
        (MultiPoly.const(1), d, l, d + 2 * l)
    )
    bumped = entries(_bump(table, i, j, k, delta))
    if target in ("R", "Q"):
        bumped = ConformalAlgebra(old.kind, old.basis, bumped)
    return pair_with(pair, **{target: bumped})


class TestMatchedPairMatchesComposite:
    def test_perturbed_pairs(self):
        rng = random.Random("matched-pair-differential")
        pairs = {label: make() for label, make in PERTURBED_PAIRS.items()}
        verdicts = {True: 0, False: 0}
        for n in range(320):
            label = sorted(pairs)[n % len(pairs)]
            pair = perturb(pairs[label], rng)
            got = check_matched_pair(pair)
            want = reference_check_matched_pair(pair)
            assert got.passed == want.passed, label
            assert got.violations == tuple(
                v for v in want.violations if v.identity.startswith("E:")
            ), label
            verdicts[got.passed] += 1
        assert verdicts[True] and verdicts[False], verdicts


# -- differential test: E built by placing tables against E built by evaluation -


def reference_build_bicrossed(mp: MatchedPair) -> ConformalAlgebra:
    """``build_bicrossed`` as it was before E was built by placing the action
    tables: every cross entry evaluated with ``action_eval`` on basis
    elements, with separate Lie and associative branches."""
    nr, nq = mp.R.rank, mp.Q.rank
    n = nr + nq
    zero = MultiPoly.zero()
    flip = -_PL1 - _PD

    def pad(r_part, q_part):
        return tuple(r_part or (zero,) * nr) + tuple(q_part or (zero,) * nq)

    r_basis = [basis_element(mp.R, i) for i in range(nr)]
    q_basis = [basis_element(mp.Q, i) for i in range(nq)]
    act = {attr: action_table(mp, attr) for attr, *_ in _layout(mp.kind)}
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
                r_part = neg(action_eval(act["rhd"], q_basis[j], r_basis[i], flip))
                q_part = neg(action_eval(act["lhd"], q_basis[j], r_basis[i], flip))
                table[i][nr + j] = pad(r_part, q_part)
        for i in range(nq):
            for j in range(nr):
                r_part = action_eval(act["rhd"], q_basis[i], r_basis[j], _PL1)
                q_part = action_eval(act["lhd"], q_basis[i], r_basis[j], _PL1)
                table[nr + i][j] = pad(r_part, q_part)
    else:
        for i in range(nr):
            for j in range(nq):
                r_part = action_eval(act["lhu"], r_basis[i], q_basis[j], _PL1)
                q_part = action_eval(act["rhu"], r_basis[i], q_basis[j], _PL1)
                table[i][nr + j] = pad(r_part, q_part)
        for i in range(nq):
            for j in range(nr):
                r_part = action_eval(act["rhd"], q_basis[i], r_basis[j], _PL1)
                q_part = action_eval(act["lhd"], q_basis[i], r_basis[j], _PL1)
                table[nr + i][j] = pad(r_part, q_part)
    names = mp.R.basis + mp.Q.basis
    return ConformalAlgebra(mp.kind, names, entries(table))


class TestBicrossedMatchesEvaluation:
    def test_perturbed_pairs(self):
        # the 320 pairs of TestMatchedPairMatchesComposite: same seed, same draws
        rng = random.Random("matched-pair-differential")
        pairs = {label: make() for label, make in PERTURBED_PAIRS.items()}
        for n in range(320):
            label = sorted(pairs)[n % len(pairs)]
            pair = perturb(pairs[label], rng)
            assert build_bicrossed(pair) == reference_build_bicrossed(pair), label

    def test_trivial_pairs(self):
        nfold, sv, assoc = nfold_doc(), sv_doc(a=2, b=1), assoc4_doc(q=2, s=3)
        for r, q in [
            (vir_algebra(), abelian(LIE, ("W", "V"))),
            (nfold.find("algebra", "VirR"), nfold.find("algebra", "D3")),
            (sv.find("algebra", "RLN"), sv.find("algebra", "QYM")),
            (assoc.find("algebra", "A2"), assoc.find("algebra", "Qbd")),
        ]:
            pair = trivial_pair(r, q)
            assert build_bicrossed(pair) == reference_build_bicrossed(pair)

    def test_bundled_pairs(self):
        seen = []
        for label, pair in bundled("matched"):
            assert build_bicrossed(pair) == reference_build_bicrossed(pair), label
            seen.append(pair.kind)
        assert LIE in seen and ASSOCIATIVE in seen


# -- basis products read off the table against the kernel -----------------------

#: The spectral parameters at which the checks read basis products.
CHECK_PARAMETERS = (
    _PL1, _PL2, _PL1 + _PL2, -_PL1 - _PD, -_PL2 - _PD, -_PL1 - _PL2 - _PD
)


def _shape(table) -> tuple[int, int, int]:
    return len(table), len(table[0]), len(table[0][0])


def _dense_at(constants, shape, s):
    """``_sparse(constants, s)`` as a dense table of ``shape``, after
    checking that it lists no zero entry and no zero coefficient."""
    rows, cols, width = shape
    zero = MultiPoly.zero()
    at = _sparse(constants, s)
    for i, row in enumerate(at):
        for j, pairs in row.items():
            assert pairs and all(c for _, c in pairs), (i, j)
    return tuple(
        tuple(tuple(dict(row.get(j, ())).get(k, zero) for k in range(width))
              for j in range(cols))
        for row in at
    )


def _reference_at(table, s):
    """Every entry of ``table`` at ``s``, from the reference kernel on two
    unit vectors."""
    rows, cols, width = _shape(table)
    return tuple(
        tuple(reference_spectral_eval(table, width, x, y, s) for y in _carrier_basis(cols))
        for x in _carrier_basis(rows)
    )


def _in_order(constants):
    """Stored constants as lists, so that a comparison also pins the order
    of each row's columns."""
    return [list(row.items()) for row in constants]


def _stored_from_entries(table, what, given):
    """The constants ``_constants`` stores from ``given``, entries equal to
    the dense ``table``; they must be the reference walk's, order included."""
    shape = _shape(table)
    stored = _constants(given, shape, what)
    assert _in_order(stored) == _in_order(reference_constants(table, shape, what))
    return stored


def _backwards(table) -> dict:
    """Every entry of the dense ``table``, zero ones included, with entries
    and coordinates in reverse order."""
    given = entries(table)
    return {key: dict(reversed(given[key].items())) for key in reversed(given)}


def _drawn_entries(data, table) -> dict:
    """The entries of the dense ``table`` as a caller may give them: entries
    and coordinates in drawn orders, and each zero entry and zero coefficient
    given or left out as drawn."""
    rows, cols, width = _shape(table)
    given = {}
    for i, j in data.draw(st.permutations([(i, j) for i in range(rows) for j in range(cols)])):
        entry = table[i][j]
        coords = {k: entry[k] for k in data.draw(st.permutations(range(width)))
                  if entry[k] or data.draw(st.booleans())}
        if coords or data.draw(st.booleans()):
            given[i, j] = coords
    return given


_half = st.fractions(min_value=-2, max_value=2, max_denominator=2)
#: a table coefficient: zero, in ``d`` only, in ``l`` only, or in both
_coefficients = st.one_of(
    st.just(MultiPoly.zero()),
    st.builds(lambda a, b: a + b * d, _half, _half),
    st.builds(lambda a, b: a * l + b * l**2, _half, _half),
    st.builds(lambda a, b: a * d * l + b, _half, _half),
)


@st.composite
def random_tables(draw):
    """A table of 1 to 3 rows, columns and coordinates; about a third of
    its entries are zero, and a quarter of the others' coefficients."""
    rows, cols, width = (draw(st.integers(1, 3)) for _ in range(3))
    zero = (MultiPoly.zero(),) * width
    return tuple(
        tuple(
            zero if draw(st.integers(0, 2)) == 0
            else tuple(draw(_coefficients) for _ in range(width))
            for _ in range(cols)
        )
        for _ in range(rows)
    )


def test_stored_constants_of_bundled_algebras():
    """The constants stored from a table's entries, entries and coordinates
    given in reverse order, are what the reference walk reads off the dense
    table, in row, column and coordinate order; so are those an algebra, a
    pair and E keep."""
    labels = []
    for label, alg in bundled("algebra"):
        stored = _stored_from_entries(alg.table, "table", _backwards(alg.table))
        assert stored == alg.constants, label
        labels.append(label)
    for label, pair in bundled("matched"):
        big = pair.bicrossed
        assert _in_order(big.constants) == _in_order(
            reference_constants(big.table, _shape(big.table), "table")
        ), label
        for attr, *_ in _layout(pair.kind):
            act = action_table(pair, attr)
            assert _stored_from_entries(act, attr, _backwards(act)) == getattr(pair, attr), label
        labels.append(label)
    assert len(labels) >= 20


@given(table=random_tables(), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_stored_constants_of_random_tables(table, data):
    """The same for tables with zero entries and coefficients, and entries
    in ``d`` only or ``l`` only, given as :func:`_drawn_entries` draws them:
    what ``_constants`` returns, and what a square one's algebra stores."""
    rows, cols, width = _shape(table)
    given = _drawn_entries(data, table)
    stored = _stored_from_entries(table, "table", given)
    if rows == cols == width:
        alg = ConformalAlgebra(LIE, tuple(f"E{i}" for i in range(rows)), given)
        assert _in_order(alg.constants) == _in_order(stored)
        assert alg.table == table


@pytest.mark.parametrize("s", CHECK_PARAMETERS, ids=str)
class TestTableAt:
    """``_sparse`` at ``s`` of the stored constants is the reference kernel
    on two unit vectors, entry for entry, and lists only nonzero entries and
    coefficients."""

    def test_bundled_algebras(self, s):
        labels = []
        for label, alg in bundled("algebra"):
            at = _dense_at(alg.constants, _shape(alg.table), s)
            assert at == _reference_at(alg.table, s), label
            labels.append(label)
        assert len(labels) >= 10

    @given(table=random_tables())
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def test_random_tables(self, s, table):
        constants = _constants(entries(table), _shape(table), "table")
        assert _dense_at(constants, _shape(table), s) == _reference_at(table, s)

    def test_bundled_action_tables(self, s):
        kinds = set()
        for label, pair in bundled("matched"):
            ranks = {"R": pair.R.rank, "Q": pair.Q.rank}
            for field, _, left, right, _ in _layout(pair.kind):
                act = action_table(pair, field)
                rows, cols = _carrier_basis(ranks[left]), _carrier_basis(ranks[right])
                expected = tuple(tuple(action_eval(act, x, y, s) for y in cols)
                                 for x in rows)
                constants = getattr(pair, field)
                assert _dense_at(constants, _shape(act), s) == expected, f"{label}.{field}"
                kinds.add(pair.kind)
        assert kinds == {LIE, ASSOCIATIVE}


# -- differential test: the tabulated direct cross check against nested loops ---


def reference_check_b1_b2_direct(mp: MatchedPair) -> CheckReport:
    """``check_b1_b2_direct`` with every nested term evaluated afresh for
    each triple, before its inner evaluations were tabulated."""
    violations = []
    r_basis = [basis_element(mp.R, i) for i in range(mp.R.rank)]
    q_basis = [basis_element(mp.Q, i) for i in range(mp.Q.rank)]
    lhd, rhd = action_table(mp, "lhd"), action_table(mp, "rhd")
    s_l = -_PL1 - _PD
    s_m = -_PL2 - _PD
    s_lm = -_PL1 - _PL2 - _PD
    for x_i, x in enumerate(q_basis):
        for a_i, a in enumerate(r_basis):
            for b_i, b in enumerate(r_basis):
                lhs = action_eval(rhd, x, product_at(mp.R, a, b, _PL1), s_lm)
                t1 = product_at(mp.R, action_eval(rhd, x, a, s_l), b, s_m)
                t2 = product_at(mp.R, a, action_eval(rhd, x, b, s_m), _PL1)
                t3 = action_eval(rhd, action_eval(lhd, x, a, s_l), b, s_m)
                t4 = action_eval(rhd, action_eval(lhd, x, b, s_m), a, s_l)
                residual = sub(lhs, add(t1, t2, sub(t3, t4)))
                if any(residual):
                    violations.append(
                        Violation("cross-left", (x_i, a_i, b_i), residual, mp.R.basis)
                    )
    for x_i, x in enumerate(q_basis):
        for y_i, y in enumerate(q_basis):
            for a_i, a in enumerate(r_basis):
                lhs = action_eval(lhd, product_at(mp.Q, x, y, _PL2), a, s_l)
                t1 = product_at(mp.Q, x, action_eval(lhd, y, a, s_l), _PL2)
                t2 = product_at(mp.Q, action_eval(lhd, x, a, s_l), y, _PL1 + _PL2)
                t3 = action_eval(lhd, x, action_eval(rhd, y, a, s_l), _PL2)
                t4 = action_eval(lhd, y, action_eval(rhd, x, a, s_l), s_lm)
                residual = sub(lhs, add(t1, t2, sub(t3, t4)))
                if any(residual):
                    violations.append(
                        Violation("cross-right", (x_i, y_i, a_i), residual, mp.Q.basis)
                    )
    return CheckReport(tuple(violations))


class TestDirectCompatibilityMatchesNestedLoops:
    def test_perturbed_lie_pairs(self):
        rng = random.Random("direct-compatibility-differential")
        pairs = {label: make() for label, make in PERTURBED_PAIRS.items()}
        lie = sorted(label for label, pair in pairs.items() if pair.kind == LIE)
        verdicts = {True: 0, False: 0}
        # both branches of E's Jacobi check: the full loop, and orbits
        failing = {"skew": 0, "jacobi": 0}
        for n in range(300):
            label = lie[n % len(lie)]
            pair = perturb(pairs[label], rng)
            got = check_b1_b2_direct(pair)
            assert got.violations == reference_check_b1_b2_direct(pair).violations, label
            verdicts[got.passed] += 1
            first = {v.identity.split(":")[0] for v in pair.axioms.violations}
            for part in ("skew", "jacobi"):
                if part in first:
                    failing[part] += 1
                    break
        assert verdicts[True] and verdicts[False], verdicts
        assert failing["skew"] and failing["jacobi"], failing


class TestCrossLeftOffTheLieLocus:
    """Where R's skew-symmetry fails, the projection of E's Jacobiator and
    the nested evaluation of cross-left differ by R's skew defect at
    (b, x |>_{-l-d} a), and by nothing else."""

    def test_doubly_perturbed_pairs(self):
        rng = random.Random("cross-left-off-the-lie-locus")
        pairs = [make() for label, make in sorted(PERTURBED_PAIRS.items())]
        lie = [pair for pair in pairs if pair.kind == LIE]
        differ = 0
        for n in range(60):
            pair = perturb(perturb(lie[n % len(lie)], rng), rng)
            got = check_b1_b2_direct(pair).violations
            want = reference_check_b1_b2_direct(pair).violations
            assert [v for v in got if v.identity == "cross-right"] == [
                v for v in want if v.identity == "cross-right"
            ]
            got = {v.indices: v.residual for v in got if v.identity == "cross-left"}
            want = {v.indices: v.residual for v in want if v.identity == "cross-left"}
            zero = (MultiPoly.zero(),) * pair.R.rank
            r_basis = [basis_element(pair.R, i) for i in range(pair.R.rank)]
            rhd = action_table(pair, "rhd")
            for x, x_el in enumerate(basis_element(pair.Q, i) for i in range(pair.Q.rank)):
                for a, a_el in enumerate(r_basis):
                    y = action_eval(rhd, x_el, a_el, -_PL1 - _PD)
                    for b, b_el in enumerate(r_basis):
                        defect = add(
                            product_at(pair.R, b_el, y, _PL2),
                            product_at(pair.R, y, b_el, -_PL2 - _PD),
                        )
                        projected = got.get((x, a, b), zero)
                        assert sub(projected, defect) == want.get((x, a, b), zero)
                        differ += any(defect)
        assert differ
