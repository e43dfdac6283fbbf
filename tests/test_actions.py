import pytest

from cfkit.actions import (
    LEFT,
    MatchedPair,
    ModuleAction,
    RIGHT,
    action_eval,
    build_bicrossed,
    check_b1_b2_direct,
    check_bimodule,
    check_matched_pair,
    check_module,
    trivial_action,
    trivial_pair,
)
from cfkit.algebra import ConformalAlgebra, LIE, abelian, check_axioms
from cfkit.poly import D, L1, MultiPoly

from helpers import assoc4_doc, nfold_doc, sv_doc, vir_algebra, wab_doc

d = MultiPoly.var(D)
l = MultiPoly.var(L1)


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
    rhd = ModuleAction(LEFT, q, 1, (((MultiPoly.const(-1),),),))
    return MatchedPair(LIE, r, q, trivial_action(RIGHT, r, 1), rhd)


class TestActionEval:
    def test_wab_action(self):
        pair = wab_doc(2, 0).find("matched", "WP")
        w = pair.Q.basis_element(0)
        big_l = pair.R.basis_element(0)
        out = action_eval(pair.lhd, w, big_l, l)
        assert out.coords == (d + 2 * l,)

    def test_trivial_action_is_zero(self):
        pair = trivial_pair(vir_algebra(), abelian(LIE, ("W",)))
        out = action_eval(pair.lhd, pair.Q.basis_element(0), pair.R.basis_element(0), l)
        assert out.is_zero

    def test_sv_constant_action(self):
        pair = sv_doc().find("matched", "SVP")
        m_el = pair.Q.element({"M": 1})
        n_el = pair.R.element({"N": 1})
        out = action_eval(pair.lhd, m_el, n_el, l)
        assert out.coords == (MultiPoly.zero(), MultiPoly.const(-2))

    def test_dimension_mismatch(self):
        pair = nfold_doc().find("matched", "NP")
        with pytest.raises(ValueError):
            action_eval(pair.lhd, pair.R.basis_element(0), pair.R.basis_element(0), l)


class TestCheckModule:
    @pytest.mark.parametrize("a,b", [(1, 0), (1, 3), (2, 0)])
    def test_wab_right_action(self, a, b):
        pair = wab_doc(a, b).find("matched", "WP")
        assert check_module(pair.lhd).passed

    def test_trivial_passes(self):
        pair = trivial_pair(vir_algebra(), abelian(LIE, ("W",)))
        assert check_module(pair.lhd).passed
        assert check_module(pair.rhd).passed

    def test_sv_right_action(self):
        pair = sv_doc().find("matched", "SVP")
        assert check_module(pair.lhd).passed

    def test_broken_action_fails(self):
        vir = vir_algebra()
        # wrong coefficient: not a module over the rank-one table
        act = ModuleAction(RIGHT, vir, 1, (((d + l,),),))
        assert not check_module(act).passed

    def test_associative_left_and_right(self):
        pair = assoc4_doc().find("matched", "AP")
        assert check_module(pair.rhu).passed
        assert check_module(pair.lhd).passed
        assert check_module(pair.rhd).passed
        assert check_module(pair.lhu).passed


class TestCheckBimodule:
    def test_four_generator_example(self):
        pair = assoc4_doc().find("matched", "AP")
        assert check_bimodule(pair.rhu, pair.lhd).passed
        assert check_bimodule(pair.rhd, pair.lhu).passed

    def test_both_trivial(self):
        a2 = assoc4_doc().find("algebra", "A2")
        left = trivial_action(LEFT, a2, 2)
        right = trivial_action(RIGHT, a2, 2)
        assert check_bimodule(left, right).passed

    def test_wrong_side_copy_fails(self):
        pair = assoc4_doc().find("matched", "AP")
        # feed the left-action table in as a right action: shapes are square
        # here so this parses, but the compatibility identity breaks
        wrong = ModuleAction(RIGHT, pair.R, pair.Q.rank, pair.rhu.table)
        assert not check_bimodule(pair.rhu, wrong).passed


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
        bad = ConformalAlgebra(LIE, ("L",), (((d + 3 * l,),),))
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
        flipped = ModuleAction(
            RIGHT,
            pair.R,
            1,
            (((-pair.lhd.table[0][0][0],),),),
        )
        broken = MatchedPair(LIE, pair.R, pair.Q, flipped, pair.rhd)
        assert not check_matched_pair(broken).passed

    def test_associative_pair_passes(self):
        assert check_matched_pair(assoc4_doc().find("matched", "AP")).passed

    def test_split_current_pair_passes(self):
        assert check_matched_pair(split_current_pair()).passed


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
        flipped = ModuleAction(RIGHT, pair.R, 1, (((-pair.lhd.table[0][0][0],),),))
        broken = MatchedPair(LIE, pair.R, pair.Q, flipped, pair.rhd)
        assert not check_matched_pair(broken).passed

    def test_lie_only(self):
        with pytest.raises(ValueError):
            check_b1_b2_direct(assoc4_doc().find("matched", "AP"))
