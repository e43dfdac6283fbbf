import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import algebra as algebra_module
from cfkit import cli, corpus
from cfkit import structure as structure_module
from cfkit.actions import build_bicrossed
from cfkit.algebra import ConformalAlgebra, LIE, check_axioms
from cfkit.dsl import parse_document, serialize
from cfkit.poly import D, L1, CapExceeded, MultiPoly
from cfkit.structure import (
    Submodule,
    derived_subalgebra,
    full_submodule,
    hermite_normal_form,
    is_abelian,
    is_solvable,
    poly_deg,
    poly_det,
    poly_divmod,
    span,
)

from helpers import (
    abelian, bundled, bundled_documents, change_basis, element, member, product_at,
    random_unimodular, reference_det, reference_hermite_normal_form, sv_doc, vir_algebra,
    wab_doc,
)

# the benchmark's generator of rank-scale documents
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

d = MultiPoly.var(D)
l = MultiPoly.var(L1)
zero = MultiPoly.zero()
one = MultiPoly.const(1)


def elem(*coords):
    return tuple(MultiPoly.const(0) + c for c in coords)


class TestDivmod:
    def test_exact(self):
        q, r = poly_divmod(d**3 + d, d)
        assert q == d**2 + 1 and r.is_zero

    def test_remainder(self):
        q, r = poly_divmod(d**2 + 1, d + 1)
        assert q == d - 1 and r == MultiPoly.const(2)
        assert q * (d + 1) + r == d**2 + 1

    def test_by_larger(self):
        q, r = poly_divmod(d, d**2)
        assert q.is_zero and r == d


class TestDeterminant:
    def test_matches_cofactor_expansion(self):
        """Seeded square d-matrices up to 5 x 5, a third of their entries
        zero, so that pivots are missing, rows swap and some are singular."""
        rng = random.Random(7)
        seen = {"zero": 0, "nonzero": 0}
        for _ in range(400):
            n = rng.randint(0, 5)
            matrix = tuple(
                tuple(
                    zero if rng.random() < 1 / 3
                    else sum((rng.randint(-3, 3) * d**e for e in range(3)), zero)
                    for _ in range(n)
                )
                for _ in range(n)
            )
            det = poly_det(matrix)
            assert det == reference_det(matrix), matrix
            seen["zero" if det.is_zero else "nonzero"] += 1
        assert min(seen.values()) >= 20, seen

    def test_refuses_non_square(self):
        with pytest.raises(ValueError, match="square"):
            poly_det(((one, zero),))


class TestHermiteNormalForm:
    def test_gcd_collapse(self):
        assert hermite_normal_form(((d,), (d**2,))) == ((d,),)

    def test_unit_normalization(self):
        assert hermite_normal_form(((MultiPoly.const(2),),)) == ((one,),)

    def test_echelon_order(self):
        got = hermite_normal_form(((zero, one), (d, zero)))
        assert got == ((d, zero), (zero, one))

    def test_reduction_above_pivot(self):
        # the entry above the second pivot is reduced mod that pivot
        got = hermite_normal_form(((one, d**2 + d + 1), (zero, d**2)))
        assert got == ((one, d + 1), (zero, d**2))

    def test_ragged_rows_refused_after_zero_rows(self):
        with pytest.raises(ValueError, match="ragged matrix"):
            hermite_normal_form(((zero, zero, zero), (one,)))

    def test_reads_no_row_past_the_full_module(self):
        def rows():
            yield (d, one)
            yield (one, zero)  # swaps with the pivot d, which then reduces to (0, 1)
            raise AssertionError("a row past the full module was read")

        assert hermite_normal_form(rows()) == full_submodule(2).generators

    def test_idempotent_and_row_space_preserved(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = tuple(
                tuple(
                    MultiPoly.const(rng.randint(-2, 2))
                    + rng.randint(-2, 2) * d ** rng.randint(0, 2)
                    for _ in range(3)
                )
                for _ in range(rng.randint(0, 3))
            )
            normal = hermite_normal_form(rows)
            assert hermite_normal_form(normal) == normal
            before = Submodule(3, normal)
            for row in rows:
                assert member(before, row)
            rebuilt = span(3, list(rows))
            assert rebuilt.generators == normal


class TestSpanAndMembership:
    def test_span_of_unit_combination(self):
        sub = span(1, [elem(d), elem(2)])
        assert sub.generators == ((one,),)

    def test_empty_span_is_zero(self):
        sub = span(1, [])
        assert sub.is_zero

    def test_difference_vector(self):
        sub = span(2, [elem(1, -1)])
        assert len(sub.generators) == 1

    def test_membership(self):
        sub = span(1, [elem(d)])
        assert member(sub, elem(d**2))
        assert not member(sub, elem(1))
        assert member(sub, elem(0))

    def test_equality_and_order_independence(self):
        a = span(2, [elem(d, 0), elem(0, 1)])
        b = span(2, [elem(0, 1), elem(d, 0)])
        assert a == b
        assert a != span(2, [elem(d, 0)])

    def test_spectral_leakage_rejected(self):
        with pytest.raises(ValueError):
            span(1, [(l,)])
        # a list is checked in full, past the row that spans the full module
        with pytest.raises(ValueError, match="spectral variable leaked"):
            span(1, [(one,), (l,)])
        # a generator is checked row by row, as far as it is read
        with pytest.raises(ValueError, match="spectral variable leaked"):
            span(2, iter([elem(1, 0), (l, zero)]))
        with pytest.raises(ValueError, match="ambient rank"):
            span(2, iter([elem(d, 0), elem(1)]))


class TestDerivedSubalgebra:
    def test_abelian_derives_to_zero(self):
        alg = abelian(LIE, ("A", "B"))
        assert derived_subalgebra(alg, full_submodule(2)).is_zero

    @pytest.mark.parametrize("width", [1, 3], ids=["shorter", "longer"])
    def test_rejects_generators_of_another_rank(self, width):
        alg = sv_doc(a=0, b=1).find("algebra", "Qab")
        rows = ((one,) * width,)
        with pytest.raises(ValueError, match="element rank does not match algebra rank"):
            derived_subalgebra(alg, Submodule(alg.rank, rows))

    def test_vir_derives_to_full(self):
        vir = vir_algebra()
        derived = derived_subalgebra(vir, full_submodule(1))
        assert derived == full_submodule(1)

    def test_sv_twist_derives_to_one_generator(self):
        alg = sv_doc(a=0, b=1).find("algebra", "Qab")
        derived = derived_subalgebra(alg, full_submodule(2))
        assert derived.generators == ((zero, one),)

    def test_monotone_on_nested_spans(self):
        alg = sv_doc(a=1, b=1).find("algebra", "Qab")
        rng = random.Random(11)
        for _ in range(15):
            small = span(
                2,
                [
                    elem(rng.randint(-2, 2), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 2))
                ],
            )
            extra = [elem(rng.randint(-2, 2) * d, rng.randint(-2, 2))]
            big = span(2, list(small.generators) + extra)
            derived_small = derived_subalgebra(alg, small)
            derived_big = derived_subalgebra(alg, big)
            for row in derived_small.generators:
                assert member(derived_big, row)

    def test_coefficients_of_arbitrary_products_stay_inside(self):
        alg = sv_doc(a=1, b=0).find("algebra", "Qab")
        derived = derived_subalgebra(alg, full_submodule(2))
        x = element(alg, {"Y": d**2 + 1, "M": d})
        y = element(alg, {"Y": 2 * d, "M": 3})
        prod = product_at(alg, x, y, l)
        splits = [c.coefficient_list(L1) for c in prod]
        depth = max(len(s) for s in splits)
        for t in range(depth):
            vec = tuple(s[t] if t < len(s) else zero for s in splits)
            assert member(derived, vec)


def rank_scale_d(seed: int) -> list[ConformalAlgebra]:
    """The twisted algebra ``D`` of every rank-scale document of ``seed``."""
    return [
        parse_document(text).find("algebra", "D")
        for text in workloads.describe_inputs("rank-scale", seed)
    ]


class TestDerivedSeriesExit:
    def test_rank8_stops_at_the_full_module(self, monkeypatch):
        alg = rank_scale_d(1)[-1]
        assert alg.rank == 8
        products, checked, read = [], [], []
        kernel = algebra_module.spectral_eval
        check = structure_module._checked
        normal_form = structure_module.hermite_normal_form
        monkeypatch.setattr(
            algebra_module, "spectral_eval", lambda *a: products.append(a) or kernel(*a)
        )
        monkeypatch.setattr(
            structure_module, "_checked", lambda *a: checked.append(a) or check(*a)
        )
        monkeypatch.setattr(
            structure_module, "hermite_normal_form",
            lambda rows: normal_form(read.append(row) or row for row in rows),
        )
        assert derived_subalgebra(alg, full_submodule(8)) == full_submodule(8)
        assert 0 < len(products) <= 8
        # every row the Hermite form read was computed and checked, no other
        assert len(read) == len(checked) > 0


@st.composite
def d_matrices(draw):
    """A shape, a width and a d-polynomial matrix of that shape, its rows
    shuffled: zero rows among random ones; combinations of fewer rows than
    columns; or a triangular matrix of full rank, scrambled by unimodular
    row operations and extended by combinations of its rows, whose Hermite
    form has only constant pivots (the identity) or some non-constant one."""
    shape = draw(st.sampled_from(["zero-rows", "deficient", "full-constant", "full-nonconstant"]))
    rng = draw(st.randoms(use_true_random=False))
    width = rng.randint(1, 4)

    def poly(degree=2):
        return sum((rng.randint(-2, 2) * d**e for e in range(degree + 1)), zero)

    def combination(rows):
        factors = [poly(1) for _ in rows]
        return [sum((f * r[c] for f, r in zip(factors, rows)), zero) for c in range(width)]

    if shape == "zero-rows":
        rows = [[poly() for _ in range(width)] for _ in range(rng.randint(0, 4))]
        rows += [[zero] * width for _ in range(rng.randint(1, 3))]
    elif shape == "deficient":
        basis = [[poly() for _ in range(width)] for _ in range(rng.randint(0, width - 1))]
        rows = [combination(basis) for _ in range(rng.randint(1, 5))]
    else:
        diagonal = [MultiPoly.const(rng.choice([-2, -1, Fraction(1, 2), 1, 3])) for _ in range(width)]
        if shape == "full-nonconstant":
            diagonal[rng.randrange(width)] = d + rng.randint(-2, 2)
        rows = [[diagonal[r] if c == r else poly() if c > r else zero for c in range(width)]
                for r in range(width)]
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randrange(width), rng.randrange(width)
            if i != j:
                factor = poly(1)
                rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
        rows += [combination(rows) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return shape, width, tuple(tuple(r) for r in rows)


class TestHermiteMatchesReference:
    @given(matrix=d_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_column_by_column_form(self, matrix):
        shape, width, rows = matrix
        want = reference_hermite_normal_form(rows)
        assert hermite_normal_form(rows) == want
        assert hermite_normal_form(iter(rows)) == want
        if shape == "deficient":
            assert len(want) < width
        elif shape == "full-constant":
            assert want == full_submodule(width).generators
        elif shape == "full-nonconstant":
            assert len(want) == width
            assert any(poly_deg(row[c]) > 0 for c, row in enumerate(want))


def reference_series(algebra: ConformalAlgebra, max_depth: int = 10) -> tuple:
    """The derived series as :func:`is_solvable` walks it, each term the
    reference Hermite form of every product row of every ordered pair of
    the previous term's generators."""
    current = full_submodule(algebra.rank)
    series = [current]
    while not current.is_zero and len(series) <= max_depth:
        rows = []
        for x in current.generators:
            for y in current.generators:
                split = [c.coefficient_list(L1) for c in product_at(algebra, x, y, l)]
                depth = max(map(len, split), default=0)
                rows += [tuple(s[t] if t < len(s) else zero for s in split) for t in range(depth)]
        nxt = Submodule(algebra.rank, reference_hermite_normal_form(rows))
        if nxt == current:
            break
        current = nxt
        series.append(current)
    return tuple(series)


def basis_changes() -> list:
    """Two seeded unimodular basis changes of every bundled Lie algebra of
    rank at most 4, labelled, each with the algebra it rewrites."""
    lie = [(label, alg) for label, alg in bundled("algebra") if alg.kind == LIE]
    changed = []
    for index, (label, alg) in enumerate(lie):
        if alg.rank <= 4:
            rng = random.Random(index)
            for k in range(2):
                change = random_unimodular(rng, alg.rank)
                changed.append((f"{label}:change{k}", alg, change_basis(alg, change)))
    return changed


class TestSeriesMatchesReference:
    """:func:`is_solvable` stops at the first repeated rank; the reference
    walks on to a fixed point.  The two series agree term for term."""

    def test_basis_changes(self):
        verdicts = set()
        for label, alg, changed in basis_changes():
            verdict = is_solvable(changed)
            assert verdict.series == reference_series(changed), label
            assert verdict == is_solvable(alg), label
            verdicts.add(verdict.verdict)
        assert verdicts == {"solvable", "not_solvable"}

    def test_bundled_and_rank_scale(self):
        algebras = [(label, alg) for label, alg in bundled("algebra") if alg.kind == LIE] + [
            (f"rank-scale:{seed}:{alg.rank}", alg) for seed in (1, 2, 3) for alg in rank_scale_d(seed)
        ]
        verdicts = set()
        for label, alg in algebras:
            verdict = is_solvable(alg)
            assert verdict.series == reference_series(alg), label
            verdicts.add(verdict.verdict)
        assert verdicts == {"solvable", "not_solvable"}


class TestStepBound:
    """Ranks fall at most n times and one more step sees a rank repeat, so
    a rank-n algebra takes at most n + 1 derived terms, and a cap of n + 1
    never leaves the verdict unknown."""

    def test_at_most_rank_plus_one_derived_terms(self, monkeypatch):
        algebras = [(label, alg) for label, alg in bundled("algebra") if alg.kind == LIE]
        algebras += [(label, changed) for label, _, changed in basis_changes()]
        algebras += [(f"rank-scale:{seed}:{alg.rank}", alg)
                     for seed in (1, 2, 3) for alg in rank_scale_d(seed)]
        calls = []
        derived = structure_module.derived_subalgebra

        def counting(algebra, sub):
            calls.append(sub)
            return derived(algebra, sub)

        monkeypatch.setattr(structure_module, "derived_subalgebra", counting)
        for label, alg in algebras:
            calls.clear()
            verdict = is_solvable(alg)
            assert 0 < len(calls) <= alg.rank + 1, label
            assert verdict.verdict != "unknown", label
            # one step per fall of the rank, and one more to see it repeat
            ranks = [len(term.generators) for term in verdict.series]
            falls = sum(a > b for a, b in zip(ranks, ranks[1:]))
            assert len(calls) == falls + (verdict.verdict == "not_solvable"), label
            assert is_solvable(alg, max_depth=alg.rank + 1) == verdict, label


class TestSolvability:
    def test_abelian(self):
        verdict = is_solvable(abelian(LIE, ("A",)))
        assert verdict.verdict == "solvable" and verdict.depth == 1
        assert str(verdict) == "solvable(1)"

    def test_vir(self):
        assert str(is_solvable(vir_algebra())) == "not_solvable"

    def test_sv_twists(self):
        assert str(is_solvable(sv_doc(a=0, b=1).find("algebra", "Qab"))) == "solvable(2)"
        assert str(is_solvable(sv_doc().find("algebra", "QYM"))) == "solvable(2)"
        assert str(is_solvable(sv_doc(a=1, b=1).find("algebra", "Qtilde"))) == "not_solvable"
        for a, b in [(1, 0), (2, 1)]:
            assert str(is_solvable(sv_doc(a=a, b=b).find("algebra", "Qab"))) == "not_solvable"

    def test_abelian_predicate(self):
        assert is_abelian(wab_doc(1, 0, c=0).find("algebra", "Qc"))
        assert not is_abelian(vir_algebra())
        assert is_abelian(abelian(LIE, ("A", "B", "C")))

    def test_series_is_the_walk(self):
        alg = sv_doc(a=0, b=1).find("algebra", "Qab")
        verdict = is_solvable(alg)
        series = verdict.series
        assert len(series) == verdict.depth + 1
        assert series[0] == full_submodule(alg.rank)
        assert series[-1].is_zero
        for prev, nxt in zip(series, series[1:]):
            assert derived_subalgebra(alg, prev) == nxt

    def test_series_stops_at_stabilization_and_cap(self):
        assert is_solvable(vir_algebra()).series == (full_submodule(1),)
        capped = is_solvable(sv_doc(a=0, b=1).find("algebra", "Qab"), max_depth=1)
        assert str(capped) == "unknown" and len(capped.series) == 2

    def test_lie_only(self):
        from cfkit.algebra import ASSOCIATIVE

        with pytest.raises(ValueError):
            is_solvable(abelian(ASSOCIATIVE, ("A",)))


def _forbid_dense_view(monkeypatch):
    """Make reading any algebra's ``table`` view fail the test."""
    def read(algebra):
        pytest.fail(f"the dense table of {algebra.basis} was read")

    monkeypatch.setattr(ConformalAlgebra, "table", property(read))


@pytest.mark.parametrize("label", ["sv:SV", "negative:BadVir"])
def test_checks_read_no_dense_table(label, monkeypatch):
    """The checks read only the stored constants: with the dense ``table``
    view made to fail when read, a passing and a failing algebra get the
    same axiom report, derived series and abelian verdict."""
    alg = dict(bundled("algebra"))[label]

    def results():
        solvability = is_solvable(alg)
        return check_axioms(alg), solvability, solvability.series, is_abelian(alg)

    expected = results()
    assert expected[0].passed == (label == "sv:SV")
    _forbid_dense_view(monkeypatch)
    assert results() == expected


def test_cli_checks_read_no_dense_table(monkeypatch, tmp_path):
    """With the dense ``table`` view made to fail when read, every one of
    the 58 calls of the bundled fixtures, of every command, gives its golden
    report through ``cli.main``: only readers outside cfkit use the view."""
    _forbid_dense_view(monkeypatch)
    commands = []
    for name in corpus.fixture_names():
        shutil.copy(corpus.fixture_dir(name) / "input.cfk", tmp_path / "input.cfk")
        for argv, golden in zip(corpus.fixture_lines(name), corpus.fixture_reports(name),
                                strict=True):
            assert corpus._run_line(tmp_path, argv) == golden, argv
            commands.append(argv[0])
    assert len(commands) == 58
    assert set(commands) == {"check", "bicrossed", "deform", "morphism", "equiv",
                             "structure", "constraints", "solve"}


def test_placement_rendering_and_budget_read_no_dense_table(monkeypatch):
    """Placement, rendering and the degree budget read only the stored
    constants: with the dense ``table`` view made to fail when read,
    ``build_bicrossed``, ``serialize`` and the CLI's degree budget give what
    they gave before on every bundled document, Lie and associative, and on
    two entries over the budget too."""
    pair = "algebra Q : lie { gens W; }\nmatched S : lie { R = R; Q = Q; W <| L = (l^17) W; }"
    documents = [doc for _, doc in bundled_documents()] + [
        parse_document(f"algebra R : lie {{ gens L;{product} }}\n{pair}")
        for product in (" [L, L] = (d^17) L;", "")
    ]

    def budget(document):
        try:
            cli._require_degree_budget(document)
        except CapExceeded as exc:
            return str(exc)

    def results():
        return [
            ([build_bicrossed(item.value) for item in doc.items if item.kind == "matched"],
             serialize(doc), budget(doc))
            for doc in documents
        ]

    expected = results()
    assert [budget for *_, budget in expected[-2:]] == [
        "algebra R: [L, L] has (d, l)-degree 17, over the budget of 16",
        "matched S: W <| L has (d, l)-degree 17, over the budget of 16",
    ]
    kinds = {item.value.kind for doc in documents for item in doc.items if item.kind == "matched"}
    assert kinds == {"lie", "assoc"}
    _forbid_dense_view(monkeypatch)
    assert results() == expected


class TestBasisChangeInvariance:
    def test_det_of_unimodular(self):
        rng = random.Random(3)
        change = random_unimodular(rng, 2)
        value = poly_det(change).constant_value()
        assert value is not None and value != 0

    def test_solvability_is_basis_independent(self):
        alg = sv_doc(a=1, b=1).find("algebra", "Qtilde")
        baseline = str(is_solvable(alg))
        rng = random.Random(5)
        for _ in range(5):
            changed = change_basis(alg, random_unimodular(rng, 2))
            assert check_axioms(changed).passed
            assert str(is_solvable(changed)) == baseline

    def test_solvable_case_is_basis_independent(self):
        alg = sv_doc(a=0, b=1).find("algebra", "Qab")
        rng = random.Random(9)
        for _ in range(5):
            changed = change_basis(alg, random_unimodular(rng, 2))
            assert str(is_solvable(changed)) == "solvable(2)"
