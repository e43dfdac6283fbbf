"""Acceptance suite: one test per criterion, zero tolerance everywhere.

Each test prints a single pass line on success; a failure prints through
pytest as usual.  Expected values are exact rational constants fixed in
advance, never computed by the code path under test.
"""

import random
import time
from fractions import Fraction

import pytest

from cfkit import corpus
from cfkit.actions import build_bicrossed, check_b1_b2_direct, check_matched_pair
from cfkit.algebra import check_axioms
from cfkit.constraints import (
    AnsatzSpec,
    compile_deformation_constraints,
    grid_values,
    search_equivalence_diagonal,
    verify_assignment,
)
from cfkit.deform import (
    DeformationMap,
    Morphism,
    _is_invertible,
    check_deformation_map,
    check_morphism,
)
from cfkit.poly import D, L1, MultiPoly, unknown
from cfkit.structure import is_abelian, is_solvable

from helpers import assoc4_doc, load_fixture, nfold_doc, sv_doc, wab_doc

d = MultiPoly.var(D)
l = MultiPoly.var(L1)
zero = MultiPoly.zero()


def done(label):
    print(f"acceptance {label}: pass")


def test_criterion_01_axioms():
    algebras = [
        ("Vir", load_fixture("vir").find("algebra", "Vir")),
        ("Cur2", load_fixture("cur2").find("algebra", "Cur2")),
        ("W(1,0)", wab_doc(1, 0).find("algebra", "Wab")),
        ("W(1,3)", wab_doc(1, 3).find("algebra", "Wab")),
        ("W(2,0)", wab_doc(2, 0).find("algebra", "Wab")),
        ("W(0,1)", wab_doc(0, 1).find("algebra", "Wab")),
        ("SV", sv_doc().find("algebra", "SV")),
        ("E4", assoc4_doc().find("algebra", "E4")),
    ]
    for label, algebra in algebras:
        start = time.monotonic()
        assert check_axioms(algebra).passed, label
        assert time.monotonic() - start < 1.0, f"{label} took too long"
    done("1 (axioms, each under a second)")


def test_criterion_02_bicrossed_reconstruction():
    for a, b in [(1, 0), (1, 3), (2, 0), (0, 1)]:
        doc = wab_doc(a, b)
        assert build_bicrossed(doc.find("matched", "WP")) == doc.find("algebra", "Wab")
    doc = sv_doc()
    assert build_bicrossed(doc.find("matched", "SVP")) == doc.find("algebra", "SV")
    doc = assoc4_doc()
    assert build_bicrossed(doc.find("matched", "AP")) == doc.find("algebra", "E4")
    done("2 (bicrossed products reproduce the ambient tables exactly)")


def test_criterion_03_scalar_twist_dichotomy():
    values = grid_values(2, 2)
    for a in (2, 0, -1):
        for b in (0, 1):
            pair = wab_doc(a, b).find("matched", "WP")
            system = compile_deformation_constraints(pair, AnsatzSpec.uniform(1, 1, 0))
            admitted = [
                v for v in values
                if verify_assignment(system, {unknown(0): v})
            ]
            assert admitted == [Fraction(0)], (a, b)
    for b in (0, 1):
        pair = wab_doc(1, b).find("matched", "WP")
        system = compile_deformation_constraints(pair, AnsatzSpec.uniform(1, 1, 0))
        assert system.equations == (), b
    done("3 (scalar twist admits only zero off the a=1 line, all scalars on it)")


def test_criterion_04_deformed_tables():
    from cfkit.deform import deformed_algebra

    # rank-one: alpha * (d + 2 l) W
    for alpha in (3, Fraction(1, 2)):
        doc = wab_doc(1, 0, c=alpha)
        pair = doc.find("matched", "WP")
        twisted = deformed_algebra(pair, doc.find("defmap", "phi"))
        assert twisted.table[0][0] == (alpha * (d + 2 * l),)

    # three commuting generators at b = 2, scalars (1, 0, -2):
    # entry (i, j) is alpha_j (l - b) Wi + alpha_i (d + l + b) Wj
    doc = nfold_doc(b=2, a1=1, a2=0, a3=-2)
    pair = doc.find("matched", "NP")
    twisted = deformed_algebra(pair, doc.find("defmap", "phi3"))
    alphas = [Fraction(1), Fraction(0), Fraction(-2)]
    b = Fraction(2)
    for i in range(3):
        for j in range(3):
            expect = [zero, zero, zero]
            expect[i] = expect[i] + alphas[j] * (l - b)
            expect[j] = expect[j] + alphas[i] * (d + l + b)
            assert twisted.table[i][j] == tuple(expect), (i, j)

    # rank-two family: (d + 2l) M + a (d + 2l) Y and (a d + 2 b) M
    for a, b in [(1, 0), (2, 1)]:
        doc = sv_doc(a=a, b=b)
        pair = doc.find("matched", "SVP")
        twisted = deformed_algebra(pair, doc.find("defmap", "phiab"))
        assert twisted.table[0][0] == (a * (d + 2 * l), d + 2 * l)
        assert twisted.table[0][1] == (zero, a * d + 2 * b)

    # associative families: q e3 / q e4 and s e3 / s e4 rows
    doc = assoc4_doc(p=1, q=2)
    pair = doc.find("matched", "AP")
    twisted = deformed_algebra(pair, doc.find("defmap", "phi2"))
    assert twisted.table[1][0] == (2 * MultiPoly.const(1), zero)
    assert twisted.table[1][1] == (zero, MultiPoly.const(2))
    assert twisted.table[0][0] == (zero, zero)
    doc = assoc4_doc(p=1, q=2, r=Fraction(3, 2), s=3)
    twisted = deformed_algebra(doc.find("matched", "AP"), doc.find("defmap", "phi4"))
    assert twisted.table[0][0] == (MultiPoly.const(2), zero)
    assert twisted.table[0][1] == (zero, MultiPoly.const(2))
    assert twisted.table[1][0] == (MultiPoly.const(3), zero)
    assert twisted.table[1][1] == (zero, MultiPoly.const(3))
    done("4 (deformed tables match the expected symbols at sampled parameters)")


def test_criterion_05_morphisms():
    # W -> alpha L embeds the twisted rank-one algebra for alpha in {1, 3}
    for alpha in (1, 3):
        doc = wab_doc(1, 0, c=alpha)
        assert check_morphism(doc.find("morphism", "emb")).passed, alpha

    # Y -> (1/a) Y, M -> (1/a^2) M intertwines the normal form Qtilde(b/a)
    # with the twisted table; the passing direction is Qtilde -> Qab (the
    # reverse direction fails for a = 2 and the suite pins that fact too)
    for a, b in [(2, 1), (1, 0)]:
        doc = sv_doc(a=a, b=b)
        iso = doc.find("morphism", "iso")
        assert check_morphism(iso).passed and _is_invertible(iso.matrix), (a, b)
    doc = sv_doc(a=2, b=1)
    qab = doc.find("algebra", "Qab")
    qtilde = doc.find("algebra", "Qtilde")
    reversed_map = Morphism(
        qab,
        qtilde,
        (
            (MultiPoly.const(Fraction(1, 2)), zero),
            (zero, MultiPoly.const(Fraction(1, 4))),
        ),
    )
    assert not check_morphism(reversed_map).passed

    # diagonal rescalings between the associative twists and their unit forms
    for q in (2, 3):
        doc = assoc4_doc(q=q)
        assert check_morphism(doc.find("morphism", "psiB")).passed, q
    for q, s in [(2, 3), (3, 2)]:
        doc = assoc4_doc(q=q, s=s)
        assert check_morphism(doc.find("morphism", "psiBD")).passed, (q, s)
    done("5 (derived morphism witnesses all pass)")


def test_criterion_06_solvability():
    assert str(is_solvable(sv_doc(a=0, b=1).find("algebra", "Qab"))) == "solvable(2)"
    assert str(is_solvable(sv_doc().find("algebra", "QYM"))) == "solvable(2)"
    assert str(is_solvable(sv_doc(a=1, b=1).find("algebra", "Qtilde"))) == "not_solvable"
    for a in (1, 2):
        for b in (0, 1):
            alg = sv_doc(a=a, b=b).find("algebra", "Qab")
            assert str(is_solvable(alg)) == "not_solvable", (a, b)
    assert is_abelian(wab_doc(1, 0, c=0).find("algebra", "Qc"))
    done("6 (solvability and abelianness split the twists as expected)")


def test_criterion_07_equivalence():
    doc = sv_doc(a=0, b=5)
    pair = doc.find("matched", "SVP")
    phi = doc.find("defmap", "psib")
    psi = doc.find("defmap", "psi1")
    witnesses = search_equivalence_diagonal(pair, phi, psi, grid_values(25, 1))
    assert witnesses, "no diagonal witness found for the b=5 twist"
    assert witnesses[0].matrix[0][0] == MultiPoly.const(5)
    assert witnesses[0].matrix[1][1] == MultiPoly.const(25)

    doc = sv_doc(a=0, b=0)
    pair = doc.find("matched", "SVP")
    psi1 = doc.find("defmap", "psi1")
    zero_map_ = doc.find("defmap", "zero")
    refuted = search_equivalence_diagonal(pair, psi1, zero_map_, grid_values(3, 2))
    assert refuted == []
    done("7 (equivalence witnessed at b=5~1; none found toward zero in family)")


def test_criterion_08_oracle_equivalence():
    rng = random.Random(20240809)
    pool = [
        Fraction(0),
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(2),
        Fraction(1, 2),
    ]
    cases = [
        wab_doc(1, 0).find("matched", "WP"),
        wab_doc(2, 0).find("matched", "WP"),
        wab_doc(0, 1).find("matched", "WP"),
        nfold_doc().find("matched", "NP"),
        sv_doc().find("matched", "SVP"),
        assoc4_doc().find("matched", "AP"),
    ]
    for pair in cases:
        ansatz = AnsatzSpec.uniform(pair.Q.rank, pair.R.rank, 2)
        system = compile_deformation_constraints(pair, ansatz)
        agreements = 0
        for _ in range(200):
            matrix = tuple(
                tuple(
                    rng.choice(pool) + rng.choice(pool) * d + rng.choice(pool) * d**2
                    for _ in range(pair.R.rank)
                )
                for _ in range(pair.Q.rank)
            )
            dm = DeformationMap(pair, matrix)
            via_system = verify_assignment(system, ansatz.coefficients_of(dm))
            direct = check_deformation_map(pair, dm).passed
            assert via_system == direct
            agreements += 1
        assert agreements == 200
    done("8 (compiled system and direct check agree on 200 random maps per pair)")


def test_criterion_09_convention_cross_check():
    lie_pairs = [
        ("W(1,0)", wab_doc(1, 0).find("matched", "WP")),
        ("W(1,3)", wab_doc(1, 3).find("matched", "WP")),
        ("W(2,0)", wab_doc(2, 0).find("matched", "WP")),
        ("W(0,1)", wab_doc(0, 1).find("matched", "WP")),
        ("NP", nfold_doc().find("matched", "NP")),
        ("SVP", sv_doc().find("matched", "SVP")),
    ]
    for label, pair in lie_pairs:
        direct = check_b1_b2_direct(pair).passed
        normative = check_matched_pair(pair).passed
        assert direct == normative, f"convention-mismatch on {label}"
    done("9 (direct cross-compatibility agrees with the normative check)")


def test_criterion_10_honesty_fixture():
    doc = assoc4_doc()
    theta = doc.find("morphism", "theta")
    verdict = check_morphism(theta).passed and _is_invertible(theta.matrix)

    # the golden records the same verdict the checker produces now
    recorded = None
    for rec in corpus.fixture_reports("assoc4"):
        for check in rec["report"].get("checks", []):
            if check["name"] == "morphism:theta":
                recorded = check["is_isomorphism"]
    assert recorded is not None, "theta's verdict is not golden-recorded"
    assert recorded == verdict

    # a true verdict collapses two of the three listed complement classes,
    # and the fixture's notes must say so
    if verdict:
        notes = " ".join(corpus.fixture_notes("assoc4"))
        assert "contested" in notes
        assert "theta" in notes
    done(f"10 (honesty fixture: theta verdict {verdict} recorded and flagged)")
