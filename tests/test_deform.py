import itertools
import random
import re
from fractions import Fraction

import pytest

from cfkit.actions import _layout, build_bicrossed
from cfkit.algebra import (
    LIE,
    ConformalAlgebra,
    Violation,
    check_axioms,
)
from cfkit import constraints, deform
from cfkit.constraints import grid_values, search_equivalence_diagonal
from cfkit.deform import (
    DeformationMap,
    Morphism,
    _graph,
    _is_invertible,
    _morphism_residuals,
    apply_matrix,
    check_deformation_map,
    check_equivalence,
    check_morphism,
    deformed_algebra,
)
from cfkit.dsl import parse_document
from cfkit.poly import D, L1, MultiPoly

from helpers import (
    FOREIGN,
    abelian,
    action_eval,
    action_table,
    add,
    assoc4_doc,
    basis_element,
    entries,
    identity_morphism,
    neg,
    nfold_doc,
    product_at,
    sub,
    sv_doc,
    vir_algebra,
    wab_doc,
    zero_map,
)

d = MultiPoly.var(D)
l = MultiPoly.var(L1)


def wab_map(a, b, c):
    doc = wab_doc(a, b, c)
    return doc, doc.find("matched", "WP"), doc.find("defmap", "phi")


class TestApplyMap:
    def test_d_linearity(self):
        _, pair, phi = wab_map(1, 0, 3)
        assert apply_matrix(phi.matrix, ((0, d),)) == (3 * d,)

    def test_zero_map(self):
        pair = wab_doc(1, 0).find("matched", "WP")
        out = apply_matrix(zero_map(pair).matrix, ((0, MultiPoly.const(1)),))
        assert all(c.is_zero for c in out)

    def test_sv_family_image(self):
        doc = sv_doc(a=2, b=1)
        phi = doc.find("defmap", "phiab")
        out = apply_matrix(phi.matrix, ((0, MultiPoly.const(1)),))
        assert out == (MultiPoly.const(2), d + 1)
        assert image(phi.matrix, (MultiPoly.const(1), MultiPoly.zero())) == out


class TestMatrixRefused:
    """A map or morphism matrix of the wrong shape, or with an entry that is
    not a polynomial in ``d`` alone, is refused by name."""

    @pytest.mark.parametrize("build, message", [
        (lambda pair, vir: DeformationMap(pair, ((3,),)),
         "deformation entry 3 is not a polynomial"),
        (lambda pair, vir: DeformationMap(pair, ((d, d),)), "deformation matrix must be 1x1"),
        (lambda pair, vir: DeformationMap(pair, ((l,),)),
         "deformation entry l must be univariate in d"),
        (lambda pair, vir: Morphism(vir, vir, ((3,),)), "morphism entry 3 is not a polynomial"),
        (lambda pair, vir: Morphism(vir, vir, ((Fraction(1, 2),),)),
         "morphism entry Fraction(1, 2) is not a polynomial"),
        (lambda pair, vir: Morphism(vir, vir, ()), "morphism matrix must be 1x1"),
    ], ids=["map-int", "map-shape", "map-l", "morphism-int", "morphism-fraction",
            "morphism-shape"])
    def test_is_refused(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(wab_doc(1, 0).find("matched", "WP"), vir_algebra())


class TestCheckDeformationMap:
    @pytest.mark.parametrize("c", [1, -2, Fraction(1, 2)])
    def test_scalar_map_passes_when_admissible(self, c):
        _, pair, phi = wab_map(1, 0, c)
        assert check_deformation_map(pair, phi).passed

    def test_scalar_map_fails_otherwise(self):
        _, pair, phi = wab_map(2, 0, 1)
        report = check_deformation_map(pair, phi)
        assert not report.passed
        assert report.violations[0].residual == (d + 2 * l,)

    def test_zero_map_always_passes(self):
        for doc_pair in [
            wab_doc(2, 0).find("matched", "WP"),
            sv_doc().find("matched", "SVP"),
            assoc4_doc().find("matched", "AP"),
        ]:
            assert check_deformation_map(doc_pair, zero_map(doc_pair)).passed

    @pytest.mark.parametrize("a,b", [(1, 0), (2, 1), (0, 1)])
    def test_sv_family_passes(self, a, b):
        doc = sv_doc(a=a, b=b)
        pair = doc.find("matched", "SVP")
        assert check_deformation_map(pair, doc.find("defmap", "phiab")).passed

    def test_four_generator_family_passes(self):
        doc = assoc4_doc(p=1, q=1)
        pair = doc.find("matched", "AP")
        assert check_deformation_map(pair, doc.find("defmap", "phi2")).passed

    def test_four_generator_relation_required(self):
        doc = assoc4_doc(p=1, q=1, r=1, s=2)  # p*s != q*r
        pair = doc.find("matched", "AP")
        assert not check_deformation_map(pair, doc.find("defmap", "phi4")).passed


class TestDeformedAlgebra:
    def test_wab_table(self):
        _, pair, phi = wab_map(1, 0, 3)
        twisted = deformed_algebra(pair, phi)
        assert twisted.table[0][0] == (3 * (d + 2 * l),)

    def test_zero_map_is_identity(self):
        pair = sv_doc().find("matched", "SVP")
        assert deformed_algebra(pair, zero_map(pair)) == pair.Q

    def test_sv_table(self):
        doc = sv_doc(a=2, b=1)
        pair = doc.find("matched", "SVP")
        twisted = deformed_algebra(pair, doc.find("defmap", "phiab"))
        y, m = 0, 1
        assert twisted.table[y][y] == (2 * (d + 2 * l), d + 2 * l)
        assert twisted.table[y][m] == (MultiPoly.zero(), 2 * d + 2)
        assert twisted.table[m][m] == (MultiPoly.zero(), MultiPoly.zero())

    def test_forms_no_residual(self, monkeypatch):
        # only the residuals call apply_matrix, so the table half forms none
        _, pair, phi = wab_map(2, 0, 1)
        assert not check_deformation_map(pair, phi).passed
        calls, inner = [], deform.apply_matrix
        monkeypatch.setattr(deform, "apply_matrix", lambda *a: calls.append(a) or inner(*a))
        deformed_algebra(pair, phi)
        assert calls == []

    def test_four_generator_table(self):
        doc = assoc4_doc(p=1, q=1)
        pair = doc.find("matched", "AP")
        twisted = deformed_algebra(pair, doc.find("defmap", "phi2"))
        assert twisted == doc.find("algebra", "Q1")

    @pytest.mark.parametrize("a,b", [(1, 0), (2, 1), (0, 1)])
    def test_passing_map_gives_valid_algebra(self, a, b):
        doc = sv_doc(a=a, b=b)
        pair = doc.find("matched", "SVP")
        phi = doc.find("defmap", "phiab")
        assert check_deformation_map(pair, phi).passed
        assert check_axioms(deformed_algebra(pair, phi)).passed

    def test_random_admissible_maps_give_valid_algebras(self):
        # every constant map on the three-generator family is admissible
        for scalars in [(1, 2, 3), (-1, 0, Fraction(1, 2)), (0, 0, -5)]:
            doc = nfold_doc(a1=scalars[0], a2=scalars[1], a3=scalars[2])
            pair = doc.find("matched", "NP")
            phi = doc.find("defmap", "phi3")
            assert check_deformation_map(pair, phi).passed
            assert check_axioms(deformed_algebra(pair, phi)).passed


class TestGraphEmbedding:
    """The graph of a deformation map is a subalgebra of the bicrossed
    product, checked by :func:`explicit_graph_embedding` inside E itself."""

    @staticmethod
    def assert_embeds(pair, phi):
        assert check_deformation_map(pair, phi).passed
        assert explicit_graph_embedding(pair, phi) == ()

    def test_wab(self):
        _, pair, phi = wab_map(1, 0, 1)
        self.assert_embeds(pair, phi)

    def test_zero_map(self):
        pair = sv_doc().find("matched", "SVP")
        self.assert_embeds(pair, zero_map(pair))

    def test_sv_family(self):
        doc = sv_doc(a=2, b=1)
        pair = doc.find("matched", "SVP")
        self.assert_embeds(pair, doc.find("defmap", "phiab"))

    def test_assoc_family(self):
        doc = assoc4_doc(p=1, q=2, r=Fraction(3, 2), s=3)
        pair = doc.find("matched", "AP")
        self.assert_embeds(pair, doc.find("defmap", "phi4"))


class TestMorphism:
    def test_embedding_into_rank_one(self):
        doc = wab_doc(1, 0, c=3)
        emb = doc.find("morphism", "emb")
        assert check_morphism(emb).passed and _is_invertible(emb.matrix)

    def test_unscaled_map_fails(self):
        doc = wab_doc(1, 0, c=3)
        qc = doc.find("algebra", "Qc")
        vir = doc.find("algebra", "VirR")
        bad = Morphism(qc, vir, ((MultiPoly.const(1),),))
        assert not check_morphism(bad).passed

    def test_identity(self):
        vir = vir_algebra()
        identity = identity_morphism(vir)
        assert check_morphism(identity).passed and _is_invertible(identity.matrix)

    def test_multiplication_by_d_is_not_invertible(self):
        ab = abelian(LIE, ("W",))
        h = Morphism(ab, ab, ((d,),))
        assert check_morphism(h).passed and not _is_invertible(h.matrix)

    def test_sv_rescaling(self):
        doc = sv_doc(a=2, b=1)
        iso = doc.find("morphism", "iso")
        assert check_morphism(iso).passed and _is_invertible(iso.matrix)

    def test_assoc_rescalings(self):
        rescalings = [assoc4_doc(q=q, s=s).find("morphism", "psiBD") for q, s in [(2, 3), (3, 2)]]
        rescalings += [assoc4_doc(q=q).find("morphism", "psiB") for q in (2, 3)]
        for h in rescalings:
            assert check_morphism(h).passed and _is_invertible(h.matrix)

    def test_unit_triangular_candidate_is_isomorphism(self):
        doc = assoc4_doc()
        theta = doc.find("morphism", "theta")
        assert check_morphism(theta).passed and _is_invertible(theta.matrix)


class TestEquivalence:
    def test_reflexive(self):
        for a, b in [(1, 0), (2, 1), (0, 1)]:
            doc = sv_doc(a=a, b=b)
            pair = doc.find("matched", "SVP")
            phi = doc.find("defmap", "phiab")
            alpha = identity_morphism(pair.Q)
            assert check_equivalence(pair, phi, phi, alpha).passed

    def test_witness_for_scaled_twist(self):
        doc = sv_doc(a=0, b=5)
        pair = doc.find("matched", "SVP")
        phi = doc.find("defmap", "psib")
        psi = doc.find("defmap", "psi1")
        witnesses = search_equivalence_diagonal(pair, phi, psi, grid_values(25, 1))
        assert len(witnesses) == 1
        alpha = witnesses[0]
        assert alpha.matrix[0][0] == MultiPoly.const(5)
        assert alpha.matrix[1][1] == MultiPoly.const(25)
        # symmetry: the inverse scaling witnesses the reverse equivalence
        inverse = Morphism(
            pair.Q,
            pair.Q,
            (
                (MultiPoly.const(Fraction(1, 5)), MultiPoly.zero()),
                (MultiPoly.zero(), MultiPoly.const(Fraction(1, 25))),
            ),
        )
        assert check_equivalence(pair, psi, phi, inverse).passed

    def test_witness_maps_the_deformed_algebras(self):
        doc = sv_doc(a=0, b=5)
        pair = doc.find("matched", "SVP")
        phi = doc.find("defmap", "psib")
        psi = doc.find("defmap", "psi1")
        source, target = deformed_algebra(pair, phi), deformed_algebra(pair, psi)
        assert source != pair.Q
        witnesses = search_equivalence_diagonal(pair, phi, psi, grid_values(25, 1))
        assert witnesses
        for w in witnesses:
            assert (w.source, w.target) == (source, target)
            assert check_morphism(w).passed

    def test_no_diagonal_witness_for_zero_twist(self):
        doc = sv_doc(a=0, b=0)
        pair = doc.find("matched", "SVP")
        psi1 = doc.find("defmap", "psi1")
        zero = doc.find("defmap", "zero")
        assert search_equivalence_diagonal(pair, psi1, zero, grid_values(3, 2)) == []
        assert search_equivalence_diagonal(pair, zero, psi1, grid_values(3, 2)) == []

    def test_rejects_singular_alpha(self):
        doc = sv_doc()
        pair = doc.find("matched", "SVP")
        phi = doc.find("defmap", "zero")
        singular = Morphism(
            pair.Q,
            pair.Q,
            (
                (MultiPoly.const(1), MultiPoly.zero()),
                (MultiPoly.zero(), MultiPoly.zero()),
            ),
        )
        with pytest.raises(ValueError):
            check_equivalence(pair, phi, phi, singular)

    def test_transitivity_on_witnessed_triple(self):
        # b = 5 ~ b = 1 by diag(5, 25) and b = 1 ~ b = 3 maps compose
        doc5 = sv_doc(a=0, b=5)
        pair = doc5.find("matched", "SVP")
        phi5 = doc5.find("defmap", "psib")
        psi1 = doc5.find("defmap", "psi1")
        phi3 = sv_doc(a=0, b=3).find("defmap", "psib")

        def diag(p, q):
            return Morphism(
                pair.Q,
                pair.Q,
                (
                    (MultiPoly.const(Fraction(p)), MultiPoly.zero()),
                    (MultiPoly.zero(), MultiPoly.const(Fraction(q))),
                ),
            )

        assert check_equivalence(pair, phi5, psi1, diag(5, 25)).passed
        assert check_equivalence(pair, psi1, phi3, diag(Fraction(1, 3), Fraction(1, 9))).passed
        composed = diag(Fraction(5, 3), Fraction(25, 9))
        assert check_equivalence(pair, phi5, phi3, composed).passed


class TestForeignMap:
    @pytest.mark.parametrize("call", [
        lambda pair, phi, psi2: check_deformation_map(pair, psi2),
        lambda pair, phi, psi2: deformed_algebra(pair, psi2),
        lambda pair, phi, psi2: check_equivalence(pair, phi, psi2, identity_morphism(pair.Q)),
        lambda pair, phi, psi2: check_equivalence(pair, psi2, phi, identity_morphism(pair.Q)),
        lambda pair, phi, psi2: search_equivalence_diagonal(pair, phi, psi2, grid_values(1, 1)),
    ], ids=["check", "deformed", "equivalence-psi", "equivalence-phi", "search"])
    def test_is_refused(self, call):
        doc = parse_document(FOREIGN)
        pair, phi = doc.find("matched", "P"), doc.find("defmap", "phi")
        with pytest.raises(ValueError, match="map is attached to a different matched pair"):
            call(pair, phi, doc.find("defmap", "psi2"))

    def test_map_of_an_equal_pair_is_accepted(self):
        pair, phi = sv_doc().find("matched", "SVP"), sv_doc().find("defmap", "zero")
        assert phi.pair is not pair
        assert deformed_algebra(pair, phi) == pair.Q


class TestBicrossedInterplay:
    def test_graph_is_complement_shape(self):
        # the embedded graph splits off R: its Q part is the identity
        doc = sv_doc(a=1, b=1)
        pair = doc.find("matched", "SVP")
        phi = doc.find("defmap", "phiab")
        big = build_bicrossed(pair)
        twisted = deformed_algebra(pair, phi)
        morph = Morphism(twisted, big, graph_matrix(pair, phi))
        assert check_morphism(morph).passed


# -- differential reference: the cross actions expanded by hand ---------------
#
# The identities below spell out, for each kind, what the product of two
# graph elements inside the bicrossed product amounts to.  ``deform`` reads
# them off that product instead; these literal expansions are kept as the
# reference it must match residual for residual.

_NEG = -l - d


def image(matrix, x):
    """The image of the dense element ``x`` under ``matrix``, summed over
    every coordinate: the reference for ``apply_matrix``."""
    zero = MultiPoly.zero()
    cols = len(matrix[0]) if matrix else 0
    return tuple(sum((c * row[j] for c, row in zip(x, matrix, strict=True)), zero)
                 for j in range(cols))


def _action_tables(mp) -> dict:
    return {attr: action_table(mp, attr) for attr, *_ in _layout(mp.kind)}


def reference_residuals(mp, matrix):
    act = _action_tables(mp)
    q_basis = [basis_element(mp.Q, i) for i in range(mp.Q.rank)]
    images = [image(matrix, q) for q in q_basis]
    out = []
    for i, (x, fx) in enumerate(zip(q_basis, images)):
        for j, (y, fy) in enumerate(zip(q_basis, images)):
            lhs = sub(image(matrix, product_at(mp.Q, x, y, l)), product_at(mp.R, fx, fy, l))
            if mp.kind == LIE:
                rhs = add(
                    image(matrix, action_eval(act["lhd"], y, fx, _NEG)),
                    neg(image(matrix, action_eval(act["lhd"], x, fy, l))),
                    action_eval(act["rhd"], x, fy, l),
                    neg(action_eval(act["rhd"], y, fx, _NEG)),
                )
            else:
                rhs = add(
                    action_eval(act["lhu"], fx, y, l),
                    action_eval(act["rhd"], x, fy, l),
                    neg(image(matrix, action_eval(act["rhu"], fx, y, l))),
                    neg(image(matrix, action_eval(act["lhd"], x, fy, l))),
                )
            out.append((i, j, sub(lhs, rhs)))
    return out


def reference_table(mp, matrix):
    act = _action_tables(mp)
    q_basis = [basis_element(mp.Q, i) for i in range(mp.Q.rank)]
    images = [image(matrix, q) for q in q_basis]
    table = []
    for i, x in enumerate(q_basis):
        row = []
        for j, y in enumerate(q_basis):
            entry = add(mp.Q.table[i][j], action_eval(act["lhd"], x, images[j], l))
            if mp.kind == LIE:
                entry = sub(entry, action_eval(act["lhd"], y, images[i], _NEG))
            else:
                entry = add(entry, action_eval(act["rhu"], images[i], y, l))
            row.append(entry)
        table.append(tuple(row))
    return tuple(table)


def reference_equivalence(mp, phi, psi, alpha):
    act = _action_tables(mp)
    q_basis = [basis_element(mp.Q, i) for i in range(mp.Q.rank)]
    a_img = [image(alpha.matrix, q) for q in q_basis]
    psi_a = [image(psi.matrix, e) for e in a_img]
    phi_img = [image(phi.matrix, q) for q in q_basis]
    violations = []
    for i, x in enumerate(q_basis):
        for j, y in enumerate(q_basis):
            lhs = sub(
                image(alpha.matrix, product_at(mp.Q, x, y, l)),
                product_at(mp.Q, a_img[i], a_img[j], l),
            )
            rhs = sub(
                action_eval(act["lhd"], a_img[i], psi_a[j], l),
                image(alpha.matrix, action_eval(act["lhd"], x, phi_img[j], l)),
            )
            if mp.kind == LIE:
                rhs = add(
                    rhs,
                    neg(action_eval(act["lhd"], a_img[j], psi_a[i], _NEG)),
                    image(alpha.matrix, action_eval(act["lhd"], y, phi_img[i], _NEG)),
                )
            else:
                rhs = add(
                    rhs,
                    action_eval(act["rhu"], psi_a[i], a_img[j], l),
                    neg(image(alpha.matrix, action_eval(act["rhu"], phi_img[i], y, l))),
                )
            residual = sub(lhs, rhs)
            if any(residual):
                violations.append(Violation("equivalence", (i, j), residual, mp.Q.basis))
    return tuple(violations)


def graph_matrix(mp, dm):
    """The matrix of the graph embedding ``e_i -> (φe_i, e_i)`` of Q into E."""
    return tuple(tuple(row) + basis_element(mp.Q, i) for i, row in enumerate(dm.matrix))


def explicit_graph_embedding(mp, dm):
    """Morphism check of ``x -> (φx, x)`` into the bicrossed product, then
    closure of the graph, both evaluated in the bicrossed product itself."""
    big = build_bicrossed(mp)
    nq, nr = mp.Q.rank, mp.R.rank
    twisted = ConformalAlgebra(mp.kind, mp.Q.basis, entries(reference_table(mp, dm.matrix)))
    embed = graph_matrix(mp, dm)
    morph = Morphism(twisted, big, embed)
    violations = list(check_morphism(morph).violations)
    for i in range(nq):
        gi = image(embed, basis_element(twisted, i))
        for j in range(nq):
            gj = image(embed, basis_element(twisted, j))
            prod = product_at(big, gi, gj, l)
            residual = sub(prod[:nr], image(dm.matrix, prod[nr:]))
            if any(residual):
                violations.append(Violation("graph-closure", (i, j), residual, mp.R.basis))
    return tuple(violations)


# the six pairs the random-maps benchmark draws from
BENCH_PAIRS = {
    "WP(a=1,b=0)": lambda: wab_doc(1, 0).find("matched", "WP"),
    "WP(a=1,b=3)": lambda: wab_doc(1, 3).find("matched", "WP"),
    "WP(a=2,b=0)": lambda: wab_doc(2, 0).find("matched", "WP"),
    "NP": lambda: nfold_doc(b=2, a1=0, a2=0, a3=0).find("matched", "NP"),
    "SVP": lambda: sv_doc().find("matched", "SVP"),
    "AP": lambda: assoc4_doc().find("matched", "AP"),
}


def _random_poly(rng, degree):
    return MultiPoly(
        {((D, t),) if t else (): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
         for t in range(degree + 1)}
    )


def _random_maps(pair, rng, count=6):
    return [
        DeformationMap(
            pair,
            tuple(
                tuple(_random_poly(rng, k % 3) for _ in range(pair.R.rank))
                for _ in range(pair.Q.rank)
            ),
        )
        for k in range(count)
    ]


def _random_alphas(pair, rng):
    """A random diagonal and a random unit upper-triangular automorphism."""
    n = pair.Q.rank
    zero, one = MultiPoly.zero(), MultiPoly.const(1)
    diag = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(n)]
    diagonal = tuple(
        tuple(MultiPoly.const(diag[i]) if i == j else zero for j in range(n))
        for i in range(n)
    )
    triangular = tuple(
        tuple(
            one if i == j else _random_poly(rng, rng.randint(0, 2)) if j > i else zero
            for j in range(n)
        )
        for i in range(n)
    )
    return [Morphism(pair.Q, pair.Q, m) for m in (diagonal, triangular)]


@pytest.mark.parametrize("label", sorted(BENCH_PAIRS))
class TestGraphProductsMatchHandExpansion:
    def test_residuals_tables_and_graph_embedding(self, label):
        pair = BENCH_PAIRS[label]()
        maps = _random_maps(pair, random.Random(f"residuals:{label}"))
        failing = 0
        for dm in maps:
            raw, residuals = _graph(pair, dm.matrix)
            assert list(residuals) == reference_residuals(pair, dm.matrix)
            table = reference_table(pair, dm.matrix)
            assert raw == {key: q for key, q in entries(table).items() if q}
            assert deformed_algebra(pair, dm).table == table
            # the graph is a subalgebra exactly when the map passes
            passed = check_deformation_map(pair, dm).passed
            assert (explicit_graph_embedding(pair, dm) == ()) == passed
            failing += not passed
        assert failing  # the comparison must see failing maps

    def test_residuals_are_the_graph_embeddings_morphism_residuals(self, label):
        """g: Q_φ -> E, e_i -> (φe_i, e_i), maps e_i ·_φ e_j = q to (φ(q), q),
        so its morphism residual is (φ(q) - r, 0): the deformation residual
        in its R part, zero in its Q part."""
        pair = BENCH_PAIRS[label]()
        maps = [zero_map(pair), *_random_maps(pair, random.Random(f"embedding:{label}"))]
        nr, nq = pair.R.rank, pair.Q.rank
        outcomes = set()
        for dm in maps:
            residuals = list(_graph(pair, dm.matrix)[1])
            twisted = deformed_algebra(pair, dm)
            morphism = list(_morphism_residuals(twisted, pair.bicrossed, graph_matrix(pair, dm)))
            assert [(i, j, res[:nr]) for i, j, res in morphism] == residuals
            assert all(not any(res[nr:]) and len(res) == nr + nq for *_, res in morphism)
            outcomes.add(check_deformation_map(pair, dm).passed)
        assert outcomes == {True, False}

    def test_equivalence_residuals(self, label):
        pair = BENCH_PAIRS[label]()
        rng = random.Random(f"equivalence:{label}")
        maps = _random_maps(pair, rng)
        failing = 0
        for phi, psi in zip(maps, maps[1:] + maps[:1]):
            for alpha in _random_alphas(pair, rng):
                report = check_equivalence(pair, phi, psi, alpha)
                assert report.violations == reference_equivalence(pair, phi, psi, alpha)
                failing += not report.passed
        assert failing

    def test_diagonal_search(self, label):
        pair = BENCH_PAIRS[label]()
        phi, psi = _random_maps(pair, random.Random(f"search:{label}"), count=2)
        values = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))
        for a, b in ((phi, phi), (phi, psi)):
            got = [alpha.matrix for alpha in search_equivalence_diagonal(pair, a, b, values)]
            assert got == brute_force_search(pair, a, b, values)
        assert search_equivalence_diagonal(pair, phi, phi, values)  # the identity


# Q has a central A and [B, B] = (d + 2l) A, so a diagonal witness needs
# u0 = u1^2: u0 is eliminated and ordering by u1 alone is not grid order
SQUARE = parse_document(
    "algebra R1 : lie { gens X; }\n"
    "algebra Q2 : lie { gens A, B; [B, B] = (d + 2*l) A; }\n"
    "matched P : lie { R = R1; Q = Q2; }\n"
    "defmap zero on P { }\n"
)


class TestCompiledSearchMatchesBruteForce:
    # (document, pair, phi, psi, grid, diagonal entries of the witnesses)
    CASES = [
        (sv_doc(a=0, b=5), "SVP", "psib", "psi1", grid_values(25, 1), [(5, 25)]),
        # u1 = 25 falls off the grid
        (sv_doc(a=0, b=5), "SVP", "psib", "psi1", grid_values(5, 1), []),
        (SQUARE, "P", "zero", "zero", grid_values(4, 1), [(1, -1), (1, 1), (4, -2), (4, 2)]),
    ]

    def test_cases(self, monkeypatch):
        seen = {"eliminated": 0, "candidates": 0, "witnesses": 0}
        eliminate, search = constraints.linear_eliminate, constraints.grid_search

        def counting_eliminate(system):
            result = eliminate(system)
            seen["eliminated"] += len(result.records)
            return result

        def counting_search(system, values):
            partials = search(system, values)
            seen["candidates"] += len(partials)
            return partials

        monkeypatch.setattr(constraints, "linear_eliminate", counting_eliminate)
        monkeypatch.setattr(constraints, "grid_search", counting_search)
        for doc, pair, phi, psi, values, want in self.CASES:
            pair = doc.find("matched", pair)
            phi, psi = doc.find("defmap", phi), doc.find("defmap", psi)
            got = [alpha.matrix for alpha in search_equivalence_diagonal(pair, phi, psi, values)]
            assert got == brute_force_search(pair, phi, psi, values)
            assert [(m[0][0], m[1][1]) for m in got] == [
                (MultiPoly.const(x), MultiPoly.const(y)) for x, y in want
            ]
            seen["witnesses"] += len(got)
        # an unknown was eliminated, and a grid candidate was dropped because
        # an eliminated entry fell off the grid
        assert seen["eliminated"] and seen["candidates"] > seen["witnesses"]


def brute_force_search(pair, phi, psi, values):
    """Every diagonal candidate, checked with the hand-expanded reference."""
    return [
        alpha.matrix
        for alpha in _diagonal_family(pair, values)
        if not reference_equivalence(pair, phi, psi, alpha)
    ]


def _diagonal_family(pair, values):
    n = pair.Q.rank
    nonzero = [v for v in values if v != 0]
    for diag in itertools.product(nonzero, repeat=n):
        yield Morphism(
            pair.Q,
            pair.Q,
            tuple(
                tuple(MultiPoly.const(diag[i]) if i == j else MultiPoly.zero()
                      for j in range(n))
                for i in range(n)
            ),
        )
