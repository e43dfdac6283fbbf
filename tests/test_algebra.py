import random
import re
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit import algebra as algebra_module
from cfkit.algebra import (
    ASSOCIATIVE,
    CheckReport,
    ConformalAlgebra,
    LIE,
    _products,
    check_axioms,
    element_text,
)
from cfkit.poly import D, L1, L2, MultiPoly, unknown

from cfkit.dsl import parse_document

from helpers import (
    abelian, assoc4_doc, basis_element, bundled, element, entries, load_fixture, product_at,
    reference_spectral_eval, require_affine, scale, sub, sv_doc, vir_algebra, wab_doc,
)

# the benchmark's generator of rank-scale documents
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

d = MultiPoly.var(D)
l = MultiPoly.var(L1)
m = MultiPoly.var(L2)

d_polys = st.builds(
    lambda c0, c1: c0 + c1 * d,
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
)

AFFINE = (l, m, l + m, -l - d, -m - d, -l - m - d)
affine = st.sampled_from(AFFINE)

_small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
#: a table coefficient in d and l, zero in about half of the draws
dl_polys = st.one_of(
    st.just(MultiPoly.zero()),
    st.builds(lambda a, b, c, e: a + b * d + c * l + e * d * l, _small, _small, _small, _small),
)


@st.composite
def kernel_cases(draw):
    """A random table of rank 1 to 3 and two elements with d-polynomial
    coordinates."""
    n = draw(st.integers(1, 3))
    table = tuple(
        tuple(tuple(draw(dl_polys) for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    x, y = (tuple(draw(d_polys) for _ in range(n)) for _ in range(2))
    return ConformalAlgebra(LIE, tuple(f"E{i}" for i in range(n)), entries(table)), x, y


def bad_vir():
    return ConformalAlgebra(LIE, ("L",), {(0, 0): {0: d + 3 * l}})


def reference_jacobi(algebra):
    """The full n^3 Jacobi loop, five products per triple: the reference
    of the orbit-reduced check."""
    violations = []
    n = algebra.rank
    basis = [basis_element(algebra, i) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        ij = product_at(algebra, basis[i], basis[j], l)
        lhs = product_at(algebra, basis[i], product_at(algebra, basis[j], basis[k], m), l)
        mid = product_at(algebra, ij, basis[k], l + m)
        rhs = product_at(algebra, basis[j], product_at(algebra, basis[i], basis[k], l), m)
        residual = sub(sub(lhs, mid), rhs)
        if any(residual):
            violations.append(f"jacobi[{i},{j},{k}]: {element_text(residual, algebra.basis)}")
    return violations


def reference_associativity(algebra):
    """The associativity loop without hoisted pair products."""
    violations = []
    n = algebra.rank
    basis = [basis_element(algebra, i) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        ij = product_at(algebra, basis[i], basis[j], l)
        lhs = product_at(algebra, ij, basis[k], l + m)
        rhs = product_at(algebra, basis[i], product_at(algebra, basis[j], basis[k], m), l)
        residual = sub(lhs, rhs)
        if any(residual):
            violations.append(
                f"associativity[{i},{j},{k}]: {element_text(residual, algebra.basis)}"
            )
    return violations


def texts(report):
    """Each violation as ``identity[indices]: residual``."""
    out = []
    for v in report.violations:
        where = ",".join(str(i) for i in v.indices)
        out.append(f"{v.identity}[{where}]: {element_text(v.residual, v.basis)}")
    return out


def axiom_part(algebra, prefix):
    """The violations ``check_axioms`` reports under one identity prefix."""
    report = check_axioms(algebra)
    return CheckReport(
        tuple(v for v in report.violations if v.identity.startswith(f"{prefix}:"))
    )


def skew_part(algebra):
    return axiom_part(algebra, "skew")


def jacobi_part(algebra):
    return axiom_part(algebra, "jacobi")


def random_poly(rng):
    """A sparse integer polynomial in d and l of degree at most 1 in each."""
    poly = MultiPoly.zero()
    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if rng.random() < 0.4:
            poly = poly + rng.choice((-2, -1, 1, 2)) * d**a * l**b
    return poly


def random_table(rng, n, shape):
    """A rank-n table: ``raw`` is arbitrary, ``skew`` is skew-symmetric by
    construction, ``diagonal`` is skew-symmetric with only [e_i _l e_i] =
    c e_i nonzero, so Jacobi can fail only at (i, i, i)."""
    zero = MultiPoly.zero()
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    flip = -l - d

    def skew_diagonal_entry():
        q = random_poly(rng)
        return q - q.substitute(L1, flip)

    for i in range(n):
        if shape == "diagonal":
            table[i][i][i] = skew_diagonal_entry()
            continue
        for j in range(n):
            if shape == "skew" and j < i:
                continue
            for k in range(n):
                if rng.random() > 1.5 / n:  # keep about 1.5 terms per product
                    continue
                if shape == "raw":
                    table[i][j][k] = random_poly(rng)
                elif i == j:
                    table[i][i][k] = skew_diagonal_entry()
                else:
                    table[i][j][k] = random_poly(rng)
                    table[j][i][k] = -table[i][j][k].substitute(L1, flip)
    return tuple(tuple(tuple(entry) for entry in row) for row in table)


def random_algebra(seed, kind=LIE):
    rng = random.Random(seed)
    n = 1 + seed % 4
    shape = ("skew", "raw", "diagonal")[seed % 3] if kind == LIE else "raw"
    names = tuple(f"E{i}" for i in range(n))
    return shape, ConformalAlgebra(kind, names, entries(random_table(rng, n, shape)))


class TestProductEval:
    def test_vir_bracket(self):
        vir = vir_algebra()
        L = basis_element(vir, 0)
        assert product_at(vir, L, L, l) == (d + 2 * l,)

    def test_left_derivation_argument(self):
        vir = vir_algebra()
        L = basis_element(vir, 0)
        out = product_at(vir, (d,), L, l)
        assert out == (-l * (d + 2 * l),)

    def test_skew_parameter(self):
        vir = vir_algebra()
        L = basis_element(vir, 0)
        assert product_at(vir, L, L, -l - d) == (-(d + 2 * l),)

    def test_rejects_nonaffine_parameter(self):
        vir = vir_algebra()
        L = basis_element(vir, 0)
        with pytest.raises(ValueError):
            product_at(vir, L, L, l * l)

    @pytest.mark.parametrize(
        "s",
        [l * m, d**2, MultiPoly.var(unknown(0)), l + 2 * l * d],
        ids=["l*m", "d^2", "u0", "l+2*d*l"],
    )
    def test_require_affine_rejects(self, s):
        message = f"spectral parameter must be affine in d, l, m: {s}"
        with pytest.raises(ValueError, match=re.escape(message)):
            require_affine(s)

    def test_require_affine_accepts(self):
        half = MultiPoly.const(Fraction(3, 2))
        for s in (MultiPoly.zero(), half, l / 2 - d + 3, d + l + m):
            require_affine(s)

    def test_rejects_rank_mismatch(self):
        vir = vir_algebra()
        with pytest.raises(ValueError):
            product_at(vir, (d, d), basis_element(vir, 0), l)

    @given(p=d_polys, s=affine)
    @settings(max_examples=50, deadline=None)
    def test_left_sesquilinearity(self, p, s):
        sv = sv_doc().find("algebra", "SV")
        x = element(sv, {"Y": p, "L": 1})
        y = element(sv, {"M": 1, "N": d})
        scaled = product_at(sv, scale(x, p), y, s)
        plain = scale(product_at(sv, x, y, s), p.substitute(D, -s))
        assert scaled == plain

    @given(p=d_polys, s=affine)
    @settings(max_examples=50, deadline=None)
    def test_right_sesquilinearity(self, p, s):
        sv = sv_doc().find("algebra", "SV")
        x = element(sv, {"Y": 1, "N": 2})
        y = element(sv, {"M": d, "L": 1})
        scaled = product_at(sv, x, scale(y, p), s)
        plain = scale(product_at(sv, x, y, s), p.substitute(D, d + s))
        assert scaled == plain


class TestKernelMatchesReference:
    """cfkit's rules against the kernel that rewrites everything on every
    call: ``_products``, the pairwise products at ``l``, and ``product_at``,
    the argument rules, the table at ``s`` and the contraction composed."""

    @given(case=kernel_cases())
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_random_tables(self, case):
        algebra, x, y = case
        for s in AFFINE:
            expected = reference_spectral_eval(algebra.table, algebra.rank, x, y, s)
            assert product_at(algebra, x, y, s) == expected, s

    @given(case=kernel_cases())
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    def test_products_at_l(self, case):
        algebra, x, y = case
        elements = (x, y)
        products = list(_products(algebra, elements))
        assert [(i, j) for i, j, _ in products] == list(product(range(2), repeat=2))
        for i, j, prod in products:
            expected = reference_spectral_eval(
                algebra.table, algebra.rank, elements[i], elements[j], l
            )
            assert prod == expected, (i, j)


class TestSkewSymmetry:
    def test_vir_passes(self):
        assert skew_part(vir_algebra()).passed

    def test_corrupted_table_residual(self):
        report = skew_part(bad_vir())
        assert not report.passed
        assert report.violations[0].residual == (-d,)

    def test_abelian_passes(self):
        assert skew_part(abelian(LIE, ("A", "B", "C"))).passed

    @pytest.mark.parametrize("algebra", [vir_algebra(), bad_vir()])
    def test_table_level_restatement(self, algebra):
        # pass iff c_ij(d, l) == -c_ji(d, -l-d) entrywise
        n = algebra.rank
        table_ok = all(
            algebra.table[i][j][k]
            == -algebra.table[j][i][k].substitute(L1, -l - d)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
        assert skew_part(algebra).passed == table_ok

    def test_kind_mismatch(self):
        # [A_l A] = A fails skew-symmetry but is associative: skew-symmetry is
        # checked on Lie tables only
        table = {(0, 0): {0: MultiPoly.const(1)}}
        assert not skew_part(ConformalAlgebra(LIE, ("A",), table)).passed
        assoc = ConformalAlgebra(ASSOCIATIVE, ("A",), table)
        assert check_axioms(assoc).passed
        assert not skew_part(assoc).violations


class TestJacobi:
    def test_vir_passes(self):
        assert jacobi_part(vir_algebra()).passed

    def test_current_algebra_passes(self):
        cur = load_fixture("cur2").find("algebra", "Cur2")
        assert jacobi_part(cur).passed

    def test_wab_passes(self):
        alg = wab_doc(1, 2).find("algebra", "Wab")
        assert jacobi_part(alg).passed

    def test_corrupted_table_fails(self):
        assert not jacobi_part(bad_vir()).passed

    def test_orbit_path_matches_full_loop(self):
        seen = {"skew-pass-jacobi-fail": 0, "skew-fail": 0, "diagonal-only": 0}
        for seed in range(300):
            shape, alg = random_algebra(seed)
            expected = reference_jacobi(alg)
            axioms = check_axioms(alg)
            skew = [t for t in texts(axioms) if t.startswith("skew:")]
            assert texts(axioms) == skew + [f"jacobi:{t}" for t in expected], seed
            if skew:
                seen["skew-fail"] += 1
            elif expected:
                seen["skew-pass-jacobi-fail"] += 1
                if shape == "diagonal" and alg.rank > 1:
                    assert all(len(set(v.indices)) == 1 for v in axioms.violations)
                    seen["diagonal-only"] += 1
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize(
        "algebra",
        [
            vir_algebra(),
            abelian(LIE, ("A", "B", "C")),
            sv_doc().find("algebra", "SV"),
            wab_doc(1, 2).find("algebra", "Wab"),
        ],
        ids=["vir", "abelian3", "sv", "wab"],
    )
    def test_passing_table_evaluates_one_triple_per_orbit(self, algebra, monkeypatch):
        calls = []
        inner = algebra_module._jacobiator

        def counting(*args):
            calls.append(args[-3:])
            return inner(*args)

        monkeypatch.setattr(algebra_module, "_jacobiator", counting)
        n = algebra.rank
        assert check_axioms(algebra).passed
        assert len(calls) == n * (n + 1) * (n + 2) // 6
        assert all(i <= j <= k for i, j, k in calls)

    @given(
        coeffs=st.lists(d_polys, min_size=12, max_size=12),
        s=st.just(None),
    )
    @settings(max_examples=25, deadline=None)
    def test_residual_vanishes_on_arbitrary_elements(self, coeffs, s):
        sv = sv_doc().find("algebra", "SV")
        x = tuple(coeffs[0:4])
        y = tuple(coeffs[4:8])
        z = tuple(coeffs[8:12])
        lhs = product_at(sv, x, product_at(sv, y, z, m), l)
        mid = product_at(sv, product_at(sv, x, y, l), z, l + m)
        rhs = product_at(sv, y, product_at(sv, x, z, l), m)
        assert not any(sub(sub(lhs, mid), rhs))


class TestAssociativity:
    def test_four_generator_example_passes(self):
        alg = assoc4_doc().find("algebra", "E4")
        assert check_axioms(alg).passed

    def test_zero_product_passes(self):
        assert check_axioms(abelian(ASSOCIATIVE, ("A", "B"))).passed

    def test_corrupted_fails(self):
        alg = load_fixture("negative").find("algebra", "BadE")
        report = check_axioms(alg)
        assert not report.passed

    def test_hoisted_loop_matches_full_loop(self):
        fixtures = [
            assoc4_doc().find("algebra", "E4"),
            load_fixture("negative").find("algebra", "BadE"),
            abelian(ASSOCIATIVE, ("A", "B")),
        ]
        randoms = [random_algebra(seed, ASSOCIATIVE)[1] for seed in range(100)]
        for alg in fixtures + randoms:
            expected = [f"assoc:{t}" for t in reference_associativity(alg)]
            assert texts(check_axioms(alg)) == expected

    def test_vanishing_pair_products_are_not_contracted(self, monkeypatch):
        # a triple whose [e_i e_j] and [e_j e_k] both vanish has a zero associator
        calls = []
        inner = algebra_module.spectral_eval

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(algebra_module, "spectral_eval", counting)
        assert check_axioms(abelian(ASSOCIATIVE, ("A", "B"))).passed
        assert calls == []
        alg = assoc4_doc().find("algebra", "E4")
        assert check_axioms(alg).passed
        live = [
            (i, j, k) for i, j, k in product(range(alg.rank), repeat=3)
            if j in alg.constants[i] or k in alg.constants[j]
        ]
        assert 0 < len(live) < alg.rank**3
        assert len(calls) == 2 * len(live)


class TestCheckAxioms:
    def test_dispatch(self, monkeypatch):
        assert check_axioms(abelian(LIE, ("A", "B", "C"))).passed
        assert check_axioms(sv_doc().find("algebra", "SV")).passed
        assert not check_axioms(bad_vir()).passed
        # either kind builds its axiom tables once per call
        builds = []
        inner = algebra_module._axiom_tables

        def counting(algebra):
            builds.append(algebra)
            return inner(algebra)

        monkeypatch.setattr(algebra_module, "_axiom_tables", counting)
        for algebra in (vir_algebra(), assoc4_doc().find("algebra", "E4")):
            builds.clear()
            assert check_axioms(algebra).passed
            assert builds == [algebra]


def six_substitution_tables(algebra):
    """The axiom tables with one substitution per table and stored constant,
    as ``_axiom_tables`` built them before the exchange: the constants at
    ``m`` by ``l -> m``, and c_jk(d+l, m) from them by ``d -> d + l``."""
    def at(constants, s):
        return tuple({j: tuple((k, c.substitute(L1, s)) for k, c in entry)
                      for j, entry in row.items()} for row in constants)

    def args(table, r):
        return [{j: tuple((k, c.substitute(D, r)) for k, c in entry if c)
                 for j, entry in row.items()} for row in table]

    at_l, at_m = algebra.constants, at(algebra.constants, m)
    return (at_l, at_m, at(at_l, l + m), args(at_m, d + l), args(at_l, -l - m),
            args(at_l, d + m), (MultiPoly.zero(),) * algebra.rank)


class TestAxiomTables:
    """``_axiom_tables`` against the six-substitution construction it
    replaced, field by field: the exchanges of ``l`` and ``m`` give the same
    polynomials as the substitutions."""

    @staticmethod
    def assert_same(algebra):
        got = algebra_module._axiom_tables(algebra)
        want = six_substitution_tables(algebra)
        for name, table, expected in zip(got._fields, got, want):
            assert list(table) == list(expected), name

    def test_bundled_algebras_and_bicrossed_products(self):
        algebras = list(bundled("algebra"))
        algebras += [(name, pair.bicrossed) for name, pair in bundled("matched")]
        assert len(algebras) > 20
        for name, algebra in algebras:
            self.assert_same(algebra)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_rank_scale(self, n):
        # E and D of each seed-1 rank-scale document of rank n
        docs = [doc for doc in workloads._rank_docs(1) if doc[0] == n]
        assert docs
        for doc in docs:
            document = parse_document(workloads._rank_doc_text(*doc))
            for name in ("E", "D"):
                self.assert_same(document.find("algebra", name))

    @pytest.mark.parametrize("kind", [LIE, ASSOCIATIVE])
    def test_seeded_random_tables(self, kind):
        for seed in range(60):
            self.assert_same(random_algebra(seed, kind)[1])


class TestTableRefused:
    """An entry outside the table's rows and columns, a coordinate that is
    not an ``int`` below the rank, an entry given as a coordinate tuple, a
    coefficient that uses ``m`` or is not a polynomial, a key that is not an
    ``(i, j)`` pair, or entries that are not a dict, is refused by name."""

    @pytest.mark.parametrize("entry, message", [
        ({(2, 0): {0: d}}, "table entry (2, 0) does not fit the shape 2 x 2 x 2"),
        ({(0, 2): {0: d}}, "table entry (0, 2) does not fit the shape 2 x 2 x 2"),
        ({(0, -1): {0: d}}, "table entry (0, -1) does not fit the shape 2 x 2 x 2"),
        ({(1, 1): {2: d}}, "table entry (1, 1) does not fit the shape 2 x 2 x 2"),
        ({(1, 1): {0: d, -1: d}}, "table entry (1, 1) does not fit the shape 2 x 2 x 2"),
        ({(1, 1): {1.0: d}}, "table entry (1, 1) does not fit the shape 2 x 2 x 2"),
        ({(1, 1): {"B": d}}, "table entry (1, 1) does not fit the shape 2 x 2 x 2"),
        ({("A", 0): {0: d}}, "table entry (A, 0) does not fit the shape 2 x 2 x 2"),
        ({(1, 0): (d, l)}, "table entry (1, 0) does not fit the shape 2 x 2 x 2"),
        ({(1, 0): (d,)}, "table entry (1, 0) does not fit the shape 2 x 2 x 2"),
        ({(0, 0): {0: d + m, 1: d}}, "table entry d + m uses variables other than d, l"),
        ({(0, 0): {0: 3}}, "table entry (0, 0) has a non-polynomial coefficient"),
        ({(0, 0): {0: d, 1: 0}}, "table entry (0, 0) has a non-polynomial coefficient"),
        ({0: {0: d}}, "table entries must be keyed by (i, j) pairs"),
        ({(0, 0, 0): {0: d}}, "table entries must be keyed by (i, j) pairs"),
    ], ids=["row", "column", "negative-column", "coordinate", "negative-coordinate",
            "float-coordinate", "name-coordinate", "name-row", "dense", "short",
            "m-coefficient", "int-coefficient", "int-zero-coefficient", "int-key",
            "triple-key"])
    def test_algebra(self, entry, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConformalAlgebra(LIE, ("A", "B"), {(0, 1): {0: d, 1: l}, **entry})

    @pytest.mark.parametrize("entries", [
        [((0, 0), {0: d})], (((0, 0), {0: d}),),
    ], ids=["list-entries", "tuple-entries"])
    def test_entries_not_a_dict(self, entries):
        with pytest.raises(ValueError, match=r"^table entries must be keyed by \(i, j\) pairs$"):
            ConformalAlgebra(LIE, ("A",), entries)


class TestElementText:
    def test_rendering(self):
        vir = vir_algebra()
        assert element_text((3 * d + 6 * l,), vir.basis) == "(3*d + 6*l) L"
        assert element_text((MultiPoly.zero(),), vir.basis) == "0"
        assert element_text((MultiPoly.const(1),), vir.basis) == "L"
