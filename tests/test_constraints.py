import hashlib
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfkit.constraints
from cfkit.constraints import (
    MAX_GRID_POINTS,
    MAX_SUBSTITUTION_CELLS,
    AnsatzSpec,
    _compile,
    compile_deformation_constraints,
    grid_search,
    grid_values,
    linear_eliminate,
    system_from_json,
    system_to_json,
    verify_assignment,
    assignment_text,
)
from cfkit.constraints import ConstraintSystem, Equation, Provenance
from cfkit.deform import (
    DeformationMap, _graph, _morphism_residuals, check_deformation_map, deformed_algebra,
)
from cfkit.dsl import parse_document
from cfkit.poly import D, L1, L2, MAX_UNKNOWN, CapExceeded, MultiPoly, unknown

from helpers import assoc4_doc, bundled, reference_compile, sv_doc, wab_doc

# the benchmark's generator of rank-scale documents
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

d = MultiPoly.var(D)
u0, u1, u2, u3 = (MultiPoly.var(unknown(k)) for k in range(4))


def eq(poly, note="test"):
    return Equation(poly, Provenance(note, note, note, "1"))


def system(unknowns, polys):
    return ConstraintSystem(tuple(unknowns), tuple(eq(p) for p in polys))


class TestCompile:
    def test_scalar_ansatz_off_family(self):
        pair = wab_doc(2, 0).find("matched", "WP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(1, 1, 0))
        assert [str(e.poly) for e in sys_.equations] == ["u0^2"]
        prov = sys_.equations[0].provenance
        assert (prov.left, prov.right, prov.coord) == ("W", "W", "L")

    def test_scalar_ansatz_on_family_is_empty(self):
        pair = wab_doc(1, 3).find("matched", "WP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(1, 1, 0))
        assert sys_.equations == ()
        assert sys_.unknowns == (unknown(0),)

    def test_quadratic_ansatz_forces_constants(self):
        pair = wab_doc(1, 0).find("matched", "WP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(1, 1, 2))
        solutions = grid_search(sys_, grid_values(1, 1))
        assert solutions == [
            {unknown(0): Fraction(n), unknown(1): Fraction(0), unknown(2): Fraction(0)}
            for n in (-1, 0, 1)
        ]

    def test_equations_are_at_most_quadratic(self):
        pair = sv_doc().find("matched", "SVP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 1))
        assert all(e.poly.degree() <= 2 for e in sys_.equations)

    def test_deterministic(self):
        pair = sv_doc().find("matched", "SVP")
        a = compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 1))
        b = compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 1))
        assert a == b

    def test_unknowns_are_row_major_low_powers_first(self):
        ansatz = AnsatzSpec.uniform(2, 3, 1)
        assert ansatz.unknowns == tuple(unknown(k) for k in range(12))
        matrix = ansatz.symbolic_matrix()
        for j in range(2):
            for i in range(3):
                k = 2 * (3 * j + i)
                assert matrix[j][i] == MultiPoly.var(unknown(k)) + MultiPoly.var(
                    unknown(k + 1)
                ) * d

    def test_negative_degree_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            AnsatzSpec.uniform(1, 1, -1)
        with pytest.raises(ValueError, match="non-negative"):
            AnsatzSpec(1, 1, -1)

    def test_shape_mismatch(self):
        pair = wab_doc(1, 0).find("matched", "WP")
        with pytest.raises(ValueError):
            compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 0))


def compiled(compile_, residuals, unknowns, pair_names, coord_names):
    """The system ``compile_`` builds, or the message of its AssertionError."""
    try:
        return compile_(residuals, unknowns, pair_names, coord_names)
    except AssertionError as exc:
        return str(exc)


def assert_compiles_as_reference(residuals, unknowns, pair_names, coord_names):
    rows = list(residuals)
    got = compiled(_compile, rows, unknowns, pair_names, coord_names)
    want = compiled(reference_compile, rows, unknowns, pair_names, coord_names)
    assert got == want
    if isinstance(want, ConstraintSystem):
        assert system_to_json(got) == system_to_json(want)
    return want


# unknowns at both ends of the index range, u1020 among them
_POOL = tuple(unknown(k) for k in (0, 1, 5, MAX_UNKNOWN - 1, MAX_UNKNOWN))


@st.composite
def residual_rows(draw):
    """Residual rows ``(i, j, coords)`` over two generator and two coordinate
    names: coordinates in d, l and the unknowns of ``_POOL``, quadratic in
    the unknowns, with fractional coefficients, zero coordinates and
    repeated equations, and now and then a cubic term or one in ``m``."""
    fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))

    def coord():
        poly = MultiPoly.zero()
        for _ in range(draw(st.integers(0, 4))):
            term = MultiPoly.const(draw(fractions))
            term *= MultiPoly.var(D, draw(st.integers(0, 3)))
            term *= MultiPoly.var(L1, draw(st.integers(0, 3)))
            for u in draw(st.lists(st.sampled_from(_POOL), max_size=2)):
                term *= MultiPoly.var(u)
            poly += term
        odd = draw(st.sampled_from([None] * 18 + ["cubic", "m"]))
        if odd == "cubic":
            poly += MultiPoly.var(draw(st.sampled_from(_POOL)), 3)
        elif odd == "m":
            poly += MultiPoly.var(L2) * MultiPoly.var(_POOL[0])
        return poly

    rows = []
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        coords = [coord(), coord()]
        if draw(st.booleans()):
            # a multiple of an earlier coordinate, maybe shifted in d and l:
            # every equation it gives is a repeat
            pick = draw(st.integers(0, len(rows) * 2 + 1))
            source = ([c for _, _, cs in rows for c in cs] + coords)[pick]
            shift = MultiPoly.var(D, draw(st.integers(0, 1))) * MultiPoly.var(
                L1, draw(st.integers(0, 1))
            )
            coords[draw(st.integers(0, 1))] = source * draw(fractions) * shift
        rows.append((i, j, tuple(coords)))
    return rows


class TestCompileMatchesReference:
    """``_compile`` against the decode-and-bucket compiler of
    ``helpers.reference_compile``: the same equations in the same order with
    the same provenance, or the same AssertionError."""

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_bundled_pairs(self, degree):
        for _, pair in bundled("matched"):
            ansatz = AnsatzSpec(pair.Q.rank, pair.R.rank, degree)
            _, residuals = _graph(pair, ansatz.symbolic_matrix())
            assert_compiles_as_reference(residuals, ansatz.unknowns, pair.Q.basis, pair.R.basis)

    def test_sv_diagonal_morphism_systems(self):
        sizes = []
        for params in ({"a": 0, "b": 5}, {"a": 0, "b": 0}, {"a": 2, "b": 1}):
            doc = sv_doc(**params)
            pair = doc.find("matched", "SVP")
            maps = [doc.find("defmap", name) for name in ("phiab", "psi1", "psib", "zero")]
            n = pair.Q.rank
            unknowns = tuple(unknown(k) for k in range(n))
            symbolic = tuple(
                tuple(MultiPoly.var(unknowns[i]) if i == j else MultiPoly.zero() for j in range(n))
                for i in range(n)
            )
            for phi in maps:
                for psi in maps:
                    source, target = deformed_algebra(pair, phi), deformed_algebra(pair, psi)
                    residuals = _morphism_residuals(source, target, symbolic)
                    system_ = assert_compiles_as_reference(
                        residuals, unknowns, pair.Q.basis, pair.Q.basis
                    )
                    sizes.append(len(system_.equations))
        assert len(set(sizes)) > 1

    @given(rows=residual_rows())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_random_residual_rows(self, rows):
        assert_compiles_as_reference(rows, _POOL, ("W1", "W2"), ("L", "N"))

    @pytest.mark.parametrize(
        "coord, message",
        [
            (MultiPoly.var(_POOL[-1], 3), "compiled equations must be quadratic"),
            (MultiPoly.var(L2) * MultiPoly.var(_POOL[0]), "collected equation still has d/l"),
        ],
        ids=["cubic", "m"],
    )
    def test_refusals(self, coord, message):
        rows = [(0, 0, (MultiPoly.var(_POOL[0]), MultiPoly.var(D) * coord))]
        with pytest.raises(AssertionError, match=message):
            _compile(rows, _POOL, ("W",), ("L", "N"))
        assert_compiles_as_reference(rows, _POOL, ("W",), ("L", "N"))

    def test_equation_order_and_repeats(self):
        # by descending total degree, l^t first, then descending powers of d;
        # the constant coefficient repeats d^3's and is dropped
        u0, u1, u5, u1019, u1020 = (MultiPoly.var(u) for u in _POOL)
        d_, l_ = MultiPoly.var(D), MultiPoly.var(L1)
        coord = (
            d_**3 * u0 * u1 / 2 + l_**2 * u0 + d_**2 * u1 + d_ * l_ * u5
            + l_ * u1019 + d_ * u1020 + 3 * u0 * u1
        )
        system_ = _compile([(0, 0, (coord,))], _POOL, ("W",), ("L",))
        assert [(str(e.poly), e.provenance.monomial) for e in system_.equations] == [
            ("u0*u1", "d^3"), ("u0", "l^2"), ("u1", "d^2"), ("u5", "d*l"),
            ("u1019", "l"), ("u1020", "d"),
        ]


class TestWideAnsatz:
    """The wide ansatz that no corpus line or bench workload reaches: the
    rank-8 n-fold pair at degree 2."""

    @pytest.fixture(scope="class")
    def doc(self):
        scalars = tuple(Fraction(i + 1, 2) for i in range(8))
        return parse_document(workloads._rank_doc_text(8, Fraction(1, 3), scalars))

    def test_system_is_pinned(self, doc):
        ansatz = AnsatzSpec(8, 1, 2)
        system_ = compile_deformation_constraints(doc.find("matched", "NP"), ansatz)
        assert len(system_.equations) == 644
        text = json.dumps(system_to_json(system_), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "58b6ce517c36e11fb8441ddf854508c5bfb4b81676fe2f73da2cd4f10ac17fb9"
        )
        # the closed-form map Wi -> ai L satisfies it
        assert verify_assignment(system_, ansatz.coefficients_of(doc.find("defmap", "phi")))


class TestVerifyAssignment:
    def test_simple(self):
        sys_ = system([unknown(0)], [u0 * u0])
        assert verify_assignment(sys_, {unknown(0): Fraction(0)})
        assert not verify_assignment(sys_, {unknown(0): Fraction(1)})

    def test_missing_unknown(self):
        sys_ = system([unknown(0)], [u0])
        with pytest.raises(ValueError):
            verify_assignment(sys_, {})

    def test_sv_family_satisfies_compiled_system(self):
        doc = sv_doc(a=2, b=1)
        pair = doc.find("matched", "SVP")
        ansatz = AnsatzSpec.uniform(2, 2, 1)
        sys_ = compile_deformation_constraints(pair, ansatz)
        phi = doc.find("defmap", "phiab")
        assignment = ansatz.coefficients_of(phi)
        # f = 2, g = d + 1, h = k = 0
        assert assignment[unknown(0)] == 2
        assert assignment[unknown(1)] == 0
        assert assignment[unknown(2)] == 1
        assert assignment[unknown(3)] == 1
        assert verify_assignment(sys_, assignment)


class TestCoefficientsOf:
    @pytest.mark.parametrize(
        "q_rank, r_rank", [(1, 1), (3, 3)], ids=["map-larger", "map-smaller"]
    )
    def test_refuses_a_map_of_another_shape(self, q_rank, r_rank):
        phi = sv_doc(a=2, b=1).find("defmap", "phiab")  # a 2x2 map of SVP
        message = f"map shape 2x2 does not match the ansatz shape {q_rank}x{r_rank}"
        with pytest.raises(ValueError, match=message):
            AnsatzSpec.uniform(q_rank, r_rank, 1).coefficients_of(phi)


class TestLinearEliminate:
    def test_two_pass_example(self):
        sys_ = system([unknown(0), unknown(1)], [u1 - 3, u0 * u1])
        result = linear_eliminate(sys_)
        assert result.system.equations == ()
        assert result.assignment == {unknown(1): Fraction(3), unknown(0): Fraction(0)}
        assert result.unsatisfiable is None

    def test_pure_quadratic_untouched(self):
        sys_ = system([unknown(0)], [u0 * u0])
        result = linear_eliminate(sys_)
        assert [e.poly for e in result.system.equations] == [u0 * u0]
        assert result.assignment == {}

    def test_inconsistency_reported(self):
        sys_ = system([unknown(0), unknown(1)], [u0 - 1, u0 - 2])
        result = linear_eliminate(sys_)
        assert result.unsatisfiable is not None
        # a system given a nonzero constant equation is refused before any
        # substitution; a zero one is no constraint
        given = ConstraintSystem(
            (unknown(0),), (eq(u0 - 1), eq(MultiPoly.const(1), "constant"))
        )
        result = linear_eliminate(given)
        assert result.unsatisfiable == Provenance("constant", "constant", "constant", "1")
        assert not result.records
        assert linear_eliminate(system([unknown(0)], [MultiPoly.zero()])).unsatisfiable is None

    def test_sv_eliminates_second_row_coefficients(self):
        pair = sv_doc().find("matched", "SVP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 1))
        result = linear_eliminate(sys_)
        eliminated = {rec.var for rec in result.records}
        assert {unknown(4), unknown(5), unknown(6), unknown(7)} <= eliminated
        assert set(result.system.unknowns) <= {unknown(k) for k in range(4)}

    def test_solution_set_preserved(self):
        for pair, degree in [
            (wab_doc(2, 0).find("matched", "WP"), 1),
            (sv_doc().find("matched", "SVP"), 1),
            (assoc4_doc().find("matched", "AP"), 0),
        ]:
            sys_ = compile_deformation_constraints(
                pair, AnsatzSpec.uniform(pair.Q.rank, pair.R.rank, degree)
            )
            values = grid_values(1, 1)
            direct = (
                grid_search(sys_, values, cap=12) if len(sys_.unknowns) <= 12 else None
            )
            result = linear_eliminate(sys_)
            extended = [
                result.extend(partial)
                for partial in grid_search(result.system, values, cap=12)
            ]
            # every extension solves the original system
            for full in extended:
                assert verify_assignment(sys_, full)
            if direct is not None:
                # and every direct solution arises as exactly one extension,
                # when the eliminated values land on the same grid
                keyed = {tuple(sorted(f.items())) for f in extended}
                for sol in direct:
                    assert tuple(sorted(sol.items())) in keyed


    def test_back_substitution_matches_fixed_point(self):
        """One reverse pass over the records resolves what repeating forward
        passes until nothing changes resolved, on random chained systems."""
        rng = random.Random(5)
        us = [MultiPoly.var(unknown(k)) for k in range(5)]
        seen = {"unresolved": 0, "chained": 0}
        for _ in range(300):
            polys = []
            for _ in range(rng.randint(1, 4)):
                a, b, c = rng.sample(us, 3)
                polys.append(
                    rng.randint(1, 3) * a
                    + rng.randint(-2, 2) * b * c
                    + rng.randint(-2, 2) * b
                    + rng.randint(-2, 2)
                )
            result = linear_eliminate(system([unknown(k) for k in range(5)], polys))
            if result.unsatisfiable is not None:
                continue
            assert result.assignment == reference_resolve(result.records, {})
            residual = {v: Fraction(rng.randint(-3, 3)) for v in result.system.unknowns}
            assert result.extend(residual) == reference_resolve(
                result.records, {**residual, **result.assignment}
            )
            seen["unresolved"] += len(result.records) > len(result.assignment)
            seen["chained"] += any(
                set(rec.replacement.variables()) & {r.var for r in result.records}
                for rec in result.records
            )
        assert seen["unresolved"] and seen["chained"]

    def test_substitution_budget_accumulates(self, monkeypatch):
        # u0 -> -u1 meets u0 + u1 and u0^2: C(2, 1) + C(3, 1) = 5 terms; then
        # u1 -> -u2 meets u1 + u2 and u1^2: 5 more
        sys_ = system([unknown(k) for k in range(3)], [u0 + u1, u1 + u2, u0 * u0])
        monkeypatch.setattr(cfkit.constraints, "MAX_SUBSTITUTION_CELLS", 10)
        assert linear_eliminate(sys_).system.equations[0].poly == u2 * u2
        monkeypatch.setattr(cfkit.constraints, "MAX_SUBSTITUTION_CELLS", 9)
        message = "^substituting for u1 takes the elimination to 10 power terms,"
        with pytest.raises(CapExceeded, match=message + " over the budget of 9$"):
            linear_eliminate(sys_)

    def test_substitution_budget(self):
        # u0 -> -(u1 + ... + uk) in u0^64 forms powers of at most C(64 + k, k)
        # terms: 814 385 pass at k = 4, 11 238 513 are refused at once at k = 5
        def summands(k):
            us = [MultiPoly.var(unknown(i)) for i in range(k + 1)]
            return system([unknown(i) for i in range(k + 1)], [sum(us[1:], u0), u0**64])

        assert 814385 + 5 <= MAX_SUBSTITUTION_CELLS < 11238513 + 6
        assert linear_eliminate(summands(4)).records[0].var == unknown(0)
        started = time.monotonic()
        message = "^substituting for u0 takes the elimination to 11238519 power terms"
        with pytest.raises(CapExceeded, match=message):
            linear_eliminate(summands(5))
        assert time.monotonic() - started < 1.0


def reference_resolve(records, known):
    """The forward fixed-point loop the reverse pass replaced."""
    resolved = dict(known)
    progress = True
    while progress:
        progress = False
        for record in records:
            if record.var in resolved:
                continue
            if record.replacement.variables() <= resolved.keys():
                resolved[record.var] = record.replacement.evaluate(resolved)
                progress = True
    return resolved


class TestGrid:
    def test_values(self):
        values = grid_values(2, 2)
        assert [str(v) for v in values] == ["-2", "-1", "-1/2", "0", "1/2", "1", "2"]
        assert len(values) == 7

    def test_count_matches_listing(self):
        # 1 + 2 * sum_{k <= min(N, D)} mu(k) floor(N/k) floor(D/k), and 1 for N = 0
        rng = random.Random(7)
        bounds = [(n, q) for n in range(9) for q in range(1, 9)]
        bounds += [(rng.randint(0, 80), rng.randint(1, 80)) for _ in range(100)]
        for num, den in bounds:
            reduced = {
                (p // gcd(p, q), q // gcd(p, q))
                for p in range(-num, num + 1)
                for q in range(1, den + 1)
            }
            assert len(grid_values(num, den)) == len(reduced), (num, den)
        # the integer-keyed listing against the Fraction sort it replaced; its
        # key's shift steps where the denominator bound crosses a power of two
        steps = [(rng.randint(1, 9), 2**b + s) for b in range(1, 12) for s in (-1, 0, 1)]
        for num, den in bounds[:: len(bounds) // 12] + steps:
            values = grid_values(num, den)
            listed = {Fraction(p, q) for p in range(-num, num + 1) for q in range(1, den + 1)}
            assert list(values) == sorted(listed)
            assert all(v in values for v in listed)
            assert Fraction(num + 1, 1) not in values and Fraction(1, den + 1) not in values

    def test_search_on_empty_system_lists_all_values(self):
        sys_ = system([unknown(0)], [])
        found = grid_search(sys_, grid_values(2, 2))
        assert [a[unknown(0)] for a in found] == list(grid_values(2, 2))

    def test_cap(self):
        sys_ = system([unknown(k) for k in range(7)], [])
        message = "^7 unknowns exceed the exhaustive-search cap of 6$"
        with pytest.raises(CapExceeded, match=message):
            grid_search(sys_, grid_values(1, 1))

    def test_point_budget_boundary(self):
        # a grid of bounds has an odd number of values, so only a sequence of
        # ten reaches the budget exactly: 10^6 points are walked, 11^6 refused
        sys_ = system([unknown(k) for k in range(6)],
                      [MultiPoly.var(unknown(k)) for k in range(6)])
        values = tuple(map(Fraction, range(10)))
        assert len(values) ** 6 == MAX_GRID_POINTS
        assert grid_search(sys_, values) == [{unknown(k): 0 for k in range(6)}]
        with pytest.raises(CapExceeded, match=r"^11\^6 grid points exceed the"
                           r" exhaustive-search budget of 1000000$"):
            grid_search(sys_, values + (Fraction(10),))

    def test_point_budget_enumerates_nothing(self, monkeypatch):
        # 799^6, about 2.6e17 points, is within the unknown cap of 6; the walk
        # tests every prefix it visits, and the constant equations before it
        def visited(stage, point):
            raise AssertionError("a grid point was enumerated")

        monkeypatch.setattr(cfkit.constraints, "_satisfies", visited)
        sys_ = system([unknown(k) for k in range(6)], [])
        with pytest.raises(CapExceeded, match="799\\^6 grid points"):
            grid_search(sys_, grid_values(25, 25))

    def test_four_generator_relation(self):
        pair = assoc4_doc().find("matched", "AP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 0))
        found = grid_search(sys_, grid_values(1, 1))
        relation = lambda s: s[unknown(0)] * s[unknown(3)] == s[unknown(1)] * s[unknown(2)]
        assert all(relation(s) for s in found)
        assert len(found) == 33  # count of the relation's solutions over {-1,0,1}^4
        # spot members of the constant families
        member = {unknown(0): Fraction(0), unknown(1): Fraction(0),
                  unknown(2): Fraction(1), unknown(3): Fraction(1)}
        assert member in found


def brute_force_grid(sys_, values):
    """Every point of the grid, in product order, checked by verify_assignment."""
    found = []
    for combo in product(values, repeat=len(sys_.unknowns)):
        assignment = dict(zip(sys_.unknowns, combo))
        if verify_assignment(sys_, assignment):
            found.append(assignment)
    return found


class TestGridSearchMatchesBruteForce:
    GRIDS = {
        "empty": (),
        "integers": grid_values(1, 1),
        "halves": grid_values(2, 2),
        "thirds": grid_values(1, 3),
        "mixed denominators": grid_values(1, 4),
        "zero-free": tuple(v for v in grid_values(2, 2) if v != 0),
        "zero-free integers": tuple(v for v in grid_values(2, 1) if v != 0),
    }

    def random_poly(self, rng, unknowns):
        """Up to four terms of degree up to three in a random subset of
        ``unknowns``, with coefficients that may have denominators."""
        used = rng.sample(unknowns, rng.randint(0, len(unknowns)))
        poly = MultiPoly.zero()
        for _ in range(rng.randint(1, 4)):
            term = MultiPoly.const(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])))
            for _ in range(rng.randint(0, 3) if used else 0):
                term = term * MultiPoly.var(rng.choice(used))
            poly = poly + term
        return poly

    def test_seeded_systems(self):
        rng = random.Random(1010)
        seen = Counter()
        for trial in range(400):
            k = trial % 5
            unknowns = rng.sample([unknown(i) for i in range(6)], k)
            name = rng.choice(
                [g for g, vals in self.GRIDS.items() if len(vals) ** k <= 400]
            )
            values = self.GRIDS[name]
            polys = []
            for _ in range(rng.randint(0, 3)):
                poly = self.random_poly(rng, unknowns)
                if values and rng.random() < 0.7:
                    # plant a root, so that solutions are common
                    root = {u: rng.choice(values) for u in unknowns}
                    poly = poly - poly.evaluate(root)
                polys.append(poly)
            if rng.random() < 0.15:
                polys.insert(rng.randint(0, len(polys)), MultiPoly.zero())
                seen["zero constant"] += 1
            if rng.random() < 0.05:
                polys.insert(rng.randint(0, len(polys)), MultiPoly.const(Fraction(3, 2)))
                seen["nonzero constant"] += 1
            sys_ = system(unknowns, polys)
            got = grid_search(sys_, values, cap=4)
            assert got == brute_force_grid(sys_, values), (unknowns, polys, values)
            seen[f"k={k}"] += 1
            seen[name] += 1
            seen["solutions" if got else "no solutions"] += 1
            seen["denominators"] += any(
                c.denominator > 1 for p in polys for _, c in p.terms()
            )
        assert all(seen[f"k={k}"] for k in range(5))
        assert all(seen[name] for name in self.GRIDS)
        for case in ("solutions", "no solutions", "zero constant", "nonzero constant",
                     "denominators"):
            assert seen[case], case


class TestOracleAgreement:
    def test_dual_route_small(self):
        rng = random.Random(2024)
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)]
        cases = [
            (wab_doc(1, 0).find("matched", "WP"), 1),
            (wab_doc(2, 0).find("matched", "WP"), 1),
            (assoc4_doc().find("matched", "AP"), 1),
        ]
        for pair, degree in cases:
            ansatz = AnsatzSpec.uniform(pair.Q.rank, pair.R.rank, degree)
            sys_ = compile_deformation_constraints(pair, ansatz)
            for _ in range(40):
                matrix = tuple(
                    tuple(
                        rng.choice(pool) + rng.choice(pool) * d
                        for _ in range(pair.R.rank)
                    )
                    for _ in range(pair.Q.rank)
                )
                dm = DeformationMap(pair, matrix)
                via_system = verify_assignment(sys_, ansatz.coefficients_of(dm))
                direct = check_deformation_map(pair, dm).passed
                assert via_system == direct


class TestJsonRoundTrip:
    def test_round_trip(self):
        pair = sv_doc().find("matched", "SVP")
        sys_ = compile_deformation_constraints(pair, AnsatzSpec.uniform(2, 2, 1))
        data = system_to_json(sys_)
        back = system_from_json(data)
        assert back == sys_

    def test_assignment_text(self):
        text = assignment_text({unknown(0): Fraction(1, 2), unknown(2): Fraction(-3)})
        assert text == {"u0": "1/2", "u2": "-3"}
