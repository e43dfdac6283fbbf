from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit.poly import (
    D, L1, L2, MAX_DEGREE, MAX_UNKNOWN, CapExceeded, MultiPoly, _monomial, _pack,
    scalar_text, unknown, var_name,
)
from cfkit.dsl import item_tables
from cfkit.structure import hermite_normal_form, poly_deg, poly_divmod
from helpers import bundled_documents

d = MultiPoly.var(D)
l = MultiPoly.var(L1)
m = MultiPoly.var(L2)

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
# ints and Fractions alike, integral Fractions such as Fraction(2) included
scalars = st.one_of(st.integers(-4, 4), coefficients)
# unreduced fractions over denominators with shared and distinct prime factors
mixed_scalars = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9, 12))
)


@st.composite
def term_maps(draw, variables=(D, L1, L2), values=scalars):
    """Raw monomial -> scalar maps; zero coefficients may occur."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = draw(
            st.dictionaries(st.sampled_from(variables), st.integers(1, 3), max_size=2)
        )
        terms[tuple(sorted(mono.items()))] = draw(values)
    return terms


def polys(variables=(D, L1, L2)):
    return term_maps(variables).map(MultiPoly)


class TestArithmetic:
    def test_cancellation(self):
        assert (d + 2 * l) + (-d) == 2 * l

    def test_product(self):
        assert d * l == MultiPoly({((D, 1), (L1, 1)): Fraction(1)})

    def test_expansion(self):
        assert (d + 2 * l) * (d + 2 * l) == d**2 + 4 * d * l + 4 * l**2

    def test_zero_is_unique(self):
        assert (d - d) == MultiPoly.zero()
        assert not (d - d)

    @given(p=polys(), q=polys(), r=polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == MultiPoly.zero()

    @given(p=polys(), q=polys())
    @settings(max_examples=40, deadline=None)
    def test_addition_is_canonical(self, p, q):
        # identical stored term sets, not just mathematical equality
        left, right = p + q, q + p
        assert list(left.terms()) == list(right.terms())


class TestSubstitution:
    def test_skew_substitution(self):
        assert (d + 2 * l).substitute(L1, -l - d) == -d - 2 * l

    def test_shift(self):
        assert (d + 2 * l).substitute(L1, l + m) == d + 2 * l + 2 * m

    def test_instantiated_action_coefficient(self):
        a, b = Fraction(1), Fraction(0)
        p = (a - 1) * d + a * l - b
        assert p.eval_at(L1, 0) == MultiPoly.zero()

    @given(p=polys(), q=polys(), r=polys(variables=(D, L2)))
    @settings(max_examples=60, deadline=None)
    def test_substitute_is_a_homomorphism(self, p, q, r):
        assert (p * q).substitute(L1, r) == p.substitute(L1, r) * q.substitute(L1, r)
        assert (p + q).substitute(L1, r) == p.substitute(L1, r) + q.substitute(L1, r)

    @given(p=polys(variables=(D, L1)))
    @settings(max_examples=40, deadline=None)
    def test_substitution_composition(self, p):
        assert p.substitute(L1, l + m).eval_at(L2, 0) == p

    def test_eval_at_constants(self):
        assert (d + 2 * l).eval_at(L1, 0) == d
        assert (l * l - 1).eval_at(L1, 1) == MultiPoly.zero()

    def test_constant_difference_vanishes(self):
        k = MultiPoly.const(5)
        expr = 2 * k * (k - k.eval_at(D, 0))
        assert expr == MultiPoly.zero()


class TestCoefficientList:
    def test_linear(self):
        assert (d + 2 * l).coefficient_list(L1) == [d, MultiPoly.const(2)]

    def test_absent_variable(self):
        assert (d**2).coefficient_list(L1) == [d**2]

    def test_scaled(self):
        p = 3 * (d + 2 * l)
        assert p.coefficient_list(L1) == [3 * d, MultiPoly.const(6)]

    def test_zero(self):
        assert MultiPoly.zero().coefficient_list(L1) == []

    @given(p=polys())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        rebuilt = MultiPoly.zero()
        for k, coeff in enumerate(p.coefficient_list(L1)):
            assert L1 not in coeff.variables()
            rebuilt = rebuilt + coeff * MultiPoly.var(L1, k)
        assert rebuilt == p


class TestRendering:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (d + 2 * l, "d + 2*l"),
            (-d - 2 * l, "-d - 2*l"),
            (d**2 + 4 * d * l + 4 * l**2, "d^2 + 4*d*l + 4*l^2"),
            (MultiPoly.zero(), "0"),
            (MultiPoly.const(Fraction(-3, 2)), "-3/2"),
            (Fraction(1, 2) * d + MultiPoly.var(unknown(0)), "1/2*d + u0"),
        ],
    )
    def test_text(self, poly, text):
        assert str(poly) == text

    @pytest.mark.parametrize(
        "value,text",
        [
            (10**600 - 1, "9" * 600),
            (10**600, "1" + "0" * 600),
            (-(10**1200) - 7, "-1" + "0" * 1199 + "7"),
            (123 * 10**5000 + 45, "123" + "0" * 4998 + "45"),
            (10**1500 - 1, "9" * 1500),
            (Fraction(-(10**700), 3), "-1" + "0" * 700 + "/3"),
        ],
        ids=["600-nines", "601-digits", "negative", "zero-chunks", "1500-nines", "fraction"],
    )
    def test_scalar_text_past_the_str_digit_limit(self, value, text):
        assert scalar_text(value) == text

    def test_var_names(self):
        assert [var_name(v) for v in (D, L1, L2, unknown(0), unknown(12))] == [
            "d",
            "l",
            "m",
            "u0",
            "u12",
        ]

    def test_terms_order_is_graded_lex(self):
        p = 1 + d + l + d * l + d**2
        monos = [mono for mono, _ in p.terms()]
        assert monos == [
            ((D, 2),),
            ((D, 1), (L1, 1)),
            ((D, 1),),
            ((L1, 1),),
            (),
        ]


def reference_text(p: MultiPoly) -> str:
    """The rendering read off ``terms()``: each coefficient handed out as a
    scalar, its magnitude taken by ``abs``."""
    if p.is_zero:
        return "0"
    chunks = []
    for mono, coeff in p.terms():
        body = "*".join(var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in mono)
        mag = abs(coeff)
        if not body:
            text = scalar_text(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{scalar_text(mag)}*{body}"
        if not chunks:
            chunks.append(("-" if coeff < 0 else "") + text)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + text)
    return " ".join(chunks)


class TestRenderingMatchesReference:
    """``str`` renders from the integer numerators and the common
    denominator; the text is the one read off ``terms()``."""

    def test_corpus_coefficients(self):
        seen = set()
        for _, document in bundled_documents():
            for item in document.items:
                for constants, *_ in item_tables(item):
                    seen.update(c for row in constants for pairs in row.values()
                                for _, c in pairs)
                if item.kind in ("defmap", "morphism"):
                    seen.update(c for row in item.value.matrix for c in row)
        assert any(c._den > 1 for c in seen)
        for coeff in seen:
            assert str(coeff) == reference_text(coeff)

    @given(
        p=term_maps(variables=(D, L1, L2, unknown(0)), values=mixed_scalars).map(MultiPoly),
        const=mixed_scalars,
        scale=st.sampled_from((1, -1, Fraction(1, 7), 10**620, Fraction(-1, 10**640))),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_random_polynomials(self, p, const, scale):
        for q in (p, p + const, (p + const) * scale, -(p + const)):
            assert str(q) == reference_text(q)


class TestEvaluate:
    @given(p=polys())
    @settings(max_examples=40, deadline=None)
    def test_matches_substitution(self, p):
        values = {D: Fraction(2), L1: Fraction(-1, 2), L2: Fraction(3)}
        step = p
        for var, value in values.items():
            step = step.eval_at(var, value)
        assert step.constant_value() == p.evaluate(values)


class TestBitLength:
    def test_numerators_and_denominator(self):
        d = MultiPoly.var(D)
        assert MultiPoly.zero().bit_length() == 1
        assert (Fraction(-5, 3) * d + 2).bit_length() == 3  # (-5 d + 6) / 3
        assert (d / 1024).bit_length() == 11


def assert_canonical(p: MultiPoly):
    """Every stored coefficient is an int or a non-integral Fraction."""
    for _, coeff in p.terms():
        assert type(coeff) is int or (
            type(coeff) is Fraction and coeff.denominator != 1
        ), repr(coeff)


def assert_stored_canonical(p: MultiPoly):
    """Integer numerators, none zero, over a positive denominator in lowest
    terms; the zero polynomial has denominator 1."""
    assert type(p._den) is int and p._den >= 1, p._den
    assert all(type(num) is int and num != 0 for num in p._terms.values()), p._terms
    assert gcd(p._den, *p._terms.values()) == 1, (p._terms, p._den)


class TestCoefficientTypes:
    @given(
        p=polys(),
        q=polys(),
        r=polys(),
        c=scalars.filter(bool),
        k=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_operations_store_canonical_scalars(self, p, q, r, c, k):
        results = [
            p,
            p + q,
            p - q,
            p * q,
            -p,
            p / c,
            p / MultiPoly.const(c),
            c * p,
            p**k,
            p.substitute(L1, r),
            p.eval_at(D, c),
            *p.coefficient_list(L1),
        ]
        for result in results:
            assert_canonical(result)
            assert_stored_canonical(result)

    @given(
        a=polys((D,)),
        b=polys((D,)).filter(bool),
        entries=st.lists(polys((D,)), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_division_and_hermite_store_canonical_scalars(self, a, b, entries):
        quot, rem = poly_divmod(a, b)
        assert quot * b + rem == a
        assert poly_deg(rem) < poly_deg(b)
        for poly in (quot, rem):
            assert_canonical(poly)
            assert_stored_canonical(poly)
        matrix = (tuple(entries[:3]), tuple(entries[3:]))
        for row in hermite_normal_form(matrix):
            for entry in row:
                assert_canonical(entry)
                assert_stored_canonical(entry)

    @pytest.mark.parametrize(
        "built, twin",
        [
            (d / 2 + d / 2, d),
            ((d / 3) * 3, d),
            (MultiPoly({((D, 1),): Fraction(2, 4)}), Fraction(1, 2) * d),
            (MultiPoly({((D, 1),): Fraction(4, 2), (): 0}), 2 * d),
            ((l / 6 + d / 4) * 12, 2 * l + 3 * d),
            (d / 2 - d / 2, MultiPoly.zero()),
            ((d / 2 + l / 3).substitute(L1, 3 * l), d / 2 + l),
            ((d / 2 + l / 2).coefficient_list(L1)[1], MultiPoly.const(Fraction(1, 2))),
        ],
        ids=[
            "half-plus-half",
            "third-times-three",
            "two-quarters",
            "four-halves",
            "common-denominator",
            "cancelled",
            "substituted",
            "coefficient-list",
        ],
    )
    def test_routes_to_one_value_are_equal_and_hash_equal(self, built, twin):
        assert built == twin
        assert hash(built) == hash(twin)
        assert (built._terms, built._den) == (twin._terms, twin._den)

    @pytest.mark.parametrize(
        "scalar", [3, Fraction(-7, 2), 0], ids=["int", "fraction", "zero"]
    )
    def test_constant_hashes_as_its_scalar(self, scalar):
        poly = MultiPoly.const(scalar)
        assert poly == scalar
        assert hash(poly) == hash(scalar)
        assert scalar in {poly} and poly in {scalar}

    def test_non_constant_is_not_its_constant_term(self):
        poly = d + 3
        assert poly != 3 and 3 not in {poly}
        assert poly in {3 + d}

    def test_float_is_rejected(self):
        with pytest.raises(TypeError):
            MultiPoly({(): 1.5})
        with pytest.raises(TypeError):
            MultiPoly.const(1.5)
        with pytest.raises(TypeError):
            d / 2.0
        with pytest.raises(TypeError):
            d * 1.5


# -- Fraction-only reference -------------------------------------------------
# Plain dicts of Fraction coefficients, no ints and no shortcuts: the
# arithmetic MultiPoly performed before integral coefficients became ints.


def ref(terms):
    return {mono: Fraction(c) for mono, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, Fraction(0)) + c
    return {mono: c for mono, c in out.items() if c != 0}


def ref_mul(a, b):
    out = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            exps = dict(mono_a)
            for v, e in mono_b:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {mono: c for mono, c in out.items() if c != 0}


def ref_substitute(a, var, replacement):
    out = {}
    for mono, c in a.items():
        term = {tuple((v, e) for v, e in mono if v != var): c}
        for _ in range(dict(mono).get(var, 0)):
            term = ref_mul(term, replacement)
        out = ref_add(out, term)
    return out


def ref_evaluate(a, values):
    total = Fraction(0)
    for mono, c in a.items():
        for v, e in mono:
            c *= values[v] ** e
        total += c
    return total


class TestAgainstFractionReference:
    @given(a=term_maps(), b=term_maps())
    @settings(max_examples=80, deadline=None)
    def test_add_and_mul(self, a, b):
        p, q = MultiPoly(a), MultiPoly(b)
        assert dict(p.terms()) == ref(a)
        assert dict((p + q).terms()) == ref_add(ref(a), ref(b))
        assert dict((p * q).terms()) == ref_mul(ref(a), ref(b))

    @given(a=term_maps(), r=term_maps(), var=st.sampled_from((D, L1, L2)))
    @settings(max_examples=80, deadline=None)
    def test_substitute(self, a, r, var):
        p = MultiPoly(a)
        assert dict(p.substitute(var, MultiPoly(r)).terms()) == ref_substitute(
            ref(a), var, ref(r)
        )
        identity = p.substitute(var, MultiPoly.var(var))
        assert identity is p
        assert dict(identity.terms()) == ref_substitute(
            ref(a), var, {((var, 1),): Fraction(1)}
        )

    @given(
        a=term_maps(values=mixed_scalars),
        b=term_maps(values=mixed_scalars),
        r=term_maps(values=mixed_scalars),
        var=st.sampled_from((D, L1, L2)),
    )
    @settings(max_examples=80, deadline=None)
    def test_mixed_denominators(self, a, b, r, var):
        p, q = MultiPoly(a), MultiPoly(b)
        assert dict(p.terms()) == ref(a)
        assert dict((p + q).terms()) == ref_add(ref(a), ref(b))
        assert dict((p - q).terms()) == ref_add(
            ref(a), {mono: -c for mono, c in ref(b).items()}
        )
        assert dict((p * q).terms()) == ref_mul(ref(a), ref(b))
        assert dict(p.substitute(var, MultiPoly(r)).terms()) == ref_substitute(
            ref(a), var, ref(r)
        )
        assignment = {D: Fraction(2), L1: Fraction(-1, 2), L2: Fraction(3, 4)}
        assert p.evaluate(assignment) == ref_evaluate(ref(a), assignment)

    @given(a=term_maps(), values=st.tuples(scalars, scalars, scalars))
    @settings(max_examples=80, deadline=None)
    def test_evaluate(self, a, values):
        assignment = dict(zip((D, L1, L2), map(Fraction, values)))
        assert MultiPoly(a).evaluate(assignment) == ref_evaluate(ref(a), assignment)


# -- one-pass substitution against the power-list form -----------------------

U = tuple(unknown(k) for k in range(4))
EVERY_VARIABLE = (D, L1, L2, *U)


def reference_substitute(p: MultiPoly, var: int, replacement) -> MultiPoly:
    """The power-list substitution ``MultiPoly.substitute`` made before its
    one-pass form: the powers of the replacement as polynomials, then one
    product and one sum per term, over the numerators, divided by ``p``'s
    denominator at the end."""
    if not isinstance(replacement, MultiPoly):
        replacement = MultiPoly.const(replacement)
    if replacement == MultiPoly.var(var) or var not in p.variables():
        return p
    powers = [MultiPoly.const(1)]
    for _ in range(p.degree(var)):
        powers.append(powers[-1] * replacement)
    out = MultiPoly.zero()
    for key, num in p._terms.items():
        mono = _monomial(key)
        rest = tuple((v, e) for v, e in mono if v != var)
        out = out + MultiPoly({rest: num}) * powers[dict(mono).get(var, 0)]
    return out / p._den


def replacements(var: int):
    """Polynomials over every variable, ``var`` itself included (as in
    ``d -> d + l``), the zero polynomial and rational constants."""
    return st.one_of(
        term_maps(EVERY_VARIABLE, mixed_scalars).map(MultiPoly),
        term_maps(EVERY_VARIABLE, mixed_scalars).map(
            lambda t: MultiPoly(t) + MultiPoly.var(var)
        ),
        st.just(MultiPoly.zero()),
        mixed_scalars,
    )


@st.composite
def substitutions(draw):
    var = draw(st.sampled_from(EVERY_VARIABLE))
    return draw(term_maps(EVERY_VARIABLE, mixed_scalars)), var, draw(replacements(var))


def reference_mono_mul(a, b):
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


monomials = st.dictionaries(
    st.sampled_from(EVERY_VARIABLE), st.integers(1, 4), max_size=4
).map(lambda exps: tuple(sorted(exps.items())))


class TestOnePassSubstitution:
    @given(case=substitutions())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_power_list(self, case):
        terms, var, replacement = case
        p = MultiPoly(terms)
        got = p.substitute(var, replacement)
        assert got == reference_substitute(p, var, replacement)
        assert_stored_canonical(got)

    @given(
        terms=term_maps(EVERY_VARIABLE, mixed_scalars),
        var=st.sampled_from(EVERY_VARIABLE),
        value=st.fractions(min_value=-5, max_value=5, max_denominator=9),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_eval_at_a_fraction(self, terms, var, value):
        p = MultiPoly(terms)
        assert p.eval_at(var, value) == reference_substitute(p, var, value)

    def test_cases_by_hand(self):
        p = Fraction(3, 7) * d**2 * l - Fraction(1, 2) * d + MultiPoly.var(U[2], 2)
        assert p.eval_at(L1, Fraction(3, 7)) == reference_substitute(p, L1, Fraction(3, 7))
        assert p.substitute(D, d + l) == reference_substitute(p, D, d + l)
        assert p.substitute(D, MultiPoly.zero()) == MultiPoly.var(U[2], 2)
        assert p.substitute(U[2], d / 3) == reference_substitute(p, U[2], d / 3)
        assert p.substitute(L2, d + l) is p  # m does not occur
        assert MultiPoly.zero().substitute(D, d / 3) is MultiPoly.zero()

    @given(a=monomials, b=monomials)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_packed_product(self, a, b):
        assert _monomial(_pack(a) + _pack(b)) == reference_mono_mul(a, b)
        product = MultiPoly({a: 3}) * MultiPoly({b: Fraction(1, 2)})
        assert list(product.terms()) == [(reference_mono_mul(a, b), Fraction(3, 2))]


# -- one-pass subtraction against adding the negation ------------------------


def assert_same_stored(got: MultiPoly, expected: MultiPoly):
    assert (got._terms, got._den) == (expected._terms, expected._den)
    assert hash(got) == hash(expected)


def ref_sub(a, b):
    return ref_add(a, {mono: -c for mono, c in b.items()})


class TestOnePassSubtraction:
    """``p - q`` and ``s - p`` make one pass; ``p + (-q)`` and ``s + (-p)``
    are the two-step forms they replaced.  The Fraction reference pins the
    value too, since a sum and a difference share one pass."""

    @given(
        a=term_maps(EVERY_VARIABLE, mixed_scalars),
        b=term_maps(EVERY_VARIABLE, mixed_scalars),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_adding_the_negation(self, a, b):
        p, q, zero = MultiPoly(a), MultiPoly(b), MultiPoly.zero()
        for (x, tx), (y, ty) in [
            ((p, a), (q, b)),
            ((q, b), (p, a)),
            ((p, a), (p, a)),
            ((p, a), (zero, {})),
            ((zero, {}), (q, b)),
        ]:
            got = x - y
            assert_same_stored(got, x + (-y))
            assert_stored_canonical(got)
            assert dict(got.terms()) == ref_sub(ref(tx), ref(ty))

    @given(
        a=term_maps(EVERY_VARIABLE, mixed_scalars),
        s=st.one_of(scalars, mixed_scalars),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scalar_operands(self, a, s):
        for p, terms in ((MultiPoly(a), a), (MultiPoly.zero(), {})):
            assert_same_stored(s - p, s + (-p))
            assert_same_stored(p - s, p + (-s))
            assert dict((s - p).terms()) == ref_sub({(): Fraction(s)}, ref(terms))

    def test_zero_operands(self):
        zero = MultiPoly.zero()
        assert -zero is zero
        p = d / 3 - 1
        assert p - zero is p
        assert p - 0 is p
        assert_same_stored(zero - p, -p)
        assert_same_stored(0 - p, -p)
        assert zero - zero is zero


# -- scalar operands against their constant polynomials ----------------------

# ints and Fractions, the units and zero always among them
scalar_operands = st.one_of(
    st.sampled_from((0, 1, -1, Fraction(0), Fraction(1), Fraction(-1))), scalars, mixed_scalars
)


class TestScalarPaths:
    """``p * c``, ``p + c`` and ``p - c`` for an ``int`` or ``Fraction`` ``c``
    scale or shift ``p``'s numerators directly; ``MultiPoly.const(c)`` in
    ``c``'s place takes the polynomial paths they skip, and the Fraction
    reference pins the value of both."""

    @given(a=term_maps(EVERY_VARIABLE, mixed_scalars), c=scalar_operands)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_constant_path(self, a, c):
        k, const = MultiPoly.const(c), ref({(): c})
        for p, terms in ((MultiPoly(a), ref(a)), (MultiPoly.zero(), {})):
            for got, via_const, want in [
                (p * c, p * k, ref_mul(terms, const)),
                (c * p, k * p, ref_mul(const, terms)),
                (p + c, p + k, ref_add(terms, const)),
                (c + p, k + p, ref_add(const, terms)),
                (p - c, p - k, ref_sub(terms, const)),
                (c - p, k - p, ref_sub(const, terms)),
            ]:
                assert_same_stored(got, via_const)
                assert_stored_canonical(got)
                assert dict(got.terms()) == want

    def test_shared_constants(self):
        p = d / 3 - 1
        assert p * 1 is p
        assert p * Fraction(1) is p
        assert p + 0 is p
        assert p * 0 is MultiPoly.zero()
        assert MultiPoly.zero() + 1 is MultiPoly.const(1)
        assert 1 - MultiPoly.zero() is MultiPoly.const(1)
        assert MultiPoly.zero() * 5 is MultiPoly.zero()


# -- packed monomial keys ----------------------------------------------------

TOP = unknown(MAX_UNKNOWN)
PACKED_VARIABLES = (*EVERY_VARIABLE, unknown(97), TOP)


def reference_order(terms: dict) -> list:
    """The nonzero terms of a dict of tuple monomials in the canonical order:
    descending by total degree, then by the exponent vector over
    d, l, m, u0, u1, ... compared lexicographically."""
    def key(item):
        exps = dict(item[0])
        vec = tuple(exps.get(v, 0) for v in range(TOP + 1))
        return (sum(vec), vec)

    return sorted(ref(terms).items(), key=key, reverse=True)


class TestPackedKeys:
    @given(
        terms=term_maps(PACKED_VARIABLES, mixed_scalars),
        other=term_maps(PACKED_VARIABLES, mixed_scalars),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_terms_and_leading_in_graded_lex_order(self, terms, other):
        for poly, plain in (
            (MultiPoly(terms), ref(terms)),
            (MultiPoly(terms) * MultiPoly(other), ref_mul(ref(terms), ref(other))),
        ):
            expected = reference_order(plain)
            assert list(poly.terms()) == expected
            if expected:
                assert poly.leading() == expected[0]
            assert poly.variables() == {v for mono in plain for v, _ in mono}

    def test_degree_guard_at_its_boundary(self):
        top = MultiPoly.var(D, MAX_DEGREE)
        assert MAX_DEGREE == 32767
        assert top.degree() == MAX_DEGREE
        assert list((MultiPoly.var(D, 16383) * MultiPoly.var(L1, 16384)).terms()) == [
            (((D, 16383), (L1, 16384)), 1)
        ]
        assert MultiPoly.var(D, MAX_DEGREE - 1) * d == top
        packed = "^monomial .* is over the degree guard 32767$"
        product = "^a product is over the degree guard 32767$"
        with pytest.raises(CapExceeded, match=packed):
            MultiPoly.var(D, MAX_DEGREE + 1)
        with pytest.raises(CapExceeded, match=packed):
            MultiPoly({((D, 1), (TOP, MAX_DEGREE)): 1})
        with pytest.raises(CapExceeded, match=product):
            top * l
        with pytest.raises(CapExceeded, match=product):
            (d + 1) * MultiPoly.var(L2, MAX_DEGREE)
        with pytest.raises(CapExceeded, match=product):
            (d**2 + l).substitute(D, MultiPoly.var(L1, 16384))
        assert (d**2 * l + l).substitute(D, MultiPoly.var(L1, 16383)) == (
            MultiPoly.var(L1, MAX_DEGREE) + l
        )

    def test_unknown_index_cap(self):
        assert unknown(MAX_UNKNOWN) == TOP
        assert var_name(TOP) == f"u{MAX_UNKNOWN}"
        top = MultiPoly.var(TOP, 2)
        assert top.variables() == {TOP} and top.degree(TOP) == 2
        assert str(top * d) == f"d*u{MAX_UNKNOWN}^2"
        for bad in (MAX_UNKNOWN + 1, 10**8):
            with pytest.raises(ValueError, match="over the cap"):
                unknown(bad)
        for var in (TOP + 1, 3 + 10**8, -1):
            with pytest.raises(ValueError):
                MultiPoly.var(var)
            with pytest.raises(ValueError):
                MultiPoly({((var, 1),): 1})

    @pytest.mark.parametrize(
        "mono",
        [((D, 1), (D, 1)), ((L1, 1), (D, 1)), ((D, 0),), ((D, -1),)],
        ids=["repeated", "unsorted", "zero-exponent", "negative-exponent"],
    )
    def test_malformed_monomial_is_refused(self, mono):
        with pytest.raises(ValueError, match="malformed monomial"):
            MultiPoly({mono: 1})

    def test_constant_one_is_shared_and_skipped(self):
        one = MultiPoly.const(1)
        assert one is MultiPoly.const(Fraction(2, 2)) is MultiPoly.var(D, 0)
        p = d / 3 + l
        assert one * p is p and p * one is p and p * 1 is p
        assert one * 1 is one and one * one is one


class TestUsesOnlyUpTo:
    """The largest-key test of ``uses_only_up_to`` against the variable set
    it replaces on the validators' and parser's fast path."""

    @given(
        terms=term_maps(PACKED_VARIABLES, mixed_scalars),
        var=st.one_of(st.sampled_from(PACKED_VARIABLES), st.integers(D, TOP)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_the_variable_set(self, terms, var):
        for poly in (MultiPoly(terms), MultiPoly(terms) + 1, MultiPoly(terms) * d):
            assert poly.uses_only_up_to(var) == (poly.variables() <= set(range(var + 1)))

    @pytest.mark.parametrize("var", [D, L1, L2, unknown(0), TOP])
    def test_zero_and_constants_pass(self, var):
        for poly in (MultiPoly.zero(), MultiPoly.const(1), MultiPoly.const(Fraction(-7, 3))):
            assert poly.uses_only_up_to(var)

    def test_each_variable_at_its_boundary(self):
        for var in (D, L1, L2, unknown(0), unknown(1), unknown(97), TOP):
            poly = MultiPoly.var(var) * 3 + d
            assert poly.uses_only_up_to(var)
            assert var == D or not poly.uses_only_up_to(var - 1)
        # a high power of an earlier variable stays inside its own field
        assert MultiPoly.var(L1, MAX_DEGREE).uses_only_up_to(L1)
        assert not MultiPoly.var(L1, MAX_DEGREE).uses_only_up_to(D)
