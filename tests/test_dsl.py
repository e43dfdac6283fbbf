from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit.algebra import ASSOCIATIVE, ConformalAlgebra, LIE
from cfkit.dsl import (
    MAX_DIGITS,
    MAX_EXPONENT,
    Document,
    Item,
    ParseError,
    parse_document,
    parse_poly_text,
    serialize,
    try_parse,
)
from cfkit.poly import D, L1, MultiPoly

d = MultiPoly.var(D)
l = MultiPoly.var(L1)


class TestParse:
    def test_rank_one(self):
        doc = parse_document("algebra Vir : lie { gens L; [L, L] = (d + 2*l) L; }")
        alg = doc.find("algebra", "Vir")
        assert alg.kind == LIE and alg.basis == ("L",)
        assert alg.table[0][0] == (d + 2 * l,)

    def test_omitted_brackets_default_to_zero(self):
        doc = parse_document("algebra Z : lie { gens X; }")
        alg = doc.find("algebra", "Z")
        assert alg.table[0][0] == (MultiPoly.zero(),)

    def test_parameters_bound_at_parse_time(self):
        doc = parse_document(
            "algebra A : lie { gens L, W; [L, W] = (d + a*l + b) W; "
            "[W, L] = ((a - 1)*d + a*l - b) W; }",
            {"a": Fraction(1), "b": Fraction(0)},
        )
        alg = doc.find("algebra", "A")
        assert alg.table[0][1] == (MultiPoly.zero(), d + l)

    def test_bare_generator_is_unit_coefficient(self):
        doc = parse_document("algebra A : assoc { gens X, Y; [X, Y] = X; }")
        assert doc.find("algebra", "A").table[0][1][0] == MultiPoly.const(1)

    def test_explicit_zero_entry(self):
        doc = parse_document("algebra A : lie { gens X; [X, X] = 0; }")
        assert doc.find("algebra", "A").table[0][0] == (MultiPoly.zero(),)

    def test_term_sums_and_signs(self):
        doc = parse_document(
            "algebra A : assoc { gens X, Y; [X, X] = (2) X - (d) Y + X; }"
        )
        assert doc.find("algebra", "A").table[0][0] == (MultiPoly.const(3), -d)

    def test_in_file_param(self):
        doc = parse_document("param a = 3/2; algebra A : lie { gens X; [X, X] = (a*l) X; }")
        assert doc.find("algebra", "A").table[0][0] == (Fraction(3, 2) * l,)
        assert doc.find("param", "a") == Fraction(3, 2)

    def test_cli_params_override_in_file_defaults(self):
        doc = parse_document(
            "param a = 1; algebra A : lie { gens X; [X, X] = (a*l) X; }",
            {"a": Fraction(2)},
        )
        assert doc.find("algebra", "A").table[0][0] == (2 * l,)

    def test_used_params_are_declared_or_read(self):
        doc = parse_document(
            "param a = 1; algebra A : lie { gens X; [X, X] = (b*l) X; }",
            {"a": Fraction(2), "b": Fraction(3), "c": Fraction(4)},
        )
        assert doc.used_params == {"a", "b"}
        # the record is not part of the document's value
        assert doc == Document(doc.items)


class TestDiagnostics:
    def test_unbound_parameter(self):
        _, diags = try_parse("algebra A : lie { gens X; [X, X] = (q) X; }")
        assert any("unbound parameter" in x.message for x in diags)

    def test_unknown_generator(self):
        _, diags = try_parse("algebra A : lie { gens X; [X, Z] = X; }")
        assert any("unknown generator" in x.message for x in diags)

    def test_wrong_kind_reference(self):
        text = """
        algebra A : lie { gens X; }
        algebra B : assoc { gens Y; }
        matched P : lie { R = A; Q = B; }
        """
        _, diags = try_parse(text)
        assert any("wrong kind" in x.message for x in diags)

    def test_second_spectral_variable_rejected_in_tables(self):
        _, diags = try_parse("algebra A : lie { gens X; [X, X] = (m) X; }")
        assert any("not allowed" in x.message for x in diags)

    def test_map_entries_must_be_d_only(self):
        text = """
        algebra A : lie { gens X; }
        algebra B : lie { gens Y; }
        morphism h : A -> B { X -> (l) Y; }
        """
        _, diags = try_parse(text)
        assert any("not allowed" in x.message for x in diags)

    def test_errors_are_collected_not_fatal(self):
        text = """
        algebra A : lie { gens X; [X, X] = (q) X; }
        algebra B : foo { gens Y; }
        """
        _, diags = try_parse(text)
        assert len(diags) >= 2

    def test_spans_index_real_source(self):
        text = "algebra A : lie { gens X; [X, X] = (q) X; }"
        _, diags = try_parse(text)
        lines = text.splitlines()
        for diag in diags:
            assert 1 <= diag.line <= len(lines)
            assert 1 <= diag.col <= len(lines[diag.line - 1]) + 1
            assert diag.length >= 1

    def test_parse_error_exception(self):
        with pytest.raises(ParseError):
            parse_document("algebra A : lie { gens X; [X, X] = (q) X; }")

    def test_exponent_over_cap_rejected_before_expanding(self, monkeypatch):
        powers = []
        pow_ = MultiPoly.__pow__
        monkeypatch.setattr(
            MultiPoly, "__pow__", lambda p, n: powers.append(n) or pow_(p, n)
        )
        for exponent in (MAX_EXPONENT + 1, 100000, "0" * 8 + "65", "9" * 5000):
            text = f"algebra A : lie {{ gens X;\n[X, X] = (d^{exponent}) X; }}"
            document, diags = try_parse(text)
            assert document is None
            assert [(x.line, x.col) for x in diags] == [(2, 13)]
            assert "exceeds the cap" in diags[0].message
        assert powers == []

    @pytest.mark.parametrize(
        "template, col",
        [
            ("[X, X] = (d + {}) X;", 15),  # coefficient
            ("[X, X] = (d + 1/{}) X;", 17),  # denominator
            ("[X, X] = (d + u{}) X;", 15),  # unknown index
        ],
    )
    def test_too_long_literal_rejected_at_its_token(self, template, col):
        long = "7" * (MAX_DIGITS + 1)
        text = "algebra A : lie { gens X;\n" + template.format(long) + " }"
        _, diags = try_parse(text)
        assert [(x.line, x.col) for x in diags] == [(2, col)]
        assert f"literal of {MAX_DIGITS + 1} digits exceeds the cap" in diags[0].message
        # leading zeros do not count: a padded literal at the cap is read
        _, diags = try_parse(text.replace(long, "0" * 5000 + "7" * MAX_DIGITS))
        assert not any("literal" in x.message for x in diags)

    def test_too_long_param_value_and_denominator_rejected(self):
        long = "3" * 5000
        for text, col in ((f"param a = {long};", 11), (f"param a = -1/{long};", 14)):
            _, diags = try_parse(text)
            assert [(x.line, x.col) for x in diags] == [(1, col)]
            assert "exceeds the cap" in diags[0].message

    def test_non_decimal_digits_are_input_errors(self):
        for poly, message in (("(²)", "unexpected character"), ("(u²)", "unbound")):
            _, diags = try_parse(f"algebra A : lie {{ gens X; [X, X] = {poly} X; }}")
            assert diags and message in diags[0].message

    def test_exponent_at_cap_parses(self):
        doc = parse_document(f"algebra A : lie {{ gens X; [X, X] = (d^{MAX_EXPONENT}) X; }}")
        assert doc.find("algebra", "A").table[0][0] == (MultiPoly.var(D, MAX_EXPONENT),)

    def test_duplicate_names(self):
        _, diags = try_parse(
            "algebra A : lie { gens X; }\nalgebra A : lie { gens Y; }"
        )
        assert any("duplicate" in x.message for x in diags)


names = st.sampled_from(["A", "B", "C", "E", "F", "G", "W", "X", "Y", "Z"])
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def table_polys(draw):
    c0 = draw(coeffs)
    c1 = draw(coeffs)
    c2 = draw(coeffs)
    return c0 + c1 * d + c2 * l


@st.composite
def algebras(draw):
    kind = draw(st.sampled_from([LIE, ASSOCIATIVE]))
    rank = draw(st.integers(1, 2))
    basis = tuple(sorted(draw(st.sets(names, min_size=rank, max_size=rank))))
    table = tuple(
        tuple(
            tuple(draw(table_polys()) if draw(st.booleans()) else MultiPoly.zero()
                  for _ in range(rank))
            for _ in range(rank)
        )
        for _ in range(rank)
    )
    return ConformalAlgebra(kind, basis, table)


@st.composite
def documents(draw):
    items = []
    used = set()
    for _ in range(draw(st.integers(1, 3))):
        alg = draw(algebras())
        name = draw(names.filter(lambda n: n not in used)) + "lg"
        if name in used:
            continue
        used.add(name)
        items.append(Item("algebra", name, alg))
    return Document(tuple(items))


class TestRoundTrip:
    def test_fixture_files_round_trip(self):
        from cfkit import corpus

        for name in corpus.fixture_names():
            text = (corpus.fixture_dir(name) / "input.cfk").read_text()
            params = {
                p: Fraction(1)
                for p in ("a", "b", "c", "p", "q", "r", "s", "a1", "a2", "a3", "ai")
            }
            doc, diags = try_parse(text, params)
            assert doc is not None, diags
            assert parse_document(serialize(doc)) == doc

    @given(doc=documents())
    @settings(max_examples=60, deadline=None)
    def test_random_documents_round_trip(self, doc):
        assert parse_document(serialize(doc)) == doc

    def test_matched_pair_round_trip(self):
        text = """
        algebra R1 : assoc { gens A, B; [A, B] = A; }
        algebra Q1 : assoc { gens X, Y; }
        matched P : assoc {
          R = R1;
          Q = Q1;
          X <| A = (d) Y;
          B ~> X = X;
          A <~ Y = (l) B;
        }
        defmap f on P { X -> (d^2) A; }
        morphism g : R1 -> R1 { A -> B; B -> A; }
        """
        doc = parse_document(text)
        assert parse_document(serialize(doc)) == doc


class TestPolyText:
    @given(p=table_polys())
    @settings(max_examples=60, deadline=None)
    def test_poly_rendering_round_trips(self, p):
        assert parse_poly_text(str(p)) == p

    def test_unknowns(self):
        p = parse_poly_text("u0^2 - 1/2*u1")
        assert str(p) == "u0^2 - 1/2*u1"

    def test_rejects_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly_text("d + ;")
