import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit.algebra import ASSOCIATIVE, ConformalAlgebra, LIE
from cfkit import corpus
from cfkit.dsl import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    Diagnostic,
    Document,
    Item,
    ParseError,
    parse_document,
    parse_poly_text,
    serialize,
    _Bail,
    _lex,
    _located,
    _Parser,
    try_parse,
)
from cfkit.cli import _parse_params
from cfkit.poly import D, L1, L2, MAX_UNKNOWN, MultiPoly, unknown, var_name

# the benchmark's generator of rank-scale documents
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

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

    def test_repeated_generator_terms_add_up(self):
        """Terms naming one generator add up, in a product, an action and a
        map row alike."""
        doc = parse_document(
            "algebra R : lie { gens L; [L, L] = (d) L + (l) L + (d) L; }\n"
            "algebra Q : lie { gens W; }\n"
            "matched P : lie { R = R; Q = Q; W <| L = (l) W - (2*d) W; }\n"
            "defmap phi on P { W -> (d) L + (3) L; }"
        )
        pair = doc.find("matched", "P")
        assert pair.R.constants == ({0: ((0, 2 * d + l),)},)
        assert pair.lhd == ({0: ((0, l - 2 * d),)},)
        assert doc.find("defmap", "phi").matrix == ((d + 3,),)

    def test_cancelling_terms_store_and_serialize_nothing(self):
        """Terms that cancel leave no stored constant and no serialized line,
        where an entry of other terms keeps only those."""
        doc = parse_document(
            "algebra R : lie { gens L, M; [L, L] = (d) L - (d) L; "
            "[L, M] = (l) M + (d) L - (d) L; }\n"
            "algebra Q : lie { gens W; }\n"
            "matched P : lie { R = R; Q = Q; W <| L = (l) W - (l) W; }\n"
            "defmap phi on P { W -> (d) L - (d) L; }"
        )
        pair = doc.find("matched", "P")
        assert pair.R.constants == ({1: ((1, l),)}, {})
        assert pair.lhd == ({},)
        assert doc.find("defmap", "phi").matrix == ((MultiPoly.zero(), MultiPoly.zero()),)
        assert serialize(doc) == (
            "algebra R : lie {\n  gens L, M;\n  [L, M] = (l) M;\n}\n\n"
            "algebra Q : lie {\n  gens W;\n}\n\n"
            "matched P : lie {\n  R = R;\n  Q = Q;\n}\n\n"
            "defmap phi on P {\n}\n"
        )

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

    def test_params_named_like_variables_stay_variables(self):
        # bindings named d or u3 shadow neither, and neither counts as read
        params = {"d": Fraction(5), "u3": Fraction(7), "a": Fraction(2)}
        doc, diagnostics = try_parse("algebra A : lie { gens X; [X, X] = (d + a*l) X; }", params)
        assert diagnostics == []
        assert doc.find("algebra", "A").table[0][0] == (d + 2 * l,)
        assert doc.used_params == {"a"}
        _, diagnostics = try_parse("algebra A : lie { gens X; [X, X] = (u3) X; }", params)
        assert [x.message for x in diagnostics] == ["variable u3 not allowed in a product table"]
        parser = _Parser("u3*d - d", params)
        assert parser.parse_poly(frozenset({D, unknown(3)}), "an expression") == (
            MultiPoly.var(unknown(3)) * d - d
        )
        assert parser.used_params == set()


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
        "coeff, col, message",
        [
            ("(((d+l+1)^64)^2)", 24, "power of degree 128"),  # at the outer exponent
            ("((d+l+1)^64 * (d+l+1)^64)", 22, "product of degree 128"),  # at the *
        ],
    )
    def test_nested_power_over_cap_rejected_before_forming(
        self, monkeypatch, coeff, col, message
    ):
        formed = []
        mul, pow_ = MultiPoly.__mul__, MultiPoly.__pow__
        monkeypatch.setattr(
            MultiPoly, "__mul__",
            lambda p, q: formed.append(p.degree() + q.degree()) or mul(p, q),
        )
        monkeypatch.setattr(
            MultiPoly, "__pow__",
            lambda p, n: formed.append(p.degree() * n) or pow_(p, n),
        )
        text = f"algebra A : lie {{ gens X;\n[X, X] = {coeff} X; }}"
        document, diags = try_parse(text)
        assert document is None
        assert [(x.line, x.col) for x in diags] == [(2, col)]
        assert diags[0].message == f"{message} exceeds the cap {MAX_EXPONENT}"
        # the inner powers are formed, nothing above the cap is
        assert formed and max(formed) <= MAX_EXPONENT

    def test_constant_power_over_bit_cap_rejected_before_forming(self, monkeypatch):
        formed = []
        pow_ = MultiPoly.__pow__
        monkeypatch.setattr(
            MultiPoly, "__pow__", lambda p, n: formed.append(p.bit_length() * n) or pow_(p, n)
        )
        text = "algebra A : lie { gens X;\n[X, X] = ((((2^64)^64)^64)^64) X; }"
        document, diags = try_parse(text)
        assert document is None
        assert [(x.line, x.col) for x in diags] == [(2, 24)]  # at the third exponent
        assert diags[0].message == (
            f"power of coefficient bit length {4097 * 64} exceeds the cap {MAX_POWER_BITS}"
        )
        # 2^64 and 2^4096 are formed, nothing above the cap is
        assert formed and max(formed) <= MAX_POWER_BITS

    @pytest.mark.parametrize(
        "coeff, value",
        [
            ("((2^64)^64)", 2**4096),
            (f"({'9' * MAX_DIGITS}^{MAX_EXPONENT})", (10**MAX_DIGITS - 1) ** MAX_EXPONENT),
            (f"(1/{'9' * MAX_DIGITS}^{MAX_EXPONENT})",
             Fraction(1, (10**MAX_DIGITS - 1) ** MAX_EXPONENT)),
        ],
        ids=["2^4096", "literal^cap", "1/literal^cap"],
    )
    def test_constant_power_at_bit_cap_parses(self, coeff, value):
        doc = parse_document(f"algebra A : lie {{ gens X; [X, X] = {coeff} X; }}")
        assert doc.find("algebra", "A").table[0][0] == (MultiPoly.const(value),)

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

    @pytest.mark.parametrize(
        "index", [MAX_UNKNOWN + 1, 99999999, "0" * 5000 + "7" * MAX_DIGITS],
        ids=["next", "eight-digits", "padded-at-the-literal-cap"],
    )
    def test_unknown_index_over_the_cap_rejected_at_its_token(self, index):
        text = f"algebra A : lie {{ gens X;\n[X, X] = (d + u{index}) X; }}"
        _, diags = try_parse(text)
        assert [(x.line, x.col, x.message) for x in diags] == [
            (2, 15, f"unknown index is over the cap of u{MAX_UNKNOWN}")
        ]
        with pytest.raises(ParseError):
            parse_poly_text(f"u{index} + 1")

    def test_unknown_index_at_the_cap_parses(self):
        top = MultiPoly.var(unknown(MAX_UNKNOWN))
        assert parse_poly_text(f"u{MAX_UNKNOWN}^2 - u0{MAX_UNKNOWN}") == top**2 - top

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

    @pytest.mark.parametrize(
        "opener, closer", [("(", ")"), ("-", ""), ("-(", ")")], ids=["parens", "minus", "mixed"]
    )
    def test_nesting_cap(self, opener, closer):
        def nested(levels):
            return opener * levels + "l" + closer * levels

        # MAX_NESTING levels parse, and their minus signs, an even number, cancel
        depth = MAX_NESTING // len(opener)
        doc = parse_document(f"algebra A : lie {{ gens X; [X, X] = {nested(depth)} X; }}")
        assert doc.find("algebra", "A").table[0][0] == (MultiPoly.var(L1),)
        # the token that opens level MAX_NESTING + 1 is refused, nothing after it read
        text = f"algebra A : lie {{ gens X; [X, X] = {nested(depth + 1)} X; }}"
        _, diags = try_parse(text)
        col = text.index("=") + 3 + MAX_NESTING
        assert [(x.col, x.message) for x in diags] == [
            (col, f"nesting depth {MAX_NESTING + 1} exceeds the cap {MAX_NESTING}")
        ]
        with pytest.raises(ParseError):
            parse_poly_text(nested(depth + 1))
        # a failed declaration leaves no depth behind for the next one
        _, diags = try_parse(text + f"algebra B : lie {{ gens Y; [Y, Y] = {nested(depth)} Y; }}")
        assert len(diags) == 1

    def test_duplicate_names(self):
        _, diags = try_parse(
            "algebra A : lie { gens X; }\nalgebra A : lie { gens Y; }"
        )
        assert any("duplicate" in x.message for x in diags)


_A = "algebra A : lie { gens X, Y; [X, Y] = X; }\n"
_B = "algebra B : lie { gens W; }\n"
_ST = "algebra S : assoc { gens U; }\nalgebra T : assoc { gens V; }\n"

# every table-entry and matched-pair header diagnostic, with its full text
# as the parser printed it before product and action entries shared a parser
PINNED_DIAGNOSTICS = {
    "unknown-kind-algebra": ("algebra A : jordan { gens X; }", "1:13: error: unknown kind 'jordan'"),
    "unknown-kind-matched": (
        _A + _B + "matched P : jordan { R = A; Q = B; }",
        "3:13: error: unknown kind 'jordan'",
    ),
    "product-unknown-left": (
        "algebra A : lie { gens X; [Z, X] = X; }", "1:28: error: unknown generator 'Z'"
    ),
    "product-unknown-right": (
        "algebra A : lie { gens X; [X, Z] = X; }", "1:31: error: unknown generator 'Z'"
    ),
    "product-unknown-output": (
        "algebra A : lie { gens X; [X, X] = (d) Z; }", "1:40: error: unknown generator 'Z'"
    ),
    "action-unknown-left": (
        _A + _B + "matched P : lie { R = A; Q = B; Z <| X = W; }",
        "3:33: error: unknown generator 'Z'",
    ),
    "action-unknown-right": (
        _A + _B + "matched P : lie { R = A; Q = B; W |> Z = X; }",
        "3:38: error: unknown generator 'Z'",
    ),
    "action-operand-of-the-other-component": (
        _A + _B + "matched P : lie { R = A; Q = B; X <| W = W; }",
        "3:33: error: unknown generator 'X'",
    ),
    "action-unknown-output": (
        _A + _B + "matched P : lie { R = A; Q = B; W |> X = (d) W; }",
        "3:46: error: unknown generator 'W'",
    ),
    "harpoon-unknown-right": (
        _ST + "matched P : assoc { R = S; Q = T; U ~> Q = V; }",
        "3:40: error: unknown generator 'Q'",
    ),
    "product-duplicate": (
        "algebra A : lie { gens X;\n  [X, X] = X;\n  [X, X] = (d) X; }",
        "3:4: error: duplicate product entry [X, X]",
    ),
    "action-duplicate": (
        _A + _B + "matched P : lie { R = A; Q = B;\n  W <| X = W;\n  W <| X = (l) W; }",
        "5:3: error: duplicate action entry",
    ),
    "harpoon-in-lie": (
        _A + _B + "matched P : lie { R = A; Q = B;\n  X ~> W = W; }",
        "4:3: error: action '~>' is for associative pairs",
    ),
    "wrong-kind-R": (
        _A + _ST + "matched P : assoc { R = A; Q = T; }",
        "4:25: error: algebra 'A' has the wrong kind",
    ),
    "wrong-kind-Q": (
        _A + _ST + "matched P : lie { R = A; Q = S; }",
        "4:30: error: algebra 'S' has the wrong kind",
    ),
    "overlapping-names": (
        _A + "algebra C : lie { gens Y; }\nmatched P : lie { R = A; Q = C; }",
        "3:9: error: R and Q generator names must not overlap",
    ),
    "unknown-algebra-R": (
        _A + "matched P : lie { R = Nope; Q = A; }", "2:23: error: unknown algebra 'Nope'"
    ),
    "unknown-algebra-Q": (
        _A + "matched P : lie { R = A; Q = Nope; }", "2:30: error: unknown algebra 'Nope'"
    ),
    "product-variable": (
        "algebra A : lie { gens X; [X, X] = (m) X; }",
        "1:36: error: variable m not allowed in a product table",
    ),
    "action-variable": (
        _A + _B + "matched P : lie { R = A; Q = B; W <| X = (m) W; }",
        "3:42: error: variable m not allowed in an action table",
    ),
    # positions are found only for a diagnostic: after a comment, past a
    # name that holds numerals, and at the ``#`` of a trailing comment
    "error-after-comment": (
        "algebra A : lie { # gens first\n  gens X; [X, X] = (d X; }",
        "2:23: error: expected ')', found 'X'",
    ),
    "numerals-inside-name": (
        "algebra A : lie { gens Xa; [Xa, Xa] = (d) Xa²Ⅻ; }",
        "1:43: error: unknown generator 'Xa²Ⅻ'",
    ),
    "eof-after-trailing-comment": (
        "algebra A : lie { gens X; # open", "1:27: error: expected '}', found ''"
    ),
}


@pytest.mark.parametrize(
    "text, expected", PINNED_DIAGNOSTICS.values(), ids=PINNED_DIAGNOSTICS.keys()
)
def test_pinned_diagnostic_text(text, expected):
    doc, diags = try_parse(text)
    assert doc is None
    assert [x.text() for x in diags] == [expected]


def test_lexer_and_parser_diagnostics_in_order():
    # ``²`` inside a name stays in it; at the start of one it is refused and
    # the rest of the run lexed afresh, so the generator ``U`` is declared
    text = "algebra A : lie {\n  # W, V²W and U\n  gens W, V²W, ²U;\n  [W, U] = (d) V²W\n}\n"
    assert try_parse(text) == (None, [
        Diagnostic("error", "unexpected character '²'", 3, 16, 1),
        Diagnostic("error", "expected ';', found '}'", 5, 1, 1),
    ])
    assert try_parse(text.replace("²U", "U").replace("V²W\n", "V²W;\n"))[1] == []
    _, diags = try_parse("algebra A : lie { gens Xa; [Xa, Xa] = (d) Xa²Ⅻ; }")
    assert [(x.col, x.length) for x in diags] == [(43, 4)]


# -- reference: the character-at-a-time lexer ---------------------------------


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str
    text: str
    line: int
    col: int


_MULTI = ("->", "<|", "|>", "<~", "~>")
_SINGLE = set("{}()[],;:=+-*/^")


def reference_lex(text: str) -> tuple[list[_ReferenceToken], list[Diagnostic]]:
    """The lexer before it became one compiled pattern, kept as the
    reference of the differential test below."""
    tokens: list[_ReferenceToken] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in _MULTI:
            tokens.append(_ReferenceToken("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE:
            tokens.append(_ReferenceToken("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_ReferenceToken("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_ReferenceToken("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        diagnostics.append(
            Diagnostic("error", f"unexpected character {ch!r}", line, col, 1)
        )
        i += 1
        col += 1
    tokens.append(_ReferenceToken("eof", "", line, col))
    return tokens, diagnostics


# decimal digits of other scripts (٣), digits and numerals that are not
# decimal (², Ⅻ), a non-ASCII letter (é), every punctuator and the
# characters that start one without completing it
_FRAGMENTS = (
    ["a", "Xy", "_", "u1", "é", "²", "٣", "Ⅻ", "7", "09", " ", "\t", "\r", "\n", "#", "# c"]
    + list(_MULTI) + sorted(_SINGLE) + ["<", "|", "~", ">", "!", "$", "\x0b", "\u00a0"]
)


def _random_texts(count: int):
    rng = random.Random("lexer-differential")
    for n in range(count):
        text = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randrange(24)))
        yield text + "# trailing comment" if n % 4 == 0 else text


def _kind(tok: str) -> str:
    """A token's kind, read off its first character."""
    if not tok:
        return "eof"
    if tok[0].isdecimal():
        return "number"
    return "ident" if tok[0].isalpha() or tok[0] == "_" else "punct"


def _lexed(text):
    """``_lex(text)`` in the reference's terms: each token's kind, text,
    line and column, the positions found by ``_located``, and the
    diagnostics."""
    tokens, lexed_places, diagnostics = _lex(text)
    located, places, located_diagnostics = _located(text)
    assert located == tokens and located_diagnostics == diagnostics
    # positions are found while lexing only for a text that needs them
    assert lexed_places == (places if diagnostics else None)
    return [
        (_kind(tok), tok, *place) for tok, place in zip(tokens, places, strict=True)
    ], diagnostics


def _reference_lexed(text):
    tokens, diagnostics = reference_lex(text)
    return [(t.kind, t.text, t.line, t.col) for t in tokens], diagnostics


class TestLexerMatchesReference:
    def test_fixtures(self):
        for name in corpus.fixture_names():
            text = (corpus.fixture_dir(name) / "input.cfk").read_text()
            assert _lexed(text) == _reference_lexed(text), name

    def test_random_texts(self):
        seen = set()
        for text in _random_texts(12_000):
            assert _lexed(text) == _reference_lexed(text), repr(text)
            seen.update(text)
        assert seen >= set("²٣Ⅻé\t\r#") | _SINGLE

    @pytest.mark.parametrize(
        "text, eof",
        [("X # note", (1, 3)), ("X\n  # note", (2, 3)), ("#", (1, 1)), ("a²Ⅻ", (1, 4))],
    )
    def test_eof_position(self, text, eof):
        tokens, places, _ = _located(text)
        assert tokens[-1] == "" and places[-1] == eof

    def test_numerals_that_are_not_letters_start_no_identifier(self):
        tokens, _, diagnostics = _lex("²a Ⅻ1 a²Ⅻ ٣")
        assert [(_kind(tok), tok) for tok in tokens] == [
            ("ident", "a"), ("number", "1"), ("ident", "a²Ⅻ"), ("number", "٣"), ("eof", "")
        ]
        assert [(x.message, x.col) for x in diagnostics] == [
            ("unexpected character '²'", 1), ("unexpected character 'Ⅻ'", 4)
        ]


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
    table = {
        (i, j): {k: draw(table_polys()) if draw(st.booleans()) else MultiPoly.zero()
                 for k in range(rank)}
        for i in range(rank)
        for j in range(rank)
    }
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

    @pytest.mark.parametrize("text, place", [
        ("u0 u1", (1, 4, 2)), ("u0\n  + u1 ;", (2, 8, 1)),
    ], ids=["same-line", "next-line"])
    def test_trailing_input_is_reported_at_its_token(self, text, place):
        with pytest.raises(ParseError) as exc:
            parse_poly_text(text)
        assert [(x.line, x.col, x.length, x.message) for x in exc.value.diagnostics] == [
            (*place, "trailing input after polynomial")
        ]


# -- reference: the parser that builds a MultiPoly per literal ----------------


def reference_poly(parser: _Parser, allow: frozenset[int], what: str) -> MultiPoly:
    """``_Parser.parse_poly`` before it folded constants: every number,
    variable and parameter is a ``MultiPoly``, combined by ring operations.
    Kept as the reference of the differential tests below."""
    start = parser.pos
    poly = _reference_sum(parser)
    bad = sorted(poly.variables() - allow)
    if bad:
        names = ", ".join(var_name(v) for v in bad)
        parser.fail(f"variable {names} not allowed in {what}", start)
    return poly


def _reference_sum(p: _Parser) -> MultiPoly:
    acc = _reference_product(p)
    while p.peek() in ("+", "-"):
        op = p.advance()
        rhs = _reference_product(p)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _reference_product(p: _Parser) -> MultiPoly:
    acc = _reference_factor(p)
    while p.peek() in ("*", "/"):
        op_at = p.pos
        op = p.advance()
        rhs_at = p.pos
        rhs = _reference_factor(p)
        if op == "*":
            degree = acc.degree() + rhs.degree()
            p.within_cap(degree, MAX_EXPONENT, "product of degree", op_at)
            acc = acc * rhs
        else:
            value = rhs.constant_value()
            if value is None or value == 0:
                p.fail("division is only by nonzero constants", rhs_at)
            acc = acc / value
    return acc


def _reference_factor(p: _Parser) -> MultiPoly:
    tok = p.peek()
    if tok in ("-", "+"):
        p.advance()
        inner = _reference_factor(p)
        return -inner if tok == "-" else inner
    base = _reference_primary(p)
    if p.peek() == "^":
        p.advance()
        exp_at, exp_tok = p.pos, p.peek()
        if _kind(exp_tok) != "number":
            p.fail("exponent must be a number", exp_at)
        exponent = p.integer(exp_at, exp_tok)
        if exponent > MAX_EXPONENT:
            p.fail(f"exponent {exp_tok} exceeds the cap {MAX_EXPONENT}", exp_at)
        p.within_cap(base.degree() * exponent, MAX_EXPONENT, "power of degree", exp_at)
        bits = base.bit_length() * exponent
        p.within_cap(bits, MAX_POWER_BITS, "power of coefficient bit length", exp_at)
        p.advance()
        return base ** exponent
    return base


def _reference_primary(p: _Parser) -> MultiPoly:
    at = p.pos
    tok = p.advance()
    if _kind(tok) == "number":
        return MultiPoly.const(p.integer(at, tok))
    if tok == "(":
        inner = _reference_sum(p)
        p.expect(")")
        return inner
    if _kind(tok) == "ident":
        if tok == "d":
            return MultiPoly.var(D)
        if tok == "l":
            return MultiPoly.var(L1)
        if tok == "m":
            return MultiPoly.var(L2)
        if len(tok) > 1 and tok[0] == "u" and tok[1:].isdecimal():
            index = p.integer(at, tok[1:])
            if index > MAX_UNKNOWN:
                p.fail(f"unknown index is over the cap of u{MAX_UNKNOWN}", at)
            return MultiPoly.var(unknown(index))
        if tok in p.params:
            p.used_params.add(tok)
            return MultiPoly.const(p.params[tok])
        p.fail(f"unbound parameter {tok!r}", at)
    p.fail(f"expected a polynomial, found {tok!r}", at)


_PARAMS = {"a": Fraction(1, 2), "b": Fraction(-3, 4), "c": Fraction(0), "e": Fraction(7)}
_ALLOW = (
    frozenset({D, L1, L2, unknown(0), unknown(2), unknown(10)}),
    frozenset({D, L1}), frozenset({D}),
)


def _parsed(parse, text: str, allow: frozenset[int]):
    """What ``parse`` makes of ``text`` as one polynomial: its value, the
    diagnostics' text, the token it stopped at and the parameters it read."""
    parser = _Parser(text, _PARAMS)
    try:
        value = parse(parser, allow, "an expression")
    except _Bail:
        value = None
    assert value is None or type(value) is MultiPoly
    return value, [x.text() for x in parser.diagnostics], parser.pos, parser.used_params


# leaves at and past each cap, each forming at most one term
_CAP_LEAVES = (
    f"{'9' * MAX_DIGITS}^{MAX_EXPONENT}",  # coefficient bit length at the cap
    f"({'9' * MAX_DIGITS}^2)^{MAX_EXPONENT}",  # past it
    "((2^64)^64)^64",  # past it at the third exponent
    "(d^32)^2", "(d^33)^2", "d^64*l", "u2^64*3",  # power and product degree
    "7" * (MAX_DIGITS + 1), "0" * 700 + "7" * MAX_DIGITS,  # digits
    f"u{MAX_UNKNOWN}", f"u{MAX_UNKNOWN + 1}",  # unknown index
    "d^x", "d^", "()", ")", "l^-1", "2^0065",  # malformed
)
_EXPONENTS = ("2", "3", "1", "064", "64", "65", "0000065", "99999", "0")


@st.composite
def _atoms(draw, *kinds: str) -> str:
    kind = draw(st.sampled_from(kinds or ["variable", "parameter", "number"]))
    if kind == "number":
        digits = draw(st.sampled_from([3, 12, 0, 1, 2, 10**12 + 1]))
        return "0" * draw(st.integers(0, 2)) + str(digits)
    if kind == "variable":
        return draw(st.sampled_from(["d", "l", "m", "u0", "u2", "u010", "u3"]))
    return draw(st.sampled_from([*_PARAMS, "zz"]))


@st.composite
def expressions(draw, depth: int = 3) -> tuple[str, int]:
    """``(text, bound)``: an expression of the grammar and a bound on its
    degree.  Products and powers that would form more than degree 6 are not
    built, so no example is slow; the fixed leaves reach the caps."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(["atom", "ratio", "atom", "power", "binomial", "cap"]))
        if leaf == "cap":
            return draw(st.sampled_from(_CAP_LEAVES)), 0
        if leaf == "ratio":  # how the files spell a rational
            return f"{draw(_atoms('number', 'parameter'))}/{draw(_atoms('number', 'parameter'))}", 0
        atom = draw(_atoms())
        if leaf == "atom":
            return atom, 1
        if leaf == "power":
            exponent = draw(st.sampled_from(_EXPONENTS))
            return f"{atom}^{exponent}", 0 if atom[0] not in "dlmu" else int(exponent)
        op, other = draw(st.sampled_from(["+", "-"])), draw(_atoms())
        return f"({atom} {op} {other})^{draw(st.sampled_from(['2', '3']))}", 3
    form = draw(st.sampled_from(["binary", "unary", "paren", "power"]))
    text, bound = draw(expressions(depth - 1))
    if form == "unary":
        return draw(st.sampled_from(["-", "+", "- ", "--"])) + text, bound
    if form == "paren":
        return f"({text})", bound
    if form == "power":
        exponent = draw(st.sampled_from(["2", "3", "1", "65", "0065"]))
        if exponent in ("2", "3") and bound * int(exponent) > 6:
            exponent = "65"
        return f"({text})^{exponent}", bound * int(exponent)
    other, other_bound = draw(expressions(depth - 1))
    op = draw(st.sampled_from(["+", "-", "*", "/", " * ", " / "]))
    if op.strip() == "*" and bound + other_bound > 6:
        op = "+"
    return text + op + other, bound + other_bound


class TestParserMatchesReference:
    @given(expression=expressions(), allow=st.sampled_from(_ALLOW))
    @settings(max_examples=500, derandomize=True, deadline=None)
    @example(expression=("-a/b + 3/012 - e/2/a", 0), allow=_ALLOW[0])
    @example(expression=("-(3)/(0)", 0), allow=_ALLOW[1])
    @example(expression=("(d + 1 - d)/(l - l + 2) - -a*b", 0), allow=_ALLOW[1])
    @example(expression=("1/(d - d) + m", 0), allow=_ALLOW[1])
    # a folded constant meeting a polynomial from the left, by each operator
    @example(expression=("2*a*l", 0), allow=_ALLOW[1])
    @example(expression=("a*b - l", 0), allow=_ALLOW[1])
    @example(expression=("-a*(d - b)", 0), allow=_ALLOW[1])
    @example(expression=("a/b*l^2", 0), allow=_ALLOW[1])
    def test_expressions(self, expression, allow):
        text = expression[0]
        assert _parsed(_Parser.parse_poly, text, allow) == _parsed(reference_poly, text, allow)

    def test_documents(self, monkeypatch):
        inputs = [
            (text, {}) for seed in (1, 2, 3)
            for text in workloads.describe_inputs("rank-scale", seed)
        ]
        for name in corpus.fixture_names():
            text = (corpus.fixture_dir(name) / "input.cfk").read_text()
            for argv in corpus.fixture_lines(name):
                bindings = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--param"]
                inputs.append((text, _parse_params(bindings)))
        assert len(inputs) > 24 + 50
        folded = [try_parse(text, params) for text, params in inputs]
        monkeypatch.setattr(_Parser, "parse_poly", reference_poly)
        for (text, params), (document, diagnostics) in zip(inputs, folded):
            want, want_diagnostics = try_parse(text, params)
            assert diagnostics == want_diagnostics
            assert document == want
            if document is not None:
                assert document.used_params == want.used_params
                assert serialize(document) == serialize(want)
