"""Text format for algebras, matched pairs, deformation maps, and morphisms.

Files use the ``.cfk`` extension, UTF-8, ``#`` line comments.  Polynomials
are written over ``d`` and ``l``; the second spectral variable never appears
in input (tables may not mention it) and parameters are bare identifiers
bound to rationals before parsing.  Declarations:

    algebra Vir : lie {
      gens L;
      [L, L] = (d + 2*l) L;
    }
    matched WP : lie {
      R = Vir;
      Q = AbQ;
      W <| L = ((a - 1)*d + a*l - b) W;
    }
    defmap phi on WP {
      W -> (3) L;
    }
    morphism h : Qa -> Vir {
      W -> (3) L;
    }
    param a = 1;

Missing bracket, action, or map entries default to zero.  The four action
arrows are ``<|`` ``|>`` ``<~`` ``~>``; each line reads exactly like the
infix notation it encodes.  Which arrow is which action, and which
generators its operands and terms name, is read off the layout table in
:mod:`cfkit.actions`.  Product and action entries, ``left op right =
terms;`` with ``[a, b]`` as the product's spelling, go through one entry
parser and one entry renderer.  ``serialize`` produces a canonical rendering
that parses back to an identical document.

The lexer is one search over the text for a pattern with no alternative for
blanks, so the search itself skips them.  The expression parser folds
constants: numbers and parameters are ``int`` or ``Fraction`` values, and
``*``, ``/``, ``+``, ``-`` and unary minus combine them as such.  A value
becomes a ``MultiPoly`` where it meets a variable, where it is the base of a
``^`` (so the power caps measure a polynomial), or at the end of the
expression; from there on the polynomial's ring operations combine it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .actions import _LAYOUT, MatchedPair, _layout, _matched_pair
from .algebra import (
    _PD, _PL1, _PL2, KINDS, ConformalAlgebra, _table, element_text,
)
from .deform import DeformationMap, Morphism
from .poly import D, L1, MAX_UNKNOWN, MultiPoly, Scalar, scalar_text, unknown, var_name

_RESERVED = {"d", "l", "m"}

_MAX_DIAGNOSTICS = 20

#: The declaration keywords; ``_Parser.parse_<keyword>`` reads each.
_DECLARATIONS = ("algebra", "matched", "defmap", "morphism", "param")

#: Largest exponent ``^n`` the parser expands, and the largest degree a power
#: or product it forms may have; more is an input error rather than a
#: polynomial computed and carried through every later check.
MAX_EXPONENT = 64

#: Most parentheses and unary signs open at once in an expression, which the
#: parser recurses through: more is an input error, not a ``RecursionError``.
MAX_NESTING = 64

#: Most significant digits a numeric literal may have: the smallest limit
#: Python lets ``int()`` conversion be set to, so a longer literal is an input
#: error instead of a ``ValueError`` from ``int()``.
MAX_DIGITS = 640

#: Largest coefficient bit length a power may build: that of one
#: ``^MAX_EXPONENT`` of a ``MAX_DIGITS``-digit literal.
MAX_POWER_BITS = MAX_EXPONENT * (10**MAX_DIGITS - 1).bit_length()


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    message: str
    line: int
    col: int
    length: int

    def text(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        preview = "; ".join(d.text() for d in diagnostics[:3])
        more = "" if len(diagnostics) <= 3 else f" (+{len(diagnostics) - 3} more)"
        super().__init__(preview + more)


@dataclass(frozen=True)
class Item:
    """One resolved declaration; ``refs`` keeps names needed to re-serialize."""

    kind: str  # one of _DECLARATIONS
    name: str
    value: object
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Document:
    items: tuple[Item, ...]
    # parameter names the text declares or reads in a polynomial
    used_params: frozenset[str] = field(default=frozenset(), compare=False)

    def find(self, kind: str, name: str):
        for item in self.items:
            if item.kind == kind and item.name == name:
                return item.value
        raise KeyError(f"no {kind} named {name!r}")


# -- lexer --------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # "ident" | "number" | "punct" | "eof"
    text: str
    line: int
    col: int


# One alternative per lexeme, tried in order; blanks match none, so the search
# skips them.  ``\d`` is ``str.isdecimal`` and ``\w`` is ``str.isalnum`` or
# ``_``.
_LEXEME = re.compile(
    r"(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|(?P<punct>->|<\||\|>|<~|~>|[{}()\[\],;:=+\-*/^])"
    r"|(?P<number>\d+)|(?P<ident>\w+)|(?P<other>[^ \t\r])"
)


def _lex(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start, pos = 1, 0, 0
    while pos is not None:
        resume, pos = pos, None
        for match in _LEXEME.finditer(text, resume):
            kind, start = match.lastgroup, match.start()
            if kind == "punct" or kind == "number" or kind == "ident" and (
                # ``\w`` also takes ``²`` and ``Ⅻ``, which start no name
                text[start].isalpha() or text[start] == "_"
            ):
                tokens.append(
                    tuple.__new__(_Token, (kind, match.group(), line, start - line_start + 1))
                )
            elif kind == "newline":
                line, line_start = line + 1, start + 1
            elif kind == "comment":
                # the column stays at the ``#``, where an eof after it is placed
                line_start += match.end() - start
            else:
                diagnostics.append(Diagnostic(
                    "error", f"unexpected character {text[start]!r}", line,
                    start - line_start + 1, 1,
                ))
                if kind == "ident":
                    pos = start + 1  # lex the rest of the run afresh
                    break
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens, diagnostics


# -- parser -------------------------------------------------------------------


class _Bail(Exception):
    """Internal: abandon the current declaration and resynchronize."""


def _as_poly(value: MultiPoly | Scalar) -> MultiPoly:
    """A folded constant as a polynomial; a polynomial as it is."""
    return value if type(value) is MultiPoly else MultiPoly.const(value)


class _Parser:
    def __init__(self, tokens: list[_Token], params: dict[str, Fraction]):
        # a second eof past the first, so ``peek(1)`` indexes directly
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        self.params = dict(params)
        self.used_params: set[str] = set()
        self.diagnostics: list[Diagnostic] = []
        self.items: list[Item] = []
        self.by_kind: dict[tuple[str, str], object] = {}
        self.depth = 0

    # basic machinery

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> None:
        tok = tok or self.peek()
        if len(self.diagnostics) < _MAX_DIAGNOSTICS:
            self.diagnostics.append(
                Diagnostic(
                    "error", message, tok.line, tok.col, max(1, len(tok.text))
                )
            )

    def fail(self, message: str, tok: _Token | None = None):
        self.error(message, tok)
        raise _Bail()

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}", tok)
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}, found {tok.text!r}", tok)
        return self.advance()

    def integer(self, tok: _Token, digits: str) -> int:
        """``int(digits)`` for digits read from ``tok``, refused at the token
        when too long, before any conversion."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > MAX_DIGITS:
            self.fail(
                f"numeric literal of {len(digits)} digits exceeds the cap {MAX_DIGITS}",
                tok,
            )
        return int(digits)

    def sync_decl(self) -> None:
        """Skip past the current declaration: to its closing brace, or to the
        next declaration keyword at nesting depth zero."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if depth == 0 and tok.text in _DECLARATIONS:
                return
            self.advance()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth <= 1:
                    return
                depth -= 1

    # polynomial expressions, folding constants as the module docstring says

    def parse_poly(self, allow: frozenset[int], what: str) -> MultiPoly:
        start = self.peek()
        poly = _as_poly(self._poly_sum())
        bad = sorted(poly.variables() - allow)
        if bad:
            names = ", ".join(var_name(v) for v in bad)
            self.fail(f"variable {names} not allowed in {what}", start)
        return poly

    def _poly_sum(self) -> MultiPoly | Scalar:
        acc = self._poly_product()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self._poly_product()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def nested(self, tok: _Token, parse):
        """``parse()`` one level deeper, refused at ``tok`` past :data:`MAX_NESTING`."""
        self.within_cap(self.depth + 1, MAX_NESTING, "nesting depth", tok)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def within_cap(self, value: int, cap: int, what: str, tok: _Token) -> None:
        """Refuse at ``tok`` a ``what`` of ``value`` above ``cap``, before the
        power or product it measures is formed."""
        if value > cap:
            self.fail(f"{what} {value} exceeds the cap {cap}", tok)

    def _poly_product(self) -> MultiPoly | Scalar:
        acc = self._poly_factor()
        while self.peek().text in ("*", "/"):
            op_tok = self.advance()
            tok = self.peek()
            rhs = self._poly_factor()
            if op_tok.text == "*":
                # a scalar has degree at most 0, so only two polynomials can
                # pass the cap that each of them is already within
                if type(acc) is MultiPoly and type(rhs) is MultiPoly:
                    degree = acc.degree() + rhs.degree()
                    self.within_cap(degree, MAX_EXPONENT, "product of degree", op_tok)
                acc = acc * rhs
            else:
                value = rhs.constant_value() if type(rhs) is MultiPoly else rhs
                if value is None or value == 0:
                    self.fail("division is only by nonzero constants", tok)
                acc = acc / value if type(acc) is MultiPoly else Fraction(acc) / value
        return acc

    def _poly_factor(self) -> MultiPoly | Scalar:
        tok = self.peek()
        if tok.text in ("-", "+"):
            self.advance()
            inner = self.nested(tok, self._poly_factor)
            return -inner if tok.text == "-" else inner
        base = self._poly_primary()
        if self.peek().text == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "number":
                self.fail("exponent must be a number", exp_tok)
            exponent = self.integer(exp_tok, exp_tok.text)
            if exponent > MAX_EXPONENT:
                self.fail(f"exponent {exp_tok.text} exceeds the cap {MAX_EXPONENT}", exp_tok)
            base = _as_poly(base)
            self.within_cap(base.degree() * exponent, MAX_EXPONENT, "power of degree", exp_tok)
            bits = base.bit_length() * exponent
            self.within_cap(bits, MAX_POWER_BITS, "power of coefficient bit length", exp_tok)
            self.advance()
            return base ** exponent
        return base

    def _poly_primary(self) -> MultiPoly | Scalar:
        tok = self.advance()
        if tok.kind == "number":
            return self.integer(tok, tok.text)
        if tok.text == "(":
            inner = self.nested(tok, self._poly_sum)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name == "d":
                return _PD
            if name == "l":
                return _PL1
            if name == "m":
                return _PL2
            if len(name) > 1 and name[0] == "u" and name[1:].isdecimal():
                index = self.integer(tok, name[1:])
                if index > MAX_UNKNOWN:
                    self.fail(f"unknown index is over the cap of u{MAX_UNKNOWN}", tok)
                return MultiPoly.var(unknown(index))
            if name in self.params:
                self.used_params.add(name)
                return self.params[name]
            self.fail(f"unbound parameter {name!r}", tok)
        self.fail(f"expected a polynomial, found {tok.text!r}", tok)

    # coefficient-vector right-hand sides

    def parse_terms(
        self, gens: tuple[str, ...], allow: frozenset[int], what: str
    ) -> list[MultiPoly]:
        vec = [MultiPoly.zero()] * len(gens)
        if self.peek().text == "0" and self.peek(1).text == ";":
            self.advance()
            return vec
        sign = 1
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text in gens and self.peek(1).text in (
                ";",
                "+",
                "-",
            ):
                self.advance()
                coeff = MultiPoly.const(sign)
            else:
                coeff = self.parse_poly(allow, what)
                if sign < 0:
                    coeff = -coeff
                gen_tok = self.expect_ident("a generator name")
                if gen_tok.text not in gens:
                    self.fail(f"unknown generator {gen_tok.text!r}", gen_tok)
                tok = gen_tok
            idx = gens.index(tok.text)
            vec[idx] = vec[idx] + coeff
            nxt = self.peek()
            if nxt.text == "+":
                self.advance()
                sign = 1
            elif nxt.text == "-":
                self.advance()
                sign = -1
            else:
                return vec

    # declarations

    def parse_document(self) -> Document | None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            try:
                if tok.text in _DECLARATIONS:
                    getattr(self, f"parse_{tok.text}")()
                else:
                    self.advance()
                    self.fail(f"expected a declaration, found {tok.text!r}", tok)
            except _Bail:
                self.sync_decl()
            if len(self.diagnostics) >= _MAX_DIAGNOSTICS:
                break
        if self.diagnostics:
            return None
        return Document(tuple(self.items), frozenset(self.used_params))

    def register(self, kind: str, name_tok: _Token, value: object, refs=()) -> None:
        key = (kind, name_tok.text)
        if key in self.by_kind:
            self.fail(f"duplicate {kind} name {name_tok.text!r}", name_tok)
        self.by_kind[key] = value
        self.items.append(Item(kind, name_tok.text, value, tuple(refs)))

    def lookup(self, kind: str, name_tok: _Token):
        value = self.by_kind.get((kind, name_tok.text))
        if value is None:
            self.fail(f"unknown {kind} {name_tok.text!r}", name_tok)
        return value

    def parse_param(self) -> None:
        self.expect("param")
        name_tok = self.expect_ident("a parameter name")
        name = name_tok.text
        if name in _RESERVED or (len(name) > 1 and name[0] == "u" and name[1:].isdecimal()):
            self.fail(f"{name!r} is reserved and cannot be a parameter", name_tok)
        self.expect("=")
        value = self._parse_rational()
        self.expect(";")
        # command-line bindings take precedence over in-file defaults
        self.params.setdefault(name, value)
        self.used_params.add(name)
        self.register("param", name_tok, self.params[name])

    def _parse_rational(self) -> Fraction:
        sign = 1
        if self.peek().text == "-":
            self.advance()
            sign = -1
        num_tok = self.peek()
        if num_tok.kind != "number":
            self.fail("expected a rational constant", num_tok)
        value = Fraction(self.integer(num_tok, num_tok.text))
        self.advance()
        if self.peek().text == "/":
            self.advance()
            den_tok = self.peek()
            den = self.integer(den_tok, den_tok.text) if den_tok.kind == "number" else 0
            if den == 0:
                self.fail("expected a nonzero denominator", den_tok)
            self.advance()
            value /= den
        return sign * value

    def _check_gen_name(self, tok: _Token) -> None:
        name = tok.text
        if name in _RESERVED:
            self.fail(f"{name!r} is reserved and cannot name a generator", tok)
        if name in self.params:
            self.fail(f"{name!r} is already a parameter name", tok)

    def _header(self, keyword: str, what: str) -> tuple[_Token, str]:
        """``keyword name : kind {``; the name token and the kind."""
        self.expect(keyword)
        name_tok = self.expect_ident(what)
        self.expect(":")
        kind_tok = self.expect_ident("a kind (lie or assoc)")
        if kind_tok.text not in KINDS:
            self.fail(f"unknown kind {kind_tok.text!r}", kind_tok)
        self.expect("{")
        return name_tok, kind_tok.text

    def _entry(self, operands, bases, entries: dict, what: str, duplicate: str) -> None:
        """The rest of ``left op right = terms;`` once both operand tokens
        are read: ``bases`` are the left, right and output generators, and
        the entry lands in ``entries[i, j]``."""
        for tok, basis in zip(operands, bases):
            if tok.text not in basis:
                self.fail(f"unknown generator {tok.text!r}", tok)
        self.expect("=")
        vec = self.parse_terms(bases[2], frozenset({D, L1}), what)
        self.expect(";")
        key = tuple(basis.index(tok.text) for tok, basis in zip(operands, bases))
        if key in entries:
            self.fail(duplicate, operands[0])
        entries[key] = tuple(vec)

    def parse_algebra(self) -> None:
        name_tok, kind = self._header("algebra", "an algebra name")
        self.expect("gens")
        gens = []
        while True:
            gen_tok = self.expect_ident("a generator name")
            self._check_gen_name(gen_tok)
            if gen_tok.text in gens:
                self.fail(f"duplicate generator {gen_tok.text!r}", gen_tok)
            gens.append(gen_tok.text)
            if self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect(";")
        gens = tuple(gens)
        entries = {}
        while self.peek().text == "[":
            self.advance()
            a_tok = self.expect_ident("a generator name")
            self.expect(",")
            b_tok = self.expect_ident("a generator name")
            self.expect("]")
            self._entry(
                (a_tok, b_tok), (gens, gens, gens), entries, "a product table",
                f"duplicate product entry [{a_tok.text}, {b_tok.text}]",
            )
        self.expect("}")
        n = len(gens)
        table = _table((n, n, n), entries)
        self.register("algebra", name_tok, ConformalAlgebra(kind, gens, table))

    def parse_matched(self) -> None:
        name_tok, kind = self._header("matched", "a matched-pair name")
        parts, refs = {}, []
        for part in ("R", "Q"):
            self.expect(part)
            self.expect("=")
            refs.append(self.expect_ident("an algebra name"))
            parts[part] = self.lookup("algebra", refs[-1])
            self.expect(";")
        for tok, alg in zip(refs, parts.values()):
            if alg.kind != kind:
                self.fail(f"algebra {tok.text!r} has the wrong kind", tok)
        if set(parts["R"].basis) & set(parts["Q"].basis):
            self.fail("R and Q generator names must not overlap", name_tok)
        arrows = {row[1]: row for row in _LAYOUT}
        entries = {}
        while self.peek().kind == "ident" and self.peek(1).text in arrows:
            left_tok = self.advance()
            row = arrows[self.advance().text]
            if row not in _layout(kind):
                self.fail(f"action {row[1]!r} is for associative pairs", left_tok)
            right_tok = self.expect_ident("a generator name")
            attr, _, *operands = row
            self._entry(
                (left_tok, right_tok), tuple(parts[c].basis for c in operands),
                entries.setdefault(attr, {}), "an action table", "duplicate action entry",
            )
        self.expect("}")
        pair = _matched_pair(kind, parts["R"], parts["Q"], entries)
        self.register("matched", name_tok, pair, refs=tuple(tok.text for tok in refs))

    def _parse_map_rows(
        self, src_basis: tuple[str, ...], tgt_basis: tuple[str, ...], what: str
    ) -> tuple[tuple[MultiPoly, ...], ...]:
        """``{ src -> terms; ... }``: a map's body, braces included."""
        self.expect("{")
        allow = frozenset({D})
        zero_row = (MultiPoly.zero(),) * len(tgt_basis)
        rows = {name: zero_row for name in src_basis}
        assigned = set()
        while self.peek().kind == "ident" and self.peek(1).text == "->":
            src_tok = self.advance()
            self.advance()  # ->
            if src_tok.text not in src_basis:
                self.fail(f"unknown generator {src_tok.text!r}", src_tok)
            if src_tok.text in assigned:
                self.fail(f"duplicate map row for {src_tok.text!r}", src_tok)
            assigned.add(src_tok.text)
            vec = self.parse_terms(tgt_basis, allow, what)
            self.expect(";")
            rows[src_tok.text] = tuple(vec)
        self.expect("}")
        return tuple(rows[name] for name in src_basis)

    def parse_defmap(self) -> None:
        self.expect("defmap")
        name_tok = self.expect_ident("a map name")
        self.expect("on")
        pair_tok = self.expect_ident("a matched-pair name")
        pair = self.lookup("matched", pair_tok)
        matrix = self._parse_map_rows(pair.Q.basis, pair.R.basis, "a deformation map")
        self.register(
            "defmap", name_tok, DeformationMap(pair, matrix), refs=(pair_tok.text,)
        )

    def parse_morphism(self) -> None:
        self.expect("morphism")
        name_tok = self.expect_ident("a morphism name")
        self.expect(":")
        src_tok = self.expect_ident("an algebra name")
        source = self.lookup("algebra", src_tok)
        self.expect("->")
        tgt_tok = self.expect_ident("an algebra name")
        target = self.lookup("algebra", tgt_tok)
        if source.kind != target.kind:
            self.fail("morphism endpoints must have the same kind", tgt_tok)
        matrix = self._parse_map_rows(source.basis, target.basis, "a morphism")
        self.register(
            "morphism",
            name_tok,
            Morphism(source, target, matrix),
            refs=(src_tok.text, tgt_tok.text),
        )


def try_parse(
    text: str, params: dict[str, Fraction] | None = None
) -> tuple[Document | None, list[Diagnostic]]:
    """Parse source text; collect diagnostics instead of stopping at the first."""
    tokens, diagnostics = _lex(text)
    parser = _Parser(tokens, params or {})
    parser.diagnostics.extend(diagnostics)
    document = parser.parse_document()
    if parser.diagnostics:
        return None, parser.diagnostics
    return document, []


def parse_document(text: str, params: dict[str, Fraction] | None = None) -> Document:
    document, diagnostics = try_parse(text, params)
    if document is None:
        raise ParseError(diagnostics)
    return document


def parse_poly_text(text: str) -> MultiPoly:
    """Parse a bare polynomial in the normative rendering (d, l, m, u0...)."""
    tokens, diagnostics = _lex(text)
    parser = _Parser(tokens, {})
    parser.diagnostics.extend(diagnostics)
    try:
        poly = _as_poly(parser._poly_sum())
    except _Bail:
        poly = None
    if parser.diagnostics or parser.peek().kind != "eof" or poly is None:
        raise ParseError(
            parser.diagnostics
            or [Diagnostic("error", "trailing input after polynomial", 1, 1, 1)]
        )
    return poly


# -- serializer ---------------------------------------------------------------


def item_tables(item: Item):
    """The product and action tables ``item`` declares, each as
    ``(table, spell, left, right, carrier)``: entry ``[i][j]`` of ``table``
    is written ``spell.format(left[i], right[j])`` and its values lie in
    the ``carrier`` generators.  Other kinds of item declare none."""
    if item.kind == "algebra":
        alg: ConformalAlgebra = item.value
        yield alg.table, "[{}, {}]", alg.basis, alg.basis, alg.basis
    elif item.kind == "matched":
        pair: MatchedPair = item.value
        parts = {"R": pair.R.basis, "Q": pair.Q.basis}
        for attr, op, left, right, carrier in _layout(pair.kind):
            yield (
                getattr(pair, attr), f"{{}} {op} {{}}",
                parts[left], parts[right], parts[carrier],
            )


def _entry_lines(table, spell: str, left, right, out) -> list[str]:
    """One ``  spell = terms;`` line per nonzero entry of ``table``, whose
    rows and columns are the ``left`` and ``right`` generators; ``spell``
    is a format of the two generator names."""
    return [
        f"  {spell.format(a, b)} = {element_text(table[i][j], out)};"
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if any(table[i][j])
    ]


def serialize(document: Document) -> str:
    blocks = []
    for item in document.items:
        if item.kind == "param":
            blocks.append(f"param {item.name} = {scalar_text(item.value)};")
            continue
        if item.kind in ("algebra", "matched"):
            # an algebra or pair's kind is the word that spells it
            lines = [f"{item.kind} {item.name} : {item.value.kind} {{"]
            if item.kind == "algebra":
                lines.append("  gens " + ", ".join(item.value.basis) + ";")
            else:
                lines += [f"  R = {item.refs[0]};", f"  Q = {item.refs[1]};"]
            for table in item_tables(item):
                lines += _entry_lines(*table)
        elif item.kind in ("defmap", "morphism"):
            mapping = item.value
            if item.kind == "defmap":
                head = f"defmap {item.name} on {item.refs[0]} {{"
                sources, targets = mapping.pair.Q.basis, mapping.pair.R.basis
            else:
                head = f"morphism {item.name} : {item.refs[0]} -> {item.refs[1]} {{"
                sources, targets = mapping.source.basis, mapping.target.basis
            lines = [head]
            for src, row in zip(sources, mapping.matrix):
                if any(row):
                    lines.append(f"  {src} -> {element_text(row, targets)};")
        else:  # pragma: no cover - registry is closed
            raise AssertionError(f"unknown item kind {item.kind}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
