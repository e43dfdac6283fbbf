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
infix notation it encodes.  ``serialize`` produces a canonical rendering
that parses back to an identical document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .actions import LEFT, MatchedPair, ModuleAction, RIGHT
from .algebra import ASSOCIATIVE, ConformalAlgebra, GenElement, LIE, element_text
from .deform import DeformationMap, Morphism
from .poly import D, L1, L2, MultiPoly, scalar_text, unknown

_RESERVED = {"d", "l", "m"}

_KIND_WORDS = {LIE: "lie", ASSOCIATIVE: "assoc"}
_WORD_KINDS = {w: k for k, w in _KIND_WORDS.items()}

_MAX_DIAGNOSTICS = 20

#: Largest exponent ``^n`` the parser expands; a larger one is an input error
#: rather than a power computed and carried through every later check.
MAX_EXPONENT = 64

#: Most significant digits a numeric literal may have: the smallest limit
#: Python lets ``int()`` conversion be set to, so a longer literal is an input
#: error instead of a ``ValueError`` from ``int()``.
MAX_DIGITS = 640


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

    kind: str  # "algebra" | "matched" | "defmap" | "morphism" | "param"
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


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "number" | "punct" | "eof"
    text: str
    line: int
    col: int


_MULTI = ("->", "<|", "|>", "<~", "~>")
_SINGLE = set("{}()[],;:=+-*/^")


def _lex(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE:
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        diagnostics.append(
            Diagnostic("error", f"unexpected character {ch!r}", line, col, 1)
        )
        i += 1
        col += 1
    tokens.append(_Token("eof", "", line, col))
    return tokens, diagnostics


# -- parser -------------------------------------------------------------------


class _Bail(Exception):
    """Internal: abandon the current declaration and resynchronize."""


class _Parser:
    def __init__(self, tokens: list[_Token], params: dict[str, Fraction]):
        self.tokens = tokens
        self.pos = 0
        self.params = dict(params)
        self.used_params: set[str] = set()
        self.diagnostics: list[Diagnostic] = []
        self.items: list[Item] = []
        self.by_kind: dict[tuple[str, str], object] = {}

    # basic machinery

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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
            if depth == 0 and tok.text in (
                "algebra",
                "matched",
                "defmap",
                "morphism",
                "param",
            ):
                return
            self.advance()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth <= 1:
                    return
                depth -= 1

    # polynomial expressions

    def parse_poly(self, allow: frozenset[int], what: str) -> MultiPoly:
        start = self.peek()
        poly = self._poly_sum()
        bad = sorted(poly.variables() - allow)
        if bad:
            from .poly import var_name

            names = ", ".join(var_name(v) for v in bad)
            self.fail(f"variable {names} not allowed in {what}", start)
        return poly

    def _poly_sum(self) -> MultiPoly:
        acc = self._poly_product()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self._poly_product()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def _poly_product(self) -> MultiPoly:
        acc = self._poly_factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            tok = self.peek()
            rhs = self._poly_factor()
            if op == "*":
                acc = acc * rhs
            else:
                value = rhs.constant_value()
                if value is None or value == 0:
                    self.fail("division is only by nonzero constants", tok)
                acc = acc / value
        return acc

    def _poly_factor(self) -> MultiPoly:
        tok = self.peek()
        if tok.text in ("-", "+"):
            self.advance()
            inner = self._poly_factor()
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
            self.advance()
            return base ** exponent
        return base

    def _poly_primary(self) -> MultiPoly:
        tok = self.advance()
        if tok.kind == "number":
            return MultiPoly.const(self.integer(tok, tok.text))
        if tok.text == "(":
            inner = self._poly_sum()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            name = tok.text
            if name == "d":
                return MultiPoly.var(D)
            if name == "l":
                return MultiPoly.var(L1)
            if name == "m":
                return MultiPoly.var(L2)
            if len(name) > 1 and name[0] == "u" and name[1:].isdecimal():
                return MultiPoly.var(unknown(self.integer(tok, name[1:])))
            if name in self.params:
                self.used_params.add(name)
                return MultiPoly.const(self.params[name])
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
                coeff = self.parse_poly(allow, what) * sign
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
                if tok.text == "algebra":
                    self.parse_algebra()
                elif tok.text == "matched":
                    self.parse_matched()
                elif tok.text == "defmap":
                    self.parse_defmap()
                elif tok.text == "morphism":
                    self.parse_morphism()
                elif tok.text == "param":
                    self.parse_param()
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

    def parse_algebra(self) -> None:
        self.expect("algebra")
        name_tok = self.expect_ident("an algebra name")
        self.expect(":")
        kind_tok = self.expect_ident("a kind (lie or assoc)")
        kind = _WORD_KINDS.get(kind_tok.text)
        if kind is None:
            self.fail(f"unknown kind {kind_tok.text!r}", kind_tok)
        self.expect("{")
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
        n = len(gens)
        table = [[None] * n for _ in range(n)]
        allow = frozenset({D, L1})
        while self.peek().text == "[":
            self.advance()
            a_tok = self.expect_ident("a generator name")
            self.expect(",")
            b_tok = self.expect_ident("a generator name")
            self.expect("]")
            for tok in (a_tok, b_tok):
                if tok.text not in gens:
                    self.fail(f"unknown generator {tok.text!r}", tok)
            self.expect("=")
            vec = self.parse_terms(gens, allow, "a product table")
            self.expect(";")
            i, j = gens.index(a_tok.text), gens.index(b_tok.text)
            if table[i][j] is not None:
                self.fail(
                    f"duplicate product entry [{a_tok.text}, {b_tok.text}]", a_tok
                )
            table[i][j] = tuple(vec)
        self.expect("}")
        zero_row = (MultiPoly.zero(),) * n
        full = tuple(
            tuple(table[i][j] if table[i][j] is not None else zero_row for j in range(n))
            for i in range(n)
        )
        self.register("algebra", name_tok, ConformalAlgebra(kind, gens, full))

    def parse_matched(self) -> None:
        self.expect("matched")
        name_tok = self.expect_ident("a matched-pair name")
        self.expect(":")
        kind_tok = self.expect_ident("a kind (lie or assoc)")
        kind = _WORD_KINDS.get(kind_tok.text)
        if kind is None:
            self.fail(f"unknown kind {kind_tok.text!r}", kind_tok)
        self.expect("{")
        self.expect("R")
        self.expect("=")
        r_tok = self.expect_ident("an algebra name")
        big_r = self.lookup("algebra", r_tok)
        self.expect(";")
        self.expect("Q")
        self.expect("=")
        q_tok = self.expect_ident("an algebra name")
        big_q = self.lookup("algebra", q_tok)
        self.expect(";")
        for tok, alg in ((r_tok, big_r), (q_tok, big_q)):
            if alg.kind != kind:
                self.fail(f"algebra {tok.text!r} has the wrong kind", tok)
        if set(big_r.basis) & set(big_q.basis):
            self.fail("R and Q generator names must not overlap", name_tok)
        allow = frozenset({D, L1})
        zero = MultiPoly.zero()
        tables = {
            "<|": [[( zero,) * big_q.rank for _ in range(big_r.rank)] for _ in range(big_q.rank)],
            "|>": [[(zero,) * big_r.rank for _ in range(big_r.rank)] for _ in range(big_q.rank)],
            "<~": [[(zero,) * big_r.rank for _ in range(big_q.rank)] for _ in range(big_r.rank)],
            "~>": [[(zero,) * big_q.rank for _ in range(big_q.rank)] for _ in range(big_r.rank)],
        }
        # op -> (left basis, right basis, output basis)
        layout = {
            "<|": (big_q.basis, big_r.basis, big_q.basis),
            "|>": (big_q.basis, big_r.basis, big_r.basis),
            "<~": (big_r.basis, big_q.basis, big_r.basis),
            "~>": (big_r.basis, big_q.basis, big_q.basis),
        }
        seen = set()
        while self.peek().kind == "ident" and self.peek(1).text in tables:
            left_tok = self.advance()
            op = self.advance().text
            if kind == LIE and op in ("<~", "~>"):
                self.fail(f"action {op!r} is for associative pairs", left_tok)
            right_tok = self.expect_ident("a generator name")
            left_basis, right_basis, out_basis = layout[op]
            if left_tok.text not in left_basis:
                self.fail(f"unknown generator {left_tok.text!r}", left_tok)
            if right_tok.text not in right_basis:
                self.fail(f"unknown generator {right_tok.text!r}", right_tok)
            self.expect("=")
            vec = self.parse_terms(out_basis, allow, "an action table")
            self.expect(";")
            i = left_basis.index(left_tok.text)
            j = right_basis.index(right_tok.text)
            if (op, i, j) in seen:
                self.fail("duplicate action entry", left_tok)
            seen.add((op, i, j))
            tables[op][i][j] = tuple(vec)
        self.expect("}")
        lhd = ModuleAction(
            RIGHT, big_r, big_q.rank, tuple(tuple(r) for r in tables["<|"])
        )
        rhd = ModuleAction(
            LEFT, big_q, big_r.rank, tuple(tuple(r) for r in tables["|>"])
        )
        if kind == LIE:
            pair = MatchedPair(kind, big_r, big_q, lhd, rhd)
        else:
            lhu = ModuleAction(
                RIGHT, big_q, big_r.rank, tuple(tuple(r) for r in tables["<~"])
            )
            rhu = ModuleAction(
                LEFT, big_r, big_q.rank, tuple(tuple(r) for r in tables["~>"])
            )
            pair = MatchedPair(kind, big_r, big_q, lhd, rhd, lhu, rhu)
        self.register("matched", name_tok, pair, refs=(r_tok.text, q_tok.text))

    def _parse_map_rows(
        self, src_basis: tuple[str, ...], tgt_basis: tuple[str, ...], what: str
    ) -> tuple[tuple[MultiPoly, ...], ...]:
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
        return tuple(rows[name] for name in src_basis)

    def parse_defmap(self) -> None:
        self.expect("defmap")
        name_tok = self.expect_ident("a map name")
        self.expect("on")
        pair_tok = self.expect_ident("a matched-pair name")
        pair = self.lookup("matched", pair_tok)
        self.expect("{")
        matrix = self._parse_map_rows(pair.Q.basis, pair.R.basis, "a deformation map")
        self.expect("}")
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
        self.expect("{")
        matrix = self._parse_map_rows(source.basis, target.basis, "a morphism")
        self.expect("}")
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
        poly = parser._poly_sum()
    except _Bail:
        poly = None
    if parser.diagnostics or parser.peek().kind != "eof" or poly is None:
        raise ParseError(
            parser.diagnostics
            or [Diagnostic("error", "trailing input after polynomial", 1, 1, 1)]
        )
    return poly


# -- serializer ---------------------------------------------------------------


def serialize(document: Document) -> str:
    blocks = []
    for item in document.items:
        if item.kind == "param":
            blocks.append(f"param {item.name} = {scalar_text(item.value)};")
        elif item.kind == "algebra":
            alg: ConformalAlgebra = item.value
            lines = [f"algebra {item.name} : {_KIND_WORDS[alg.kind]} {{"]
            lines.append("  gens " + ", ".join(alg.basis) + ";")
            for i, a in enumerate(alg.basis):
                for j, b in enumerate(alg.basis):
                    entry = alg.table[i][j]
                    if all(c.is_zero for c in entry):
                        continue
                    lines.append(f"  [{a}, {b}] = {element_text(GenElement(entry), alg.basis)};")
            lines.append("}")
            blocks.append("\n".join(lines))
        elif item.kind == "matched":
            pair: MatchedPair = item.value
            lines = [f"matched {item.name} : {_KIND_WORDS[pair.kind]} {{"]
            lines.append(f"  R = {item.refs[0]};")
            lines.append(f"  Q = {item.refs[1]};")
            actions = [
                ("<|", pair.lhd, pair.Q.basis, pair.R.basis, pair.Q.basis),
                ("|>", pair.rhd, pair.Q.basis, pair.R.basis, pair.R.basis),
            ]
            if pair.kind == ASSOCIATIVE:
                actions.append(("<~", pair.lhu, pair.R.basis, pair.Q.basis, pair.R.basis))
                actions.append(("~>", pair.rhu, pair.R.basis, pair.Q.basis, pair.Q.basis))
            for op, act, left_names, right_names, out_names in actions:
                for i, left in enumerate(left_names):
                    for j, right in enumerate(right_names):
                        entry = act.table[i][j]
                        if all(c.is_zero for c in entry):
                            continue
                        lines.append(
                            f"  {left} {op} {right} = {element_text(GenElement(entry), out_names)};"
                        )
            lines.append("}")
            blocks.append("\n".join(lines))
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
                if not all(c.is_zero for c in row):
                    lines.append(f"  {src} -> {element_text(GenElement(row), targets)};")
            lines.append("}")
            blocks.append("\n".join(lines))
        else:  # pragma: no cover - registry is closed
            raise AssertionError(f"unknown item kind {item.kind}")
    return "\n\n".join(blocks) + "\n"
