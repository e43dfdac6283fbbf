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

Missing bracket, action, or map entries default to zero, and so do the
generators a right-hand side leaves out: the parser hands each table to its
algebra or pair as the entries it read, each the ``{index: coefficient}`` of
its terms, terms naming one generator added up, and fills no zeros in; only
a map row is made dense.  The four action arrows are ``<|`` ``|>`` ``<~``
``~>``; each line reads exactly like the infix notation it encodes.  Which arrow is
which action, and which generators its operands and terms name, is read off
the layout table in :mod:`cfkit.actions`.  Product and action entries,
``left op right = terms;`` with ``[a, b]`` as the product's spelling, go
through one entry parser and one entry renderer.  ``serialize`` produces a
canonical rendering that parses back to an identical document.

The lexer is one ``findall`` over the text for a pattern with no alternative
for blanks, so the search itself skips them; a token is its text alone, and
its kind is read off its first character.  Lines and columns are found only
for a diagnostic, by walking the same pattern once per document with
``finditer``, which also refuses unexpected characters.  The parser keeps a
token it may report later as its index.  The expression parser folds
constants: numbers and parameters are ``int`` or ``Fraction`` values, and
``*``, ``/``, ``+``, ``-`` and unary minus combine them as such.  A name is
read by one lookup in a dict of the bound parameters and the variables ``d``,
``l`` and ``m``, which shadow a parameter of their name; names of unknowns,
``u<digits>``, stay out of it.  A folded constant that meets a polynomial
goes through the polynomial's own operator, ``p * c``, ``p + c`` or
``p.__rsub__(c)``, whichever side it stands on, so it takes
:class:`~cfkit.poly.MultiPoly`'s scalar paths and never ``Fraction``'s
fallback.  Otherwise a value becomes a ``MultiPoly`` only where it is the
base of a ``^`` (so the power caps measure a polynomial) or at the end of
the expression.  Generator names are resolved through a ``{name: index}``
dict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .actions import _LAYOUT, MatchedPair, _layout
from .algebra import (
    _PD, _PL1, _PL2, KINDS, ConformalAlgebra, element_text, pairs_text,
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


#: The punctuators, two-character ones first: the lexeme pattern tries them in order.
_PUNCT = ("->", "<|", "|>", "<~", "~>", *"{}()[],;:=+-*/^")

# A newline, a comment, or one lexeme in the only group, tried in that order;
# blanks match none, so the search skips them.  ``\d`` is ``str.isdecimal``
# and ``\w`` is ``str.isalnum`` or ``_``; the last alternative is any other
# character, which starts no token.
_LEXEME = re.compile(
    r"\n|#[^\n]*|(" + "|".join(map(re.escape, _PUNCT)) + r"|\d+|\w+|[^ \t\r])"
)


def _is_name(tok: str) -> bool:
    """Whether ``tok`` is an identifier: ``\\w`` also takes ``²`` and ``Ⅻ``,
    which start no name."""
    return tok[:1].isalpha() or tok[:1] == "_"


def _is_unknown(tok: str) -> bool:
    """Whether ``tok`` names an ansatz unknown, ``u<digits>``."""
    return len(tok) > 1 and tok[0] == "u" and tok[1:].isdecimal()


def _index(basis: tuple[str, ...]) -> dict[str, int]:
    """Each generator name of ``basis`` to its index."""
    return {name: i for i, name in enumerate(basis)}


def _is_token(lexeme: str) -> bool:
    return lexeme in _PUNCT or lexeme.isdecimal() or _is_name(lexeme)


def _lex(text: str) -> tuple[list[str], list[tuple[int, int]] | None, list[Diagnostic]]:
    """The tokens of ``text``, eof (``""``) last, their lines and columns, and
    its unexpected characters; the positions are found only for such a text."""
    tokens = list(filter(None, _LEXEME.findall(text)))
    if all(map(_is_token, set(tokens))):
        tokens.append("")
        return tokens, None, []
    return _located(text)


def _located(text: str) -> tuple[list[str], list[tuple[int, int]], list[Diagnostic]]:
    """``_lex(text)`` with every position found: the same search, walked
    with ``finditer``, for diagnostics only."""
    tokens, places, diagnostics = [], [], []
    line, line_start, pos = 1, 0, 0
    while pos is not None:
        resume, pos = pos, None
        for match in _LEXEME.finditer(text, resume):
            lexeme, start = match[1], match.start()
            if lexeme is None and text[start] == "\n":
                line, line_start = line + 1, start + 1
            elif lexeme is None:
                # the column stays at the ``#``, where an eof after it is placed
                line_start += match.end() - start
            elif _is_token(lexeme):
                tokens.append(lexeme)
                places.append((line, start - line_start + 1))
            else:
                col = start - line_start + 1
                message = f"unexpected character {lexeme[0]!r}"
                diagnostics.append(Diagnostic("error", message, line, col, 1))
                if len(lexeme) > 1:
                    pos = start + 1  # a ``\w`` run: lex the rest of it afresh
                    break
    tokens.append("")
    places.append((line, len(text) - line_start + 1))
    return tokens, places, diagnostics


# -- parser -------------------------------------------------------------------


class _Bail(Exception):
    """Internal: abandon the current declaration and resynchronize."""


def _as_poly(value: MultiPoly | Scalar) -> MultiPoly:
    """A folded constant as a polynomial; a polynomial as it is."""
    return value if type(value) is MultiPoly else MultiPoly.const(value)


class _Parser:
    def __init__(self, text: str, params: dict[str, Fraction]):
        self.text = text
        # the places, when ``_lex`` finds none, are found at the first error
        self.tokens, self.places, self.diagnostics = _lex(text)
        # a second eof past the first, so ``peek(1)`` indexes directly
        self.tokens.append("")
        self.pos = 0
        self.params = dict(params)
        # each name an expression reads by one lookup: d, l and m shadow a
        # parameter of their name, and u<digits> stays an unknown
        self.atoms: dict[str, MultiPoly | Scalar] = {
            name: value for name, value in self.params.items()
            if _is_name(name) and not _is_unknown(name)
        }
        self.atoms.update(d=_PD, l=_PL1, m=_PL2)
        self.used_params: set[str] = set()
        self.items: list[Item] = []
        self.by_kind: dict[tuple[str, str], object] = {}
        self.depth = 0

    # basic machinery; a token kept for a later diagnostic is kept as its index

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def advance(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def error(self, message: str, at: int | None = None) -> None:
        """Report ``message`` at the token of index ``at``, the next token by
        default; the first report finds every token's line and column."""
        at = self.pos if at is None else at
        if len(self.diagnostics) < _MAX_DIAGNOSTICS:
            if self.places is None:
                self.places = _located(self.text)[1]
            line, col = self.places[at]
            length = max(1, len(self.tokens[at]))
            self.diagnostics.append(Diagnostic("error", message, line, col, length))

    def fail(self, message: str, at: int | None = None):
        self.error(message, at)
        raise _Bail()

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.fail(f"expected {text!r}, found {self.peek()!r}")
        self.pos += 1

    def expect_ident(self, what: str) -> int:
        """The index of the next token, read past when it is a name."""
        if not _is_name(self.tokens[self.pos]):
            self.fail(f"expected {what}, found {self.peek()!r}")
        self.pos += 1
        return self.pos - 1

    def integer(self, at: int, digits: str) -> int:
        """``int(digits)`` for digits read from token ``at``, refused at the
        token when too long, before any conversion."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > MAX_DIGITS:
            self.fail(
                f"numeric literal of {len(digits)} digits exceeds the cap {MAX_DIGITS}",
                at,
            )
        return int(digits)

    def sync_decl(self) -> None:
        """Skip past the current declaration: to its closing brace, or to the
        next declaration keyword at nesting depth zero."""
        depth = 0
        while True:
            tok = self.peek()
            if not tok:
                return
            if depth == 0 and tok in _DECLARATIONS:
                return
            self.advance()
            if tok == "{":
                depth += 1
            elif tok == "}":
                if depth <= 1:
                    return
                depth -= 1

    # polynomial expressions, folding constants as the module docstring says

    def parse_poly(self, allow: frozenset[int], what: str) -> MultiPoly:
        start = self.pos
        poly = _as_poly(self._poly_sum())
        # ``allow`` is most often a prefix d, l, ... of the variable order,
        # which the largest packed key alone tests; any other set is compared
        top = len(allow) - 1
        if max(allow) == top and poly.uses_only_up_to(top):
            return poly
        if not poly.variables() <= allow:
            names = ", ".join(var_name(v) for v in sorted(poly.variables() - allow))
            self.fail(f"variable {names} not allowed in {what}", start)
        return poly

    def _poly_sum(self) -> MultiPoly | Scalar:
        acc = self._poly_product()
        tokens = self.tokens
        while (op := tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            rhs = self._poly_product()
            if type(acc) is MultiPoly or type(rhs) is not MultiPoly:
                acc = acc + rhs if op == "+" else acc - rhs
            else:
                acc = rhs + acc if op == "+" else rhs.__rsub__(acc)
        return acc

    def nested(self, at: int, parse):
        """``parse()`` one level deeper, refused at ``at`` past :data:`MAX_NESTING`."""
        self.within_cap(self.depth + 1, MAX_NESTING, "nesting depth", at)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def within_cap(self, value: int, cap: int, what: str, at: int) -> None:
        """Refuse at token ``at`` a ``what`` of ``value`` above ``cap``, before
        the power or product it measures is formed."""
        if value > cap:
            self.fail(f"{what} {value} exceeds the cap {cap}", at)

    def _poly_product(self) -> MultiPoly | Scalar:
        acc = self._poly_factor()
        tokens = self.tokens
        while (op := tokens[self.pos]) in ("*", "/"):
            op_at = self.pos
            self.pos += 1
            rhs = self._poly_factor()
            if op == "/":
                value = rhs.constant_value() if type(rhs) is MultiPoly else rhs
                if value is None or value == 0:
                    self.fail("division is only by nonzero constants", op_at + 1)
                acc = acc / value if type(acc) is MultiPoly else Fraction(acc) / value
            elif type(rhs) is not MultiPoly:
                acc = acc * rhs
            elif type(acc) is not MultiPoly:
                acc = rhs * acc
            else:
                # a scalar has degree at most 0, so only two polynomials can
                # pass the cap that each of them is already within
                degree = acc.degree() + rhs.degree()
                self.within_cap(degree, MAX_EXPONENT, "product of degree", op_at)
                acc = acc * rhs
        return acc

    def _poly_factor(self) -> MultiPoly | Scalar:
        at = self.pos
        tok = self.tokens[at]
        base = self.atoms.get(tok)
        if base is not None:
            self.pos += 1
            if type(base) is not MultiPoly:
                self.used_params.add(tok)
        elif tok in ("-", "+"):
            self.pos += 1
            inner = self.nested(at, self._poly_factor)
            return -inner if tok == "-" else inner
        else:
            base = self._poly_primary()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            exp_tok = self.peek()
            if not exp_tok.isdecimal():
                self.fail("exponent must be a number")
            exponent = self.integer(self.pos, exp_tok)
            if exponent > MAX_EXPONENT:
                self.fail(f"exponent {exp_tok} exceeds the cap {MAX_EXPONENT}")
            base, at = _as_poly(base), self.pos
            self.within_cap(base.degree() * exponent, MAX_EXPONENT, "power of degree", at)
            bits = base.bit_length() * exponent
            self.within_cap(bits, MAX_POWER_BITS, "power of coefficient bit length", at)
            self.pos += 1
            return base ** exponent
        return base

    def _poly_primary(self) -> MultiPoly | Scalar:
        at = self.pos
        tok = self.advance()
        if tok.isdecimal():
            return self.integer(at, tok)
        if tok == "(":
            inner = self.nested(at, self._poly_sum)
            self.expect(")")
            return inner
        if _is_unknown(tok):
            index = self.integer(at, tok[1:])
            if index > MAX_UNKNOWN:
                self.fail(f"unknown index is over the cap of u{MAX_UNKNOWN}", at)
            return MultiPoly.var(unknown(index))
        if _is_name(tok):
            self.fail(f"unbound parameter {tok!r}", at)
        self.fail(f"expected a polynomial, found {tok!r}", at)

    # coefficient-vector right-hand sides

    def parse_terms(
        self, gens: dict[str, int], allow: frozenset[int], what: str
    ) -> dict[int, MultiPoly]:
        """``coefficient generator + ...``; ``gens`` indexes the generator names."""
        terms = {}
        if self.peek() == "0" and self.peek(1) == ";":
            self.pos += 1
            return terms
        sign = 1
        while True:
            # a generator is a name, so a token among ``gens`` is one
            tok = self.peek()
            if tok in gens and self.peek(1) in (";", "+", "-"):
                self.pos += 1
                coeff = MultiPoly.const(sign)
            else:
                coeff = self.parse_poly(allow, what)
                if sign < 0:
                    coeff = -coeff
                at = self.expect_ident("a generator name")
                tok = self.tokens[at]
                if tok not in gens:
                    self.fail(f"unknown generator {tok!r}", at)
            idx = gens[tok]
            terms[idx] = terms[idx] + coeff if idx in terms else coeff
            nxt = self.peek()
            if nxt == "+":
                self.pos += 1
                sign = 1
            elif nxt == "-":
                self.pos += 1
                sign = -1
            else:
                return terms

    # declarations

    def parse_document(self) -> Document | None:
        while True:
            tok = self.peek()
            if not tok:
                break
            try:
                if tok in _DECLARATIONS:
                    getattr(self, f"parse_{tok}")()
                else:
                    self.pos += 1
                    self.fail(f"expected a declaration, found {tok!r}", self.pos - 1)
            except _Bail:
                self.sync_decl()
            if len(self.diagnostics) >= _MAX_DIAGNOSTICS:
                break
        if self.diagnostics:
            return None
        return Document(tuple(self.items), frozenset(self.used_params))

    def register(self, kind: str, at: int, value: object, refs=()) -> None:
        name = self.tokens[at]
        if (kind, name) in self.by_kind:
            self.fail(f"duplicate {kind} name {name!r}", at)
        self.by_kind[kind, name] = value
        self.items.append(Item(kind, name, value, tuple(refs)))

    def lookup(self, kind: str, at: int):
        value = self.by_kind.get((kind, self.tokens[at]))
        if value is None:
            self.fail(f"unknown {kind} {self.tokens[at]!r}", at)
        return value

    def parse_param(self) -> None:
        self.expect("param")
        at = self.expect_ident("a parameter name")
        name = self.tokens[at]
        if name in _RESERVED or _is_unknown(name):
            self.fail(f"{name!r} is reserved and cannot be a parameter", at)
        self.expect("=")
        value = self._parse_rational()
        self.expect(";")
        # command-line bindings take precedence over in-file defaults
        value = self.atoms[name] = self.params.setdefault(name, value)
        self.used_params.add(name)
        self.register("param", at, value)

    def _parse_rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        num_tok = self.peek()
        if not num_tok.isdecimal():
            self.fail("expected a rational constant")
        value = Fraction(self.integer(self.pos, num_tok))
        self.pos += 1
        if self.peek() == "/":
            self.pos += 1
            den_tok = self.peek()
            den = self.integer(self.pos, den_tok) if den_tok.isdecimal() else 0
            if den == 0:
                self.fail("expected a nonzero denominator")
            self.pos += 1
            value /= den
        return sign * value

    def _check_gen_name(self, at: int) -> None:
        name = self.tokens[at]
        if name in _RESERVED:
            self.fail(f"{name!r} is reserved and cannot name a generator", at)
        if name in self.params:
            self.fail(f"{name!r} is already a parameter name", at)

    def _header(self, keyword: str, what: str) -> tuple[int, str]:
        """``keyword name : kind {``; the name's token index and the kind."""
        self.expect(keyword)
        name_at = self.expect_ident(what)
        self.expect(":")
        kind_at = self.expect_ident("a kind (lie or assoc)")
        kind = self.tokens[kind_at]
        if kind not in KINDS:
            self.fail(f"unknown kind {kind!r}", kind_at)
        self.expect("{")
        return name_at, kind

    def _entry(self, operands, bases, entries: dict, what: str, duplicate: str) -> None:
        """The rest of ``left op right = terms;`` once both operand tokens,
        whose indexes are ``operands``, are read: ``bases`` index the left,
        right and output generators, and the entry lands in ``entries[i, j]``."""
        for at, basis in zip(operands, bases):
            if self.tokens[at] not in basis:
                self.fail(f"unknown generator {self.tokens[at]!r}", at)
        self.expect("=")
        terms = self.parse_terms(bases[2], frozenset({D, L1}), what)
        self.expect(";")
        key = tuple(basis[self.tokens[at]] for at, basis in zip(operands, bases))
        if key in entries:
            self.fail(duplicate, operands[0])
        entries[key] = terms

    def parse_algebra(self) -> None:
        name_at, kind = self._header("algebra", "an algebra name")
        self.expect("gens")
        gens: dict[str, int] = {}
        while True:
            at = self.expect_ident("a generator name")
            self._check_gen_name(at)
            if self.tokens[at] in gens:
                self.fail(f"duplicate generator {self.tokens[at]!r}", at)
            gens[self.tokens[at]] = len(gens)
            if self.peek() == ",":
                self.pos += 1
                continue
            break
        self.expect(";")
        entries = {}
        while self.peek() == "[":
            self.pos += 1
            a_at = self.expect_ident("a generator name")
            self.expect(",")
            b_at = self.expect_ident("a generator name")
            self.expect("]")
            self._entry(
                (a_at, b_at), (gens, gens, gens), entries, "a product table",
                f"duplicate product entry [{self.tokens[a_at]}, {self.tokens[b_at]}]",
            )
        self.expect("}")
        self.register("algebra", name_at, ConformalAlgebra(kind, tuple(gens), entries))

    def parse_matched(self) -> None:
        name_at, kind = self._header("matched", "a matched-pair name")
        parts, refs = {}, []
        for part in ("R", "Q"):
            self.expect(part)
            self.expect("=")
            refs.append(self.expect_ident("an algebra name"))
            parts[part] = self.lookup("algebra", refs[-1])
            self.expect(";")
        for at, alg in zip(refs, parts.values()):
            if alg.kind != kind:
                self.fail(f"algebra {self.tokens[at]!r} has the wrong kind", at)
        if set(parts["R"].basis) & set(parts["Q"].basis):
            self.fail("R and Q generator names must not overlap", name_at)
        index = {part: _index(alg.basis) for part, alg in parts.items()}
        arrows = {row[1]: row for row in _LAYOUT}
        entries = {}
        while self.peek(1) in arrows and _is_name(self.peek()):
            left_at, row = self.pos, arrows[self.peek(1)]
            self.pos += 2
            if row not in _layout(kind):
                self.fail(f"action {row[1]!r} is for associative pairs", left_at)
            right_at = self.expect_ident("a generator name")
            attr, _, *operands = row
            self._entry(
                (left_at, right_at), tuple(index[c] for c in operands),
                entries.setdefault(attr, {}), "an action table", "duplicate action entry",
            )
        self.expect("}")
        pair = MatchedPair(kind, parts["R"], parts["Q"], **{
            attr: entries.get(attr, {}) for attr, *_ in _layout(kind)
        })
        self.register("matched", name_at, pair, refs=tuple(self.tokens[at] for at in refs))

    def _parse_map_rows(
        self, src_basis: tuple[str, ...], tgt_basis: tuple[str, ...], what: str
    ) -> tuple[tuple[MultiPoly, ...], ...]:
        """``{ src -> terms; ... }``: a map's body, braces included."""
        self.expect("{")
        allow = frozenset({D})
        zero = MultiPoly.zero()
        rows = {name: (zero,) * len(tgt_basis) for name in src_basis}
        targets = _index(tgt_basis)
        assigned = set()
        while self.peek(1) == "->" and _is_name(self.peek()):
            src_at, src = self.pos, self.peek()
            self.pos += 2
            if src not in src_basis:
                self.fail(f"unknown generator {src!r}", src_at)
            if src in assigned:
                self.fail(f"duplicate map row for {src!r}", src_at)
            assigned.add(src)
            terms = self.parse_terms(targets, allow, what)
            self.expect(";")
            rows[src] = tuple(terms.get(k, zero) for k in range(len(tgt_basis)))
        self.expect("}")
        return tuple(rows[name] for name in src_basis)

    def parse_defmap(self) -> None:
        self.expect("defmap")
        name_at = self.expect_ident("a map name")
        self.expect("on")
        pair_at = self.expect_ident("a matched-pair name")
        pair = self.lookup("matched", pair_at)
        matrix = self._parse_map_rows(pair.Q.basis, pair.R.basis, "a deformation map")
        self.register(
            "defmap", name_at, DeformationMap(pair, matrix), refs=(self.tokens[pair_at],)
        )

    def parse_morphism(self) -> None:
        self.expect("morphism")
        name_at = self.expect_ident("a morphism name")
        self.expect(":")
        src_at = self.expect_ident("an algebra name")
        source = self.lookup("algebra", src_at)
        self.expect("->")
        tgt_at = self.expect_ident("an algebra name")
        target = self.lookup("algebra", tgt_at)
        if source.kind != target.kind:
            self.fail("morphism endpoints must have the same kind", tgt_at)
        matrix = self._parse_map_rows(source.basis, target.basis, "a morphism")
        refs = (self.tokens[src_at], self.tokens[tgt_at])
        self.register("morphism", name_at, Morphism(source, target, matrix), refs)


def try_parse(
    text: str, params: dict[str, Fraction] | None = None
) -> tuple[Document | None, list[Diagnostic]]:
    """Parse source text; collect diagnostics instead of stopping at the first."""
    parser = _Parser(text, params or {})
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
    parser = _Parser(text, {})
    try:
        poly = _as_poly(parser._poly_sum())
        if parser.peek():
            parser.fail("trailing input after polynomial")
    except _Bail:
        pass
    if parser.diagnostics:
        raise ParseError(parser.diagnostics)
    return poly


# -- serializer ---------------------------------------------------------------


def item_tables(item: Item):
    """The stored constants of each product and action table ``item``
    declares, as ``(constants, spell, left, right, carrier)``: nonzero entry
    ``constants[i][j]`` is written ``spell.format(left[i], right[j])`` and
    its pairs index the ``carrier`` generators.  Other items declare none."""
    if item.kind == "algebra":
        alg: ConformalAlgebra = item.value
        yield alg.constants, "[{}, {}]", alg.basis, alg.basis, alg.basis
    elif item.kind == "matched":
        pair: MatchedPair = item.value
        parts = {"R": pair.R.basis, "Q": pair.Q.basis}
        for attr, op, left, right, carrier in _layout(pair.kind):
            yield (
                getattr(pair, attr), f"{{}} {op} {{}}",
                parts[left], parts[right], parts[carrier],
            )


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
            for constants, spell, left, right, out in item_tables(item):
                lines += (
                    f"  {spell.format(left[i], right[j])} = {pairs_text(pairs, out)};"
                    for i, row in enumerate(constants) for j, pairs in row.items()
                )
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
