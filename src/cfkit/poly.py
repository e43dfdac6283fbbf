"""Exact sparse multivariate polynomial arithmetic over the rationals.

Every structure constant and ansatz coefficient in this package is a value of
:class:`MultiPoly`: a finite map from monomials to nonzero exact rational
coefficients.  A polynomial is stored as integer numerators over one positive
common denominator kept in lowest terms, the representation of FLINT's
``fmpq_poly``: no factor above one divides the denominator and all the
numerators, so an integral polynomial has denominator ``1``.  Ring operations therefore run on
``int`` alone and reduce by one gcd per result; ``Fraction`` appears only
where a coefficient is handed out, as an ``int`` when it is integral and as a
``Fraction`` otherwise.  Substitution works the same way: each term is
multiplied out against a power of the replacement's numerators, scaled to
one common denominator, and accumulated into a single dict of ``int``
numerators, with no intermediate polynomial (the sparse accumulation of
Monagan and Pearce, *Sparse polynomial arithmetic*).
Arithmetic is exact, values are immutable, and all operations are pure
functions, so polynomials can be shared freely between threads.

The variable set is fixed once and for all.  Variable ``0`` is the module
generator, rendered ``d``; variables ``1`` and ``2`` are the two spectral
parameters, rendered ``l`` and ``m``; variable ``3 + k`` is the inert ansatz
unknown ``uk``.  The integer ids double as the variable order
``d < l < m < u0 < u1 < ...`` underlying the canonical graded-lexicographic
term order, which in turn fixes iteration order, textual rendering, and
golden-file stability.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Union

D = 0
L1 = 1
L2 = 2
_U_BASE = 3

#: A monomial is a tuple of (variable id, exponent) pairs, sorted by variable,
#: with every exponent positive.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[int, int], ...]

Scalar = Union[int, Fraction]


def unknown(k: int) -> int:
    """Variable id of the ansatz unknown ``u<k>``."""
    if k < 0:
        raise ValueError("unknown index must be non-negative")
    return _U_BASE + k


def is_unknown(var: int) -> bool:
    return var >= _U_BASE


def var_name(var: int) -> str:
    """Normative textual name of a variable (``d``, ``l``, ``m``, ``u0``...)."""
    if var == D:
        return "d"
    if var == L1:
        return "l"
    if var == L2:
        return "m"
    if var >= _U_BASE:
        return f"u{var - _U_BASE}"
    raise ValueError(f"invalid variable id {var}")


#: Rendered in chunks of 600 digits, below 640: the lowest int-to-str digit
#: limit that ``sys.set_int_max_str_digits`` accepts.
_CHUNK = 10**600


def _int_text(n: int) -> str:
    if -_CHUNK < n < _CHUNK:
        return str(n)
    chunks, rest = [], abs(n)
    while rest:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(600))
    return ("-" if n < 0 else "") + "".join(reversed(chunks)).lstrip("0")


def scalar_text(value: Scalar) -> str:
    """Render a rational as ``n`` or ``n/d``, exactly at any size."""
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


def _as_scalar(value: Scalar) -> Scalar:
    """Canonical form of an exact rational: ``int`` when integral."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _ratio(num: int, den: int) -> Scalar:
    """``num / den`` in the canonical scalar form."""
    if den == 1 or num % den == 0:
        return num // den
    return Fraction(num, den)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    ``_terms`` maps each monomial to a nonzero ``int`` numerator and ``_den``
    is the positive common denominator, with ``gcd(_den, *numerators) == 1``.
    Every result is reduced to that form, so two values compare equal exactly
    when they are the same polynomial; no separate normalization step is ever
    needed.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: dict[Monomial, Scalar] = {}
        den = 1
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_scalar(coeff)
                if coeff == 0:
                    continue
                if any(exp <= 0 for _, exp in mono) or list(mono) != sorted(mono):
                    raise ValueError(f"malformed monomial {mono!r}")
                cleaned[tuple(mono)] = coeff
                den = lcm(den, coeff.denominator)
        # the lcm of reduced denominators is in lowest terms already: each prime
        # of it has its full power in some denominator, so that coefficient's
        # scaled numerator is not a multiple of the prime
        object.__setattr__(
            self,
            "_terms",
            {mono: c.numerator * (den // c.denominator) for mono, c in cleaned.items()},
        )
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _ZERO

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        value = _as_scalar(value)
        if value == 0:
            return _ZERO
        return _raw({(): value.numerator}, value.denominator)

    @classmethod
    def var(cls, var: int, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if exp == 0:
            return cls.const(1)
        return _raw({((var, exp),): 1}, 1)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Iterate terms in canonical order: graded-lexicographic, descending."""
        ordered = _ordered(self._terms)
        den = self._den
        if den != 1:
            ordered = [(mono, _ratio(num, den)) for mono, num in ordered]
        return iter(ordered)

    def variables(self) -> frozenset[int]:
        return frozenset(v for mono in self._terms for v, _ in mono)

    def degree(self, var: int | None = None) -> int:
        """Degree in ``var`` (total degree when ``var`` is None); -1 for zero."""
        if not self._terms:
            return -1
        if var is None:
            return max(sum(e for _, e in mono) for mono in self._terms)
        best = 0
        for mono in self._terms:
            for v, e in mono:
                if v == var and e > best:
                    best = e
        return best

    def bit_length(self) -> int:
        """The largest bit length among the numerators and the denominator."""
        return max([self._den.bit_length(), *(n.bit_length() for n in self._terms.values())])

    def constant_value(self) -> Scalar | None:
        """The value of a constant polynomial, or None if any variable occurs."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return _ratio(self._terms[()], self._den)
        return None

    def leading(self) -> tuple[Monomial, Scalar]:
        """Leading (monomial, coefficient) in the canonical order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono, num = _ordered(self._terms)[0]
        return mono, _ratio(num, self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __neg__(self) -> "MultiPoly":
        if not self._terms:
            return _ZERO
        return _raw({mono: -coeff for mono, coeff in self._terms.items()}, self._den)

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return _ZERO
        return _normal(_mul_terms(self._terms, other._terms), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        """Division by a nonzero rational (or constant polynomial) only."""
        if isinstance(other, MultiPoly):
            value = other.constant_value()
            if value is None:
                raise ValueError("can only divide by a constant polynomial")
            other = value
        other = _as_scalar(other)
        if other == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return self * (Fraction(1) / other)

    def __pow__(self, exp: int) -> "MultiPoly":
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = MultiPoly.const(1)
        for _ in range(exp):
            out = out * self
        return out

    # -- substitution ------------------------------------------------------

    def substitute(self, var: int, replacement: "MultiPoly | Scalar") -> "MultiPoly":
        """Ring-homomorphic replacement of every occurrence of ``var``.

        One pass over the terms, in integer numerators: with the replacement
        ``r`` stored as ``R / rden`` and ``top`` the degree of ``var``, a term
        ``c * rest * var^e`` contributes ``c * rden^(top - e) * rest * R^e``,
        so every product lands over the one denominator
        ``self._den * rden^top``, in one dict, reduced once at the end.
        """
        replacement = _coerce_strict(replacement)
        top = self.degree(var)  # 0 when var does not occur, -1 for zero
        if top <= 0 or (
            replacement._den == 1 and replacement._terms == {((var, 1),): 1}
        ):
            return self
        rterms, rden = replacement._terms, replacement._den
        # powers[k] holds the numerators of r^k over rden^k, scales[k] rden^k
        powers = [{(): 1}]
        scales = [1]
        for _ in range(top):
            powers.append(_mul_terms(powers[-1], rterms))
            scales.append(scales[-1] * rden)
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            exp = 0
            rest = []
            for v, e in mono:
                if v == var:
                    exp = e
                else:
                    rest.append((v, e))
            rest = tuple(rest)
            coeff *= scales[top - exp]
            for pmono, pnum in powers[exp].items():
                mono = _mono_mul(rest, pmono)
                acc = out.get(mono, 0) + coeff * pnum
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
        return _normal(out, self._den * scales[top])

    def eval_at(self, var: int, value: Scalar) -> "MultiPoly":
        """Substitute the constant ``value`` for ``var``."""
        return self.substitute(var, MultiPoly.const(value))

    def evaluate(self, values: Mapping[int, Fraction]) -> Fraction:
        """Numeric value under a total assignment of every occurring variable."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            term = coeff
            for var, exp in mono:
                term *= values[var] ** exp
            total += term
        return total / self._den

    def coefficient_list(self, var: int) -> list["MultiPoly"]:
        """Decompose as coefficients of powers ``var^0, var^1, ...``.

        Each returned polynomial is free of ``var`` and the decomposition
        reassembles exactly:  ``sum(c_k * var**k) == self``.  The zero
        polynomial yields the empty list.
        """
        if not self._terms:
            return []
        buckets: dict[int, dict[Monomial, int]] = {}
        for mono, coeff in self._terms.items():
            exp = 0
            rest = []
            for v, e in mono:
                if v == var:
                    exp = e
                else:
                    rest.append((v, e))
            buckets.setdefault(exp, {})[tuple(rest)] = coeff
        top = max(buckets)
        return [_normal(buckets.get(k, {}), self._den) for k in range(top + 1)]

    # -- equality / rendering ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant compares equal to its scalar, so it hashes as that scalar
        value = self.constant_value()
        if value is not None:
            return hash(value)
        return hash((self._den, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.terms():
            body = "*".join(
                var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in mono
            )
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

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# the slot setters themselves: immutability blocks ``__setattr__``, and these
# skip the attribute lookup of ``object.__setattr__`` on every result
_set_terms = MultiPoly._terms.__set__
_set_den = MultiPoly._den.__set__


def _raw(terms: dict[Monomial, int], den: int) -> MultiPoly:
    """Build from numerators already in lowest terms over ``den`` (internal
    fast path)."""
    poly = object.__new__(MultiPoly)
    _set_terms(poly, terms)
    _set_den(poly, den)
    return poly


def _normal(terms: dict[Monomial, int], den: int) -> MultiPoly:
    """Build from nonzero numerators over a positive ``den``, dividing out
    their common factor; the zero polynomial gets ``den`` 1."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {mono: num // g for mono, num in terms.items()}
            den //= g
    return _raw(terms, den)


_ZERO = _raw({}, 1)


def _combine(a: MultiPoly, b: MultiPoly, sign: int) -> MultiPoly:
    """``a + sign * b`` for ``sign`` in {1, -1}, in one pass over integer
    numerators: no negated copy of ``b`` is built for a difference."""
    if not b._terms:
        return a
    if not a._terms:
        return b if sign > 0 else -b
    den, b_den = a._den, b._den
    if den == b_den:
        out = dict(a._terms)
        scale = sign
    else:
        # bring both over lcm(den, b_den)
        g = gcd(den, b_den)
        out = {mono: c * (b_den // g) for mono, c in a._terms.items()}
        scale = sign * (den // g)
        den *= b_den // g
    for mono, coeff in b._terms.items():
        acc = out.get(mono, 0) + coeff * scale
        if acc:
            out[mono] = acc
        else:
            del out[mono]
    return _normal(out, den)


def _coerce(value) -> "MultiPoly":
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value)
    return NotImplemented


def _coerce_strict(value) -> MultiPoly:
    poly = _coerce(value)
    if poly is NotImplemented:
        raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")
    return poly


def _mul_terms(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    """The nonzero numerators of the product of two numerator maps."""
    out: dict[Monomial, int] = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            mono = _mono_mul(mono_a, mono_b)
            acc = out.get(mono, 0) + ca * cb
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return out


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials, by merging their sorted variables."""
    # most products have a constant side: 59 to 85 % of the calls per
    # benchmark workload
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _ordered(terms: dict[Monomial, Scalar]) -> list[tuple[Monomial, Scalar]]:
    if not terms:
        return []
    support = sorted({v for mono in terms for v, _ in mono})
    index = {v: i for i, v in enumerate(support)}

    def key(item):
        mono, _ = item
        vec = [0] * len(support)
        for v, e in mono:
            vec[index[v]] = e
        return (sum(vec), tuple(vec))

    return sorted(terms.items(), key=key, reverse=True)
