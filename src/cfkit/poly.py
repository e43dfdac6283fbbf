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
An ``int`` or ``Fraction`` operand takes a scalar path and is never made a
polynomial first: a product scales the numerators by its numerator and the
denominator by its denominator, a sum or difference changes the constant
key's numerator alone, and either is reduced once.  A polynomial operand is
recognised by one type test, so the polynomial paths pay no more.
Arithmetic is exact, values are immutable, and all operations are pure
functions, so polynomials can be shared freely between threads.

The variable set is fixed once and for all.  Variable ``0`` is the module
generator, rendered ``d``; variables ``1`` and ``2`` are the two spectral
parameters, rendered ``l`` and ``m``; variable ``3 + k`` is the inert ansatz
unknown ``uk``, for ``k`` up to :data:`MAX_UNKNOWN`.  The integer ids double
as the variable order ``d < l < m < u0 < u1 < ...`` underlying the canonical
graded-lexicographic term order, which in turn fixes iteration order,
textual rendering, and golden-file stability.

Internally a monomial is one ``int``, its packed exponent vector (Monagan
and Pearce, *Polynomial division using dynamic arrays, heaps, and packed
exponent vectors*): the total degree sits in bits 0 to 15 and the exponent
of variable ``v`` in bits ``16(v + 1)`` to ``16(v + 2)``, so the product of
two monomials is the sum of their keys.  No monomial of total degree
``2^15`` or more is ever formed: every exponent and every total degree is
then below ``2^15``, a sum of two keys carries from no field into the next,
and a key whose bit 15 is set marks a product over the degree guard, which
raises :class:`CapExceeded`, the package's one exception for every resource
cap, instead of yielding wrong exponents.  Keys are decoded only in this
module, back to ``(variable, exponent)`` tuples where a term is handed out
(:meth:`MultiPoly.terms`, :meth:`MultiPoly.leading`, rendering), through
bounded memos of the decoded monomial, its sort key and its text; degrees,
variables, substitution and coefficient lists read the key's fields with
shifts and masks, and other modules read terms only through these methods.
Fields grow with the variable order, so whether any variable after ``v``
occurs is read off the largest key alone (:meth:`MultiPoly.uses_only_up_to`):
the table, map and generator validators and the ``.cfk`` parser test each
coefficient so, with no set of its variables built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterator, Mapping, Union

D = 0
L1 = 1
L2 = 2
_U_BASE = 3

#: Largest index ``k`` of an ansatz unknown ``uk``.  Its exponent sits in
#: bits ``16(k + 4)`` on of a packed key, so an index past the cap would
#: make every key holding it that much longer.
MAX_UNKNOWN = 1020

#: Largest total degree of a monomial: the degree field's bit 15 stays clear.
MAX_DEGREE = 2**15 - 1

#: A monomial as handed out: a tuple of (variable id, exponent) pairs,
#: sorted by variable, with every exponent positive.  The empty tuple is the
#: constant monomial.
Monomial = tuple[tuple[int, int], ...]

Scalar = Union[int, Fraction]

_BITS = 16
_FIELD = (1 << _BITS) - 1
_OVER = MAX_DEGREE + 1  # bit 15: set in a key exactly when its degree is over


class CapExceeded(ValueError):
    """A computation would go over a resource cap: the CLI exits 3 with the message."""


def unknown(k: int) -> int:
    """Variable id of the ansatz unknown ``u<k>``, for ``0 <= k <= MAX_UNKNOWN``."""
    if k < 0:
        raise ValueError("unknown index must be non-negative")
    if k > MAX_UNKNOWN:
        raise ValueError(f"unknown index {k} is over the cap of {MAX_UNKNOWN}")
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


def _shift(var: int) -> int:
    """Bit offset of ``var``'s exponent field, refusing ids with no field."""
    if not 0 <= var <= _U_BASE + MAX_UNKNOWN:
        raise ValueError(f"invalid variable id {var}")
    return _BITS * (var + 1)


def _pack(mono: Monomial) -> int:
    """The key of a tuple monomial."""
    key = degree = 0
    last = -1
    for var, exp in mono:
        if var <= last or exp <= 0:
            raise ValueError(f"malformed monomial {mono!r}")
        degree += exp
        if degree > MAX_DEGREE:
            raise CapExceeded(f"monomial {mono!r} is over the degree guard {MAX_DEGREE}")
        key |= exp << _shift(var)
        last = var
    return key | degree


def _guard(keys) -> None:
    """Raise unless every key is under the degree guard.  Keys summed from
    keys under it carry from no field into the next, so bit 15 of such a sum
    is set exactly when its degree is over."""
    for key in keys:
        if key & _OVER:
            raise CapExceeded(f"a product is over the degree guard {MAX_DEGREE}")


@lru_cache(maxsize=4096)
def _monomial(key: int) -> Monomial:
    """The tuple monomial of a key."""
    out = []
    key >>= _BITS
    var = 0
    while key:
        exp = key & _FIELD
        if exp:
            out.append((var, exp))
        key >>= _BITS
        var += 1
    return tuple(out)


@lru_cache(maxsize=4096)
def _grlex(key: int) -> tuple[int, ...]:
    """Sort key of the graded-lexicographic order: the total degree, then the
    exponents of ``d``, ``l``, ``m``, ``u0``, ... up to the last one present.
    Two monomials of one degree differ within the shorter of their sort keys,
    so keys of different lengths compare as the padded vectors would."""
    out = [key & _FIELD]
    key >>= _BITS
    while key:
        out.append(key & _FIELD)
        key >>= _BITS
    return tuple(out)


@lru_cache(maxsize=4096)
def _body(key: int) -> str:
    """The text of a key's monomial, ``d*l^2``; empty for the constant one."""
    return "*".join(
        var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in _monomial(key)
    )


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

    ``_terms`` maps each packed monomial key to a nonzero ``int`` numerator
    and ``_den`` is the positive common denominator, with
    ``gcd(_den, *numerators) == 1``.  Every result is reduced to that form,
    so two values compare equal exactly when they are the same polynomial;
    no separate normalization step is ever needed.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned: dict[int, Scalar] = {}
        den = 1
        if terms:
            for mono, coeff in terms.items():
                coeff = _as_scalar(coeff)
                if coeff == 0:
                    continue
                cleaned[_pack(mono)] = coeff
                den = lcm(den, coeff.denominator)
        # the lcm of reduced denominators is in lowest terms already: each prime
        # of it has its full power in some denominator, so that coefficient's
        # scaled numerator is not a multiple of the prime
        object.__setattr__(
            self,
            "_terms",
            {key: c.numerator * (den // c.denominator) for key, c in cleaned.items()},
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
        if value == 1:
            return _ONE
        return _raw({0: value.numerator}, value.denominator)

    @classmethod
    def var(cls, var: int, exp: int = 1) -> "MultiPoly":
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if exp == 0:
            return _ONE
        return MultiPoly({((var, exp),): 1})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Iterate terms in canonical order: graded-lexicographic, descending."""
        terms, den = self._terms, self._den
        ordered = sorted(terms, key=_grlex, reverse=True)
        if den == 1:
            return iter([(_monomial(key), terms[key]) for key in ordered])
        return iter([(_monomial(key), _ratio(terms[key], den)) for key in ordered])

    def variables(self) -> frozenset[int]:
        present = 0
        for key in self._terms:
            present |= key
        present >>= _BITS
        out = []
        var = 0
        while present:
            if present & _FIELD:
                out.append(var)
            present >>= _BITS
            var += 1
        return frozenset(out)

    def uses_only_up_to(self, var: int) -> bool:
        """Whether no variable after ``var`` in the variable order occurs,
        ``variables() <= {0, ..., var}``, read off the largest key alone:
        a key holding a later variable has a bit at ``16(var + 2)`` or
        above, and one holding none has no such bit."""
        return not max(self._terms, default=0) >> (_BITS * (var + 2))

    def degree(self, var: int | None = None) -> int:
        """Degree in ``var`` (total degree when ``var`` is None); -1 for zero."""
        if not self._terms:
            return -1
        if var is None:
            return max(key & _FIELD for key in self._terms)
        shift = _shift(var)
        return max((key >> shift) & _FIELD for key in self._terms)

    def bit_length(self) -> int:
        """The largest bit length among the numerators and the denominator."""
        return max([self._den.bit_length(), *(n.bit_length() for n in self._terms.values())])

    def constant_value(self) -> Scalar | None:
        """The value of a constant polynomial, or None if any variable occurs."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and 0 in self._terms:
            return _ratio(self._terms[0], self._den)
        return None

    def leading(self) -> tuple[Monomial, Scalar]:
        """Leading (monomial, coefficient) in the canonical order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._terms, key=_grlex)
        return _monomial(key), _ratio(self._terms[key], self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        if type(other) is not MultiPoly:
            if isinstance(other, (int, Fraction)):
                return _plus_scalar(self, 1, other)
            if not isinstance(other, MultiPoly):
                return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if type(other) is not MultiPoly:
            if isinstance(other, (int, Fraction)):
                return _plus_scalar(self, 1, -other)
            if not isinstance(other, MultiPoly):
                return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        if type(other) is not MultiPoly:
            if isinstance(other, (int, Fraction)):
                return _plus_scalar(self, -1, other)
            if not isinstance(other, MultiPoly):
                return NotImplemented
        return _combine(other, self, -1)

    def __neg__(self) -> "MultiPoly":
        if not self._terms:
            return _ZERO
        return _raw({key: -coeff for key, coeff in self._terms.items()}, self._den)

    def __mul__(self, other) -> "MultiPoly":
        if type(other) is not MultiPoly:
            if isinstance(other, (int, Fraction)):
                return _scale(self, other)
            if not isinstance(other, MultiPoly):
                return NotImplemented
        # the shared constant one: a unit vector's coordinate, most often
        if other is _ONE:
            return self
        if self is _ONE:
            return other
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
        out = _ONE
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
        shift = _shift(var)
        if top <= 0 or (
            replacement._den == 1 and replacement._terms == {(1 << shift) | 1: 1}
        ):
            return self
        rterms, rden = replacement._terms, replacement._den
        # powers[k] holds the numerators of r^k over rden^k, scales[k] rden^k
        powers = [{0: 1}]
        scales = [1]
        for _ in range(top):
            powers.append(_mul_terms(powers[-1], rterms))
            scales.append(scales[-1] * rden)
        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            exp = (key >> shift) & _FIELD
            rest = key - (exp << shift) - exp
            coeff *= scales[top - exp]
            for pkey, pnum in powers[exp].items():
                key = rest + pkey
                acc = out.get(key, 0) + coeff * pnum
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        _guard(out)
        return _normal(out, self._den * scales[top])

    def eval_at(self, var: int, value: Scalar) -> "MultiPoly":
        """Substitute the constant ``value`` for ``var``."""
        return self.substitute(var, MultiPoly.const(value))

    def evaluate(self, values: Mapping[int, Fraction]) -> Fraction:
        """Numeric value under a total assignment of every occurring variable."""
        total = Fraction(0)
        for key, coeff in self._terms.items():
            term = coeff
            for var, exp in _monomial(key):
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
        shift = _shift(var)
        buckets: dict[int, dict[int, int]] = {}
        for key, coeff in self._terms.items():
            exp = (key >> shift) & _FIELD
            buckets.setdefault(exp, {})[key - (exp << shift) - exp] = coeff
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
        """Terms in canonical order, each coefficient's magnitude rendered
        from its numerator and the common denominator, reduced by their gcd:
        no ``Fraction`` is built."""
        if not self._terms:
            return "0"
        terms, den = self._terms, self._den
        chunks: list[str] = []
        for key in sorted(terms, key=_grlex, reverse=True):
            num = terms[key]
            g = gcd(num, den)
            mag, mag_den = abs(num) // g, den // g
            mag_text = _int_text(mag)
            if mag_den != 1:
                mag_text = f"{mag_text}/{_int_text(mag_den)}"
            body = _body(key)
            if not body:
                text = mag_text
            elif mag == mag_den == 1:
                text = body
            else:
                text = f"{mag_text}*{body}"
            if not chunks:
                chunks.append(("-" if num < 0 else "") + text)
            else:
                chunks.append(("- " if num < 0 else "+ ") + text)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# the slot setters themselves: immutability blocks ``__setattr__``, and these
# skip the attribute lookup of ``object.__setattr__`` on every result
_set_terms = MultiPoly._terms.__set__
_set_den = MultiPoly._den.__set__


def _raw(terms: dict[int, int], den: int) -> MultiPoly:
    """Build from numerators already in lowest terms over ``den`` (internal
    fast path)."""
    poly = object.__new__(MultiPoly)
    _set_terms(poly, terms)
    _set_den(poly, den)
    return poly


def _normal(terms: dict[int, int], den: int) -> MultiPoly:
    """Build from nonzero numerators over a positive ``den``, dividing out
    their common factor; the zero polynomial gets ``den`` 1."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {key: num // g for key, num in terms.items()}
            den //= g
    return _raw(terms, den)


_ZERO = _raw({}, 1)
#: The one constant polynomial ``1`` that ``MultiPoly.const(1)`` returns, so
#: a product can skip it by identity.
_ONE = _raw({0: 1}, 1)


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
        out = {key: c * (b_den // g) for key, c in a._terms.items()}
        scale = sign * (den // g)
        den *= b_den // g
    for key, coeff in b._terms.items():
        acc = out.get(key, 0) + coeff * scale
        if acc:
            out[key] = acc
        else:
            del out[key]
    return _normal(out, den)


def _scale(poly: MultiPoly, value: Scalar) -> MultiPoly:
    """``poly * value`` for a scalar ``value``: the numerators times its
    numerator over the denominator times its denominator, reduced once."""
    num, den = value.numerator, value.denominator
    if not num or not poly._terms:
        return _ZERO
    if num == den:  # in lowest terms, so the value is one
        return poly
    return _normal({key: c * num for key, c in poly._terms.items()}, poly._den * den)


def _plus_scalar(poly: MultiPoly, sign: int, value: Scalar) -> MultiPoly:
    """``sign * poly + value`` for ``sign`` in {1, -1} and a scalar
    ``value``: over the product of the two denominators only the constant
    key's numerator takes ``value`` in, and the result is reduced once."""
    if not poly._terms:
        return MultiPoly.const(value)
    num, den = value.numerator, value.denominator
    if not num:
        return poly if sign > 0 else -poly
    scale = sign * den
    terms = poly._terms
    out = dict(terms) if scale == 1 else {key: c * scale for key, c in terms.items()}
    acc = out.get(0, 0) + num * poly._den
    if acc:
        out[0] = acc
    else:
        del out[0]
    return _normal(out, poly._den * den)


def _coerce_strict(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")


def _mul_terms(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The nonzero numerators of the product of two numerator maps: the
    product of two monomials is the sum of their keys."""
    out: dict[int, int] = {}
    get = out.get
    for key_a, ca in a.items():
        for key_b, cb in b.items():
            key = key_a + key_b
            acc = get(key, 0) + ca * cb
            if acc:
                out[key] = acc
            else:
                del out[key]
    _guard(out)
    return out
