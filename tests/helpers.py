"""Shared builders: the bundled fixture files are the single source of truth
for the worked examples, so tests parse them rather than duplicating tables.
Also the references that tests check cfkit against:
``reference_spectral_eval``, the kernel that rewrites its arguments and
table entries on every call, ``action_eval``, the evaluation of one action
table through it, which reads the argument and carrier ranks off the table,
``product_at``, one product at any spectral parameter composed of cfkit's
own rules, ``member``, submodule membership, ``reference_det``, the
determinant by cofactor expansion, ``reference_hermite_normal_form``,
the column-by-column Hermite form that reads every row,
``random_unimodular`` and ``change_basis``, a seeded basis change over the
d-polynomial ring and the algebra rewritten in it, and
``reference_compile``, the constraint compiler that decodes every term's
monomial and buckets it by its (d, l) part, and ``reference_constants``,
the walk over a dense table that cfkit once validated every table with;
and builders of elements, tables and algebras that cfkit itself never
needs, ``bundled`` among them, every declaration of one kind in the corpus
fixtures, and ``entries``, ``constant_entries`` and ``action_table``,
which turn a dense table or stored constants into the entries cfkit takes
and a pair's stored action back into a dense table."""

from fractions import Fraction

from cfkit import corpus
from cfkit.actions import MatchedPair, _layout
from cfkit.algebra import ConformalAlgebra, _at_d, _sparse, spectral_eval
from cfkit.constraints import ConstraintSystem, Equation, Provenance, _normalize
from cfkit.deform import DeformationMap, Morphism
from cfkit.dsl import Document, parse_document
from cfkit.poly import D, L1, L2, MultiPoly, is_unknown
from cfkit.structure import Submodule, _reduce, poly_deg, poly_det

#: ``psi2`` is a map of ``P2``, not of ``P``: a map of another pair, which
#: ``P``'s checks refuse rather than read through its first rows
FOREIGN = (
    "algebra Vir : lie { gens L; [L, L] = (d + 2*l) L; }\n"
    "algebra One : lie { gens W; }\nalgebra Two : lie { gens W1, W2; }\n"
    "matched P : lie { R = Vir; Q = One; }\nmatched P2 : lie { R = Vir; Q = Two; }\n"
    "defmap phi on P { W -> (0) L; }\ndefmap psi2 on P2 { W1 -> L; }\n"
    "morphism a1 : One -> One { W -> W; }\n"
)


def load_fixture(name: str, **params) -> Document:
    text = (corpus.fixture_dir(name) / "input.cfk").read_text()
    bound = {k: Fraction(str(v)) for k, v in params.items()}
    return parse_document(text, bound)


def bundled_documents():
    """``(name, document)`` of every corpus fixture, at generic parameters."""
    params = {p: Fraction(k + 2, 3) for k, p in enumerate(
        ("a", "b", "c", "p", "q", "r", "s", "a1", "a2", "a3", "ai"))}
    for name in corpus.fixture_names():
        text = (corpus.fixture_dir(name) / "input.cfk").read_text()
        yield name, parse_document(text, params)


def bundled(kind: str):
    """Every ``kind`` declaration of the corpus fixtures, at generic parameters."""
    for name, document in bundled_documents():
        for item in document.items:
            if item.kind == kind:
                yield f"{name}:{item.name}", item.value


def wab_doc(a, b, c=0) -> Document:
    return load_fixture("wab", a=a, b=b, c=c)


def sv_doc(a=0, b=0, **extra) -> Document:
    a = Fraction(str(a))
    ai = extra.pop("ai", 1 if a == 0 else 1 / a)
    c = extra.pop("c", 0 if a == 0 else Fraction(str(b)) / a)
    return load_fixture("sv", a=a, b=b, c=c, ai=ai)


def nfold_doc(b=2, a1=1, a2=0, a3=-2) -> Document:
    return load_fixture("nfold", b=b, a1=a1, a2=a2, a3=a3)


def assoc4_doc(p=0, q=0, r=0, s=0) -> Document:
    return load_fixture("assoc4", p=p, q=q, r=r, s=s)


def vir_algebra():
    return load_fixture("vir").find("algebra", "Vir")


def zero_map(pair) -> DeformationMap:
    zero = MultiPoly.zero()
    matrix = tuple((zero,) * pair.R.rank for _ in range(pair.Q.rank))
    return DeformationMap(pair, matrix)


def identity_morphism(algebra) -> Morphism:
    n = algebra.rank
    zero = MultiPoly.zero()
    one = MultiPoly.const(1)
    matrix = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    return Morphism(algebra, algebra, matrix)


def abelian(kind: str, names: tuple[str, ...]) -> ConformalAlgebra:
    """The algebra on ``names`` whose products all vanish."""
    return ConformalAlgebra(kind, tuple(names), {})


def entries(table) -> dict:
    """Every entry of a dense table, zero ones included, keyed ``(i, j)``, as
    its nonzero coordinates ``{k: c}``."""
    return {(i, j): {k: c for k, c in enumerate(entry) if c}
            for i, row in enumerate(table) for j, entry in enumerate(row)}


def constant_entries(constants) -> dict:
    """The entries ``{(i, j): {k: c}}`` of stored constants, as they stand."""
    return {(i, j): dict(pairs) for i, row in enumerate(constants) for j, pairs in row.items()}


def action_table(pair, attr: str) -> tuple:
    """The dense table of the pair's action ``attr``, built from the stored
    constants in the shape the layout gives."""
    ranks = {"R": pair.R.rank, "Q": pair.Q.rank}
    _, _, left, right, carrier = next(row for row in _layout(pair.kind) if row[0] == attr)
    zero = MultiPoly.zero()
    constants = getattr(pair, attr)
    return tuple(
        tuple(
            tuple(dict(constants[i].get(j, ())).get(k, zero) for k in range(ranks[carrier]))
            for j in range(ranks[right])
        )
        for i in range(ranks[left])
    )


def pair_with(pair, **fields):
    """The pair rebuilt from its algebras and its stored actions' constants,
    with ``fields`` given instead where named."""
    given = {"R": pair.R, "Q": pair.Q}
    given.update(
        (attr, constant_entries(getattr(pair, attr))) for attr, *_ in _layout(pair.kind)
    )
    return MatchedPair(pair.kind, **{**given, **fields})


def trivial_pair(R, Q):
    """The pair of R and Q, of R's kind, whose actions all vanish."""
    return MatchedPair(R.kind, R, Q, **{attr: {} for attr, *_ in _layout(R.kind)})


def reference_constants(table, shape: tuple, what: str) -> tuple:
    """The dense walk that once validated every table: raise unless
    ``table`` is rows x columns x entry length as in ``shape`` and its
    coefficients use no variable but ``d`` and ``l``, and return its nonzero
    structure constants at ``l`` in row, column and coordinate order."""
    rows, cols, width = shape
    if len(table) != rows or any(
        len(row) != cols or any(len(entry) != width for entry in row) for row in table
    ):
        raise ValueError(f"{what} shape must be {rows} x {cols} x {width}")
    constants = tuple({j: nonzero for j, entry in enumerate(row)
                       if (nonzero := tuple((k, c) for k, c in enumerate(entry) if c))}
                      for row in table)
    for row in constants:
        for pairs in row.values():
            for _, coeff in pairs:
                if not coeff.variables() <= {D, L1}:
                    raise ValueError(f"{what} entry {coeff} uses variables other than d, l")
    return constants


def basis_element(algebra, i: int) -> tuple:
    """The i-th basis vector of ``algebra`` as a coordinate tuple."""
    coords = [MultiPoly.zero()] * algebra.rank
    coords[i] = MultiPoly.const(1)
    return tuple(coords)


def element(algebra, coeffs: dict) -> tuple:
    """The element with coefficient ``coeffs[name]`` on each named basis
    vector and zero elsewhere."""
    coords = [MultiPoly.zero()] * algebra.rank
    for name, value in coeffs.items():
        coords[algebra.basis.index(name)] = MultiPoly.const(0) + value
    return tuple(coords)


def scale(x: tuple, factor) -> tuple:
    return tuple(c * factor for c in x)


def add(*terms: tuple) -> tuple:
    """The sum of elements of one rank."""
    return tuple(sum(coords, MultiPoly.zero()) for coords in zip(*terms, strict=True))


def sub(x: tuple, y: tuple) -> tuple:
    """The difference of two elements of one rank."""
    return tuple(a - b for a, b in zip(x, y, strict=True))


def neg(x: tuple) -> tuple:
    return tuple(-c for c in x)


_PD = MultiPoly.var(D)
_AFFINE_MONOMIALS = frozenset({(), ((D, 1),), ((L1, 1),), ((L2, 1),)})


def require_affine(s: MultiPoly) -> None:
    """Spectral parameters must be affine in d, l, m."""
    if not _AFFINE_MONOMIALS.issuperset(mono for mono, _ in s.terms()):
        raise ValueError(f"spectral parameter must be affine in d, l, m: {s}")


def reference_spectral_eval(table, out_rank, left, right, s):
    """Evaluate a bilinear spectral product at parameter ``s``.

    ``table[i][j]`` gives the product of the i-th left and j-th right basis
    vectors as a coefficient vector of length ``out_rank``.  Coordinate
    polynomials of the arguments are rewritten by ``d -> -s`` (left) and
    ``d -> d + s`` (right); the table's spectral variable is set to ``s``.
    """
    require_affine(s)
    minus_s = -s
    shifted = _PD + s
    out = [MultiPoly.zero()] * out_rank
    for i, xi in enumerate(left):
        if xi.is_zero:
            continue
        a = xi.substitute(D, minus_s)
        row = table[i]
        for j, yj in enumerate(right):
            if yj.is_zero:
                continue
            entry = row[j]
            factor = None
            for k, coeff in enumerate(entry):
                if coeff.is_zero:
                    continue
                if factor is None:
                    factor = a * yj.substitute(D, shifted)
                out[k] = out[k] + factor * coeff.substitute(L1, s)
    return tuple(out)


def action_eval(table, first: tuple, second: tuple, s) -> tuple:
    """Evaluate ``first_s second`` through the action table ``table``.

    The arguments come in the order of the infix notation, as the rows and
    columns of the table do: for a left action the first belongs to the
    acting algebra, for a right action it is the carrier element.  The
    table's rows, columns and entry length give the two argument ranks and
    the carrier rank.  Same rules as the product, through the reference
    kernel.
    """
    s = MultiPoly.const(0) + s
    if len(first) != len(table) or len(second) != len(table[0]):
        raise ValueError("action argument rank mismatch")
    return reference_spectral_eval(table, len(table[0][0]), first, second, s)


def product_at(algebra, x: tuple, y: tuple, s) -> tuple:
    """The product ``x_s y`` at any affine ``s``, composed of cfkit's rules:
    ``x`` as a left argument (``d -> -s``) and ``y`` as a right one
    (``d -> d + s``), contracted against the stored constants rewritten at
    ``s``.  cfkit itself multiplies only at ``s = l``."""
    s = MultiPoly.const(0) + s
    n = algebra.rank
    if len(x) != n or len(y) != n:
        raise ValueError("element rank does not match algebra rank")
    require_affine(s)
    return spectral_eval(
        _sparse(algebra.constants, s), n, _at_d(enumerate(x), -s), _at_d(enumerate(y), _PD + s)
    )


def member(sub: Submodule, v: tuple) -> bool:
    """Exact membership by successive division against the pivots."""
    if len(v) != sub.ambient_rank:
        raise ValueError("vector rank does not match ambient rank")
    coords = list(v)
    for c in coords:
        if not c.variables() <= {D}:
            raise ValueError(f"membership is defined for d-vectors only: {c}")
    for row in sub.generators:
        col = next(i for i, e in enumerate(row) if not e.is_zero)
        coords = _reduce(coords, row, col)
        if not coords[col].is_zero:
            return False
    return all(c.is_zero for c in coords)


def reference_det(matrix) -> MultiPoly:
    """The determinant by cofactor expansion along the first row: factorial
    time, so for small matrices only."""
    n = len(matrix)
    if n == 0:
        return MultiPoly.const(1)
    acc = MultiPoly.zero()
    for j, entry in enumerate(matrix[0]):
        if not entry.is_zero:
            minor = tuple(row[:j] + row[j + 1:] for row in matrix[1:])
            acc = acc + (-1) ** j * entry * reference_det(minor)
    return acc


def reference_hermite_normal_form(matrix) -> tuple:
    """The Hermite form column by column over every row at once: in each
    column the row of least-degree entry becomes the pivot and reduces the
    rows below it until they are zero there, then the pivot is made monic
    and reduces the rows above it."""
    rows = [list(r) for r in matrix if any(not e.is_zero for e in r)]
    if not rows:
        return ()
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    pivot = 0
    for col in range(ncols):
        if pivot >= len(rows):
            break
        while True:
            live = [r for r in range(pivot, len(rows)) if not rows[r][col].is_zero]
            if not live:
                break
            best = min(live, key=lambda r: poly_deg(rows[r][col]))
            rows[pivot], rows[best] = rows[best], rows[pivot]
            for r in range(pivot + 1, len(rows)):
                rows[r] = _reduce(rows[r], rows[pivot], col)
            if all(rows[r][col].is_zero for r in range(pivot + 1, len(rows))):
                break
        if rows[pivot][col].is_zero:
            continue
        lead = rows[pivot][col].leading()[1]
        if lead != 1:
            rows[pivot] = [x / lead for x in rows[pivot]]
        for r in range(pivot):
            rows[r] = _reduce(rows[r], rows[pivot], col)
        pivot += 1
    return tuple(tuple(r) for r in rows[:pivot] if any(not e.is_zero for e in r))


def random_unimodular(rng, n):
    """Product of elementary operations: always unit determinant."""
    one, zero = MultiPoly.const(1), MultiPoly.zero()
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(6):
        kind = rng.randint(0, 2)
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if kind == 0 and i != j:
            factor = MultiPoly.const(rng.randint(-2, 2)) + rng.randint(-1, 1) * _PD
            rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            unit = Fraction(rng.choice([1, -1, 2, Fraction(1, 2)]))
            rows[i] = [unit * a for a in rows[i]]
        elif i != j:
            rows[i], rows[j] = rows[j], rows[i]
    return tuple(tuple(r) for r in rows)


def change_basis(algebra, change):
    """Rewrite the product table in the basis given by the rows of ``change``.

    The change matrix must be invertible over the d-polynomial ring, i.e.
    have nonzero constant determinant; its inverse is then polynomial.
    """
    n = algebra.rank
    det = poly_det(change).constant_value()
    if det in (None, Fraction(0)):
        raise ValueError("basis change must have unit determinant")
    # adjugate / det gives the exact polynomial inverse
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(change[r][c] for c in range(n) if c != i)
                for r in range(n)
                if r != j
            )
            sign = 1 if (i + j) % 2 == 0 else -1
            row.append(sign * poly_det(minor) / det)
        inv.append(tuple(row))
    inv = tuple(inv)
    table = []
    for i in range(n):
        gi = change[i]
        row = []
        for j in range(n):
            gj = change[j]
            prod = product_at(algebra, gi, gj, MultiPoly.var(L1))
            # express the product in the new basis: coords . inv
            coords = tuple(
                sum(
                    (prod[k] * inv[k][t] for k in range(n)),
                    MultiPoly.zero(),
                )
                for t in range(n)
            )
            row.append(coords)
        table.append(tuple(row))
    return ConformalAlgebra(algebra.kind, algebra.basis, entries(table))


def reference_compile(residuals, unknowns, pair_names, coord_names) -> ConstraintSystem:
    """``constraints._compile`` by decoding: each term of a residual
    coordinate goes to the bucket of its monomial's (d, l) part, the rest of
    the monomial keyed inside it, and each bucket is packed back into a
    polynomial; buckets come by descending total degree, then by their
    ``(variable, exponent)`` tuples, descending."""
    equations: list[Equation] = []
    seen: set[MultiPoly] = set()
    for i, j, residual in residuals:
        for k, coord in enumerate(residual):
            buckets: dict[tuple, dict] = {}
            for mono, coeff in coord.terms():
                dl = tuple((v, e) for v, e in mono if v in (D, L1))
                rest = tuple((v, e) for v, e in mono if v not in (D, L1))
                buckets.setdefault(dl, {})[rest] = coeff
            for dl in sorted(
                buckets, key=lambda m: (sum(e for _, e in m), m), reverse=True
            ):
                eq_poly = MultiPoly(buckets[dl])
                if eq_poly.is_zero:
                    continue
                if not all(is_unknown(v) for v in eq_poly.variables()):
                    raise AssertionError("collected equation still has d/l variables")
                if eq_poly.degree() > 2:
                    raise AssertionError("compiled equations must be quadratic")
                eq_poly = _normalize(eq_poly)
                if eq_poly in seen:
                    continue
                seen.add(eq_poly)
                equations.append(
                    Equation(
                        eq_poly,
                        Provenance(
                            pair_names[i], pair_names[j], coord_names[k],
                            str(MultiPoly({dl: 1})),
                        ),
                    )
                )
    return ConstraintSystem(tuple(unknowns), tuple(equations))
