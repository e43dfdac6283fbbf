"""Compile quadratic identities into exact equations over ansatz unknowns.

Each candidate map entry is a d-polynomial with undetermined rational
coefficients ``u0, u1, ...``.  Running an identity symbolically and
collecting the coefficient of every (d, l)-monomial of every residual
coordinate yields a finite system of polynomial equations in the unknowns
alone.  Each coefficient is read off ``coefficient_list(D)`` and then
``coefficient_list(L1)``, already a polynomial in the unknowns, and a
coordinate's equations come by descending total degree t, each degree's l^t
first, then descending powers of d.  This subsumes ad-hoc specializations
like setting the spectral variable to zero or comparing degrees: every such
consequence is one of the collected coefficients.  Two identities are
compiled: the deformation identity of a candidate map, and the morphism
identity of a diagonal automorphism between two deformed algebras, which is
how :func:`search_equivalence_diagonal` looks for equivalence witnesses.

Solving is deliberately modest: repeated elimination through equations that
are degree one in some unknown with a constant leading coefficient, capped
in the terms its substitutions form, then an exhaustive search of a finite
rational grid, capped in the number of residual unknowns, in the number of
grid points and in the cells of the power tables its integer forms read.
The search is exact integer arithmetic: each equation is cleared to an
integer form, every unknown by its own value's denominator, so no integer
outgrows the values visited, and each is tested once, on the prefix of the
point that assigns its last unknown, so a failing prefix prunes every point
that extends it.  The point budget still counts every point of the grid,
|values|^k, pruned or not, and is checked before any value is built:
:func:`grid_values` counts the grid without listing it.  So is the table
budget, which the equations' exponents alone determine.  Residual nonlinear
systems are reported as-is; non-existence claims never extend beyond the
searched grid.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .actions import MatchedPair
from .deform import (
    DeformationMap,
    Matrix,
    Morphism,
    _graph,
    _morphism_residuals,
    deformed_algebra,
)
from .dsl import parse_poly_text
from .poly import (
    D,
    L1,
    CapExceeded,
    MultiPoly,
    is_unknown,
    scalar_text,
    unknown,
    var_name,
)

Assignment = dict[int, Fraction]


#: Most grid points one search may cover, counted as |values|^k whether or
#: not pruning skips them: 400 times the corpus's largest search, 7^4 = 2401
#: points.
MAX_GRID_POINTS = 10**6

#: Most terms one elimination may form in the powers of its replacements,
#: bounded before each step.  The corpus's largest count is 223; one of
#: 11 238 513 took 71 s and 1.7 GB (Python 3.11, 2-core x86 host).
MAX_SUBSTITUTION_CELLS = 10**6

#: Most residual unknowns a grid search takes by default.
MAX_UNKNOWNS = 6

#: Most power-table cells one search may build, each weighted by its
#: exponent e, since a cell n^a q^(e - a) has about e times the bits of a
#: value.  Every quadratic system stays inside it at the full point budget:
#: its tables have the shapes 0 <= a <= e <= 2, e >= 1, of total weight 8.
MAX_TABLE_CELLS = 8 * MAX_GRID_POINTS


@dataclass(frozen=True)
class AnsatzSpec:
    """One bound on the d-degree of every entry of the candidate map.

    The map sends each of ``q_rank`` Q-generators to the ``r_rank``
    R-generators.  Unknowns are numbered row-major, low powers first, so
    entry ``(j, i)`` has the ``degree + 1`` unknowns from
    ``(j * r_rank + i) * (degree + 1)`` on.
    """

    q_rank: int
    r_rank: int
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree bound must be non-negative")

    @classmethod
    def uniform(cls, q_rank: int, r_rank: int, degree: int) -> "AnsatzSpec":
        return cls(q_rank, r_rank, degree)

    def _offset(self, j: int, i: int) -> int:
        return (j * self.r_rank + i) * (self.degree + 1)

    @property
    def unknowns(self) -> tuple[int, ...]:
        count = self.q_rank * self.r_rank * (self.degree + 1)
        return tuple(unknown(k) for k in range(count))

    def symbolic_matrix(self) -> Matrix:
        """The candidate map: entry ``(j, i)`` is the sum of its unknowns
        times ``d^0``, ``d^1``, ... in turn."""
        return tuple(
            tuple(
                MultiPoly({
                    (((D, t),) if t else ()) + ((unknown(self._offset(j, i) + t), 1),): 1
                    for t in range(self.degree + 1)
                })
                for i in range(self.r_rank)
            )
            for j in range(self.q_rank)
        )

    def coefficients_of(self, dm: DeformationMap) -> Assignment:
        """Read a concrete map's entries off as an assignment of the unknowns."""
        shape = (dm.pair.Q.rank, dm.pair.R.rank)
        if shape != (self.q_rank, self.r_rank):
            raise ValueError(
                f"map shape {shape[0]}x{shape[1]} does not match"
                f" the ansatz shape {self.q_rank}x{self.r_rank}"
            )
        out: Assignment = {}
        for j in range(self.q_rank):
            for i in range(self.r_rank):
                coeffs = dm.matrix[j][i].coefficient_list(D)
                if len(coeffs) > self.degree + 1:
                    raise ValueError("map entry degree exceeds the ansatz bound")
                for t in range(self.degree + 1):
                    value = (
                        coeffs[t].constant_value() if t < len(coeffs) else Fraction(0)
                    )
                    if value is None:
                        raise ValueError("map entries must be d-polynomials")
                    out[unknown(self._offset(j, i) + t)] = value
        return out


@dataclass(frozen=True)
class Provenance:
    """Where an equation came from: Q-pair, output coordinate, (d, l) monomial."""

    left: str
    right: str
    coord: str
    monomial: str


@dataclass(frozen=True)
class Equation:
    poly: MultiPoly
    provenance: Provenance


@dataclass(frozen=True)
class ConstraintSystem:
    """Equations in the listed unknowns, each listed once; an equation may
    mention no other variable, ``d`` and ``l`` included."""

    unknowns: tuple[int, ...]
    equations: tuple[Equation, ...]

    def __post_init__(self):
        listed = set(self.unknowns)
        if len(listed) != len(self.unknowns):
            twice = next(v for v in self.unknowns if self.unknowns.count(v) > 1)
            raise ValueError(f"unknown {var_name(twice)} is listed twice")
        for eq in self.equations:
            stray = sorted(eq.poly.variables() - listed)
            if stray:
                raise ValueError(
                    f"equation {eq.poly} mentions {var_name(stray[0])},"
                    " which is not an unknown of the system"
                )

    def unknown_names(self) -> tuple[str, ...]:
        return tuple(var_name(v) for v in self.unknowns)


def _normalize(poly: MultiPoly) -> MultiPoly:
    lead = poly.leading()[1]
    return poly if lead == 1 else poly / lead


def _compile(residuals, unknowns, pair_names, coord_names) -> ConstraintSystem:
    """Collect every (d, l)-monomial coefficient of every residual coordinate
    as a normalized equation in the unknowns, dropping repeats.  A residual
    ``(i, j, coords)`` comes from the pair of generators ``pair_names[i]``,
    ``pair_names[j]``.  The coefficient of d^a l^b is read off
    ``coefficient_list(D)``, then ``coefficient_list(L1)``, and the equations
    of a coordinate come in descending ``(a + b, a == 0, a)``."""
    equations: list[Equation] = []
    seen: set[MultiPoly] = set()
    for i, j, residual in residuals:
        for k, coord in enumerate(residual):
            split = [
                (a, b, part)
                for a, by_d in enumerate(coord.coefficient_list(D))
                for b, part in enumerate(by_d.coefficient_list(L1))
                if part
            ]
            split.sort(key=lambda p: (p[0] + p[1], p[0] == 0, p[0]), reverse=True)
            for a, b, eq_poly in split:
                if not all(is_unknown(v) for v in eq_poly.variables()):
                    raise AssertionError("collected equation still has d/l variables")
                if eq_poly.degree() > 2:
                    raise AssertionError("compiled equations must be quadratic")
                eq_poly = _normalize(eq_poly)
                if eq_poly in seen:
                    continue
                seen.add(eq_poly)
                monomial = str(MultiPoly.var(D, a) * MultiPoly.var(L1, b))
                provenance = Provenance(pair_names[i], pair_names[j], coord_names[k], monomial)
                equations.append(Equation(eq_poly, provenance))
    return ConstraintSystem(tuple(unknowns), tuple(equations))


def compile_deformation_constraints(
    mp: MatchedPair, ansatz: AnsatzSpec
) -> ConstraintSystem:
    """Compile the deformation identity over the ansatz.

    The resulting equations mention the unknowns only and have total degree
    at most two, because the identity is quadratic in the candidate map.
    The system is empty exactly when every map inside the ansatz passes.
    """
    if ansatz.q_rank != mp.Q.rank or ansatz.r_rank != mp.R.rank:
        raise ValueError("ansatz shape does not match the matched pair")
    _, residuals = _graph(mp, ansatz.symbolic_matrix())
    return _compile(residuals, ansatz.unknowns, mp.Q.basis, mp.R.basis)


def verify_assignment(system: ConstraintSystem, assignment: Assignment) -> bool:
    """True iff every equation evaluates to exactly zero."""
    for var in system.unknowns:
        if var not in assignment:
            raise ValueError(f"assignment is missing {var_name(var)}")
    return all(eq.poly.evaluate(assignment) == 0 for eq in system.equations)


@dataclass(frozen=True)
class SubstitutionRecord:
    var: int
    replacement: MultiPoly
    provenance: Provenance


@dataclass
class EliminationResult:
    system: ConstraintSystem
    assignment: Assignment
    records: list[SubstitutionRecord] = field(default_factory=list)
    unsatisfiable: Provenance | None = None

    def extend(self, partial: Assignment) -> Assignment:
        """Complete a solution of the residual system to one of the original."""
        return _back_substitute(self.records, {**partial, **self.assignment})


def _back_substitute(records: list[SubstitutionRecord], known: Assignment) -> Assignment:
    """Add to ``known`` every eliminated unknown whose replacement evaluates
    to a constant.  A replacement never mentions an unknown eliminated before
    it, so one pass, last record first, resolves every chain that can be."""
    full = dict(known)
    for record in reversed(records):
        if record.var not in full and record.replacement.variables() <= full.keys():
            full[record.var] = record.replacement.evaluate(full)
    return full


def linear_eliminate(system: ConstraintSystem) -> EliminationResult:
    """Repeatedly solve equations that are degree one in some unknown.

    An equation qualifies when the chosen unknown appears to degree exactly
    one and its coefficient is a nonzero rational constant; the unknown is
    then replaced everywhere by the rest of the equation, which may still
    mention other unknowns.  Unknowns whose substitution chain resolves to a
    constant are additionally reported as a partial assignment.  An equation
    reducing to a nonzero constant marks the system unsatisfiable, whether
    it is given so or a substitution makes it one.

    A replacement of T terms, substituted for an unknown of degree e,
    forms powers holding at most C(e + T, T) terms.  These bounds are
    summed, before each step, over every equation holding the unknown and
    across the whole elimination; :class:`CapExceeded` refuses the step
    that takes the sum past :data:`MAX_SUBSTITUTION_CELLS`.
    """
    equations = list(system.equations)
    known = list(system.unknowns)
    records: list[SubstitutionRecord] = []
    cells = 0
    unsat = next((eq.provenance for eq in equations if eq.poly.constant_value()), None)
    while unsat is None:
        target = None
        for eq in equations:
            for var in sorted(eq.poly.variables()):
                split = eq.poly.coefficient_list(var)
                if len(split) != 2:
                    continue
                lead = split[1].constant_value()
                if lead is None or lead == 0:
                    continue
                target = (eq, var, -split[0] / lead)
                break
            if target:
                break
        if not target:
            break
        eq, var, replacement = target
        width = len(list(replacement.terms()))
        for other in equations:
            top = other.poly.degree(var)
            if top > 0:
                cells += comb(top + width, width)
        if cells > MAX_SUBSTITUTION_CELLS:
            raise CapExceeded(
                f"substituting for {var_name(var)} takes the elimination to"
                f" {cells} power terms, over the budget of {MAX_SUBSTITUTION_CELLS}"
            )
        records.append(SubstitutionRecord(var, replacement, eq.provenance))
        known.remove(var)
        updated: list[Equation] = []
        seen: set[MultiPoly] = set()
        for other in equations:
            poly = other.poly.substitute(var, replacement)
            if poly.is_zero:
                continue
            if not poly.variables():
                unsat = other.provenance
                updated.append(Equation(_normalize(poly), other.provenance))
                continue
            poly = _normalize(poly)
            if poly in seen:
                continue
            seen.add(poly)
            updated.append(Equation(poly, other.provenance))
        equations = updated
    return EliminationResult(
        ConstraintSystem(tuple(known), tuple(equations)),
        _back_substitute(records, {}),
        records,
        unsat,
    )


class _Grid(Sequence):
    """The distinct fractions with numerator in -N..N and denominator 1..Dmax,
    in increasing order.

    The length is counted without listing the values, so a search checks its
    point budget before any value is built; the values are listed once, on
    first access.
    """

    def __init__(self, num_bound: int, den_bound: int):
        if num_bound < 0 or den_bound < 1:
            raise ValueError("invalid grid bounds")
        self.num_bound, self.den_bound = num_bound, den_bound

    @cached_property
    def _size(self) -> int:
        # 0, and +-n/q for the coprime pairs 1 <= n <= N, 1 <= q <= Dmax; by
        # Moebius inversion there are sum_{k <= min(N, Dmax)} mu(k)
        # floor(N/k) floor(Dmax/k) of those
        num, den = self.num_bound, self.den_bound
        if num and num + den - 1 > MAX_GRID_POINTS // 2:
            # +-n/1 and +-1/q alone give 1 + 2 (N + Dmax - 1) values: more
            # than any search may visit.  Past this check min(N, Dmax) is at
            # most MAX_GRID_POINTS / 4, so the sieve stays small and the
            # count fits an index
            raise CapExceeded(
                f"a grid of numerators up to {num} and denominators up to {den}"
                f" has more than {MAX_GRID_POINTS} values"
            )
        top = min(num, den)
        mu = [1] * (top + 1)
        prime = [True] * (top + 1)
        pairs = 0
        for k in range(1, top + 1):
            if k > 1 and prime[k]:
                for j in range(k, top + 1, k):
                    prime[j] = False
                    mu[j] = -mu[j]
                for j in range(k * k, top + 1, k * k):
                    mu[j] = 0
            pairs += mu[k] * (num // k) * (den // k)
        return 1 + 2 * pairs

    @cached_property
    def _values(self) -> tuple[Fraction, ...]:
        # two distinct values whose denominators are at most Dmax differ by at
        # least 1/Dmax^2 > 2^-shift, so floor(p/q * 2^shift) orders the
        # positive values exactly, in integers
        shift = 2 * self.den_bound.bit_length()
        keyed = sorted(
            ((p << shift) // q, p, q)
            for p in range(1, self.num_bound + 1)
            for q in range(1, self.den_bound + 1)
            if gcd(p, q) == 1
        )
        positive = [Fraction(p, q) for _, p, q in keyed]
        return (*[-v for v in reversed(positive)], Fraction(0), *positive)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._values[index]

    def __iter__(self):
        return iter(self._values)

    def __contains__(self, value) -> bool:
        return (
            isinstance(value, (int, Fraction))
            and value.denominator <= self.den_bound
            and abs(value.numerator) <= self.num_bound
        )


def grid_values(num_bound: int, den_bound: int) -> Sequence[Fraction]:
    """All distinct fractions with numerator in -N..N and denominator 1..Dmax,
    in increasing order: a sequence that is counted before it is listed."""
    return _Grid(num_bound, den_bound)


def _check_grid(k: int, size: int, cap: int) -> None:
    """Refuse a search of ``k`` unknowns over ``size`` values past the cap on
    unknowns or the point budget."""
    if k > cap:
        raise CapExceeded(
            f"{k} unknowns exceed the exhaustive-search cap of {cap}"
        )
    if size**k > MAX_GRID_POINTS:
        raise CapExceeded(
            f"{size}^{k} grid points exceed the exhaustive-search budget"
            f" of {MAX_GRID_POINTS}"
        )


def _integer_form(poly: MultiPoly, place: dict[int, int]):
    """``poly`` as ``(coefficient, factors)`` terms whose sum is zero at a
    grid point exactly when ``poly`` vanishes there.

    Each unknown v is cleared by its own value's denominator: if v reaches
    degree e in ``poly``, a term holding it to power a is scaled by
    q^(e - a) at v = n/q, so the sum is ``poly``'s numerator sum times the
    positive product of every q^e.  ``factors`` pairs the unknown's position
    in the point with the shape ``(a, e)`` of the table of n^a q^(e - a)
    over the value indices.  Also returns the stage of ``poly``: one past
    the last position of its unknowns, 0 if it has none.
    """
    tops = {v: poly.degree(v) for v in sorted(poly.variables())}
    terms = list(poly.terms())
    # the lcm of the denominators is the common one that ``poly`` stores
    den = lcm(*(coeff.denominator for _, coeff in terms))
    form = []
    for mono, coeff in terms:
        held = dict(mono)
        factors = tuple((place[v], (held.get(v, 0), e)) for v, e in tops.items())
        form.append((int(coeff * den), factors))
    return form, max((place[v] + 1 for v in tops), default=0)


def _satisfies(stage, point: tuple[int, ...]) -> bool:
    """True iff every integer form of ``stage`` sums to zero at the point of
    value indices ``point``."""
    for form in stage:
        total = 0
        for coeff, factors in form:
            for p, table in factors:
                coeff *= table[point[p]]
            total += coeff
        if total:
            return False
    return True


def grid_search(
    system: ConstraintSystem,
    values: Sequence[Fraction],
    cap: int = MAX_UNKNOWNS,
) -> list[Assignment]:
    """Every assignment of the system's unknowns from ``values`` that solves
    it, in the order of ``itertools.product(values, repeat=k)``.

    Points are walked as prefixes, first unknown slowest.  Each equation is
    tested once, on every prefix that has just assigned the last of its
    unknowns, in the integer form of :func:`_integer_form`; constant
    equations are tested once, before the walk.  Every integer met is a
    product of the equation's coefficients and powers of the visited
    values' own numerators and denominators.
    """
    k = len(system.unknowns)
    # with no unknowns there is one point, (), and no value is counted or listed
    size = len(values) if k else 0
    _check_grid(k, size, cap)
    place = {var: p for p, var in enumerate(system.unknowns)}
    forms = [_integer_form(eq.poly, place) for eq in system.equations]
    shapes = {shape for form, _ in forms for _, factors in form for _, shape in factors}
    weight = sum(e for _, e in shapes)
    if size * weight > MAX_TABLE_CELLS:
        raise CapExceeded(
            f"{size}*{weight} power-table cells exceed the exhaustive-search"
            f" budget of {MAX_TABLE_CELLS}"
        )
    values = tuple(values) if k else ()
    tables = {}
    for a, e in shapes:
        table = [v.numerator**a * v.denominator ** (e - a) for v in values]
        # an all-ones table is left out of the forms
        tables[a, e] = None if all(x == 1 for x in table) else table
    # stage s holds the equations whose last unknown is the s-th; stage 0 the
    # constant ones
    stages: list[list] = [[] for _ in range(k + 1)]
    for form, stage in forms:
        stages[stage].append([
            (num, tuple((p, tables[shape]) for p, shape in factors if tables[shape]))
            for num, factors in form
        ])
    points = [()] if _satisfies(stages[0], ()) else []
    indices = range(len(values))
    for stage in stages[1:]:
        points = [
            point
            for prefix in points
            for i in indices
            if _satisfies(stage, point := prefix + (i,))
        ]
    return [dict(zip(system.unknowns, [values[i] for i in point])) for point in points]


def search_equivalence_diagonal(
    mp: MatchedPair,
    phi: DeformationMap,
    psi: DeformationMap,
    values: Sequence[Fraction],
) -> list[Morphism]:
    """Diagonal module automorphisms of Q with entries from the nonzero
    ``values`` that are morphisms from the algebra deformed by ``phi`` to the
    one deformed by ``psi``, in grid order.

    The morphism identity over ``diag(u0, ..., u_{n-1})`` is compiled,
    eliminated and grid-searched, so :class:`CapExceeded` bounds the
    work.  An empty result means "not found within the searched family".
    """
    n = mp.Q.rank
    unknowns = tuple(unknown(k) for k in range(n))

    def diagonal(entries):
        return tuple(
            tuple(entries[i] if i == j else MultiPoly.zero() for j in range(n))
            for i in range(n)
        )

    source, target = deformed_algebra(mp, phi), deformed_algebra(mp, psi)
    symbolic = diagonal([MultiPoly.var(u) for u in unknowns])
    residuals = _morphism_residuals(source, target, symbolic)
    basis = mp.Q.basis
    elimination = linear_eliminate(_compile(residuals, unknowns, basis, basis))
    if elimination.unsatisfiable is not None:
        return []
    # the budget of the search below, checked before the values are listed
    nonzero_count = len(values) - (0 in values)
    _check_grid(len(elimination.system.unknowns), nonzero_count, MAX_UNKNOWNS)
    nonzero = tuple(v for v in values if v != 0)
    index = {v: k for k, v in enumerate(nonzero)}
    found = []
    for partial in grid_search(elimination.system, nonzero):
        full = elimination.extend(partial)
        if all(full[u] in index for u in unknowns):
            found.append([index[full[u]] for u in unknowns])
    return [
        Morphism(source, target, diagonal([MultiPoly.const(nonzero[k]) for k in ks]))
        for ks in sorted(found)
    ]


# -- JSON round trip ---------------------------------------------------------


def system_to_json(system: ConstraintSystem) -> dict:
    return {
        "unknowns": list(system.unknown_names()),
        "equations": [
            {"poly": str(eq.poly), "provenance": asdict(eq.provenance)}
            for eq in system.equations
        ],
    }


def system_from_json(data: dict) -> ConstraintSystem:
    unknowns = []
    for name in data["unknowns"]:
        if not name.startswith("u") or not name[1:].isdecimal():
            raise ValueError(f"bad unknown name {name!r}")
        unknowns.append(unknown(int(name[1:])))
    equations = []
    for item in data["equations"]:
        prov = item["provenance"]
        equations.append(
            Equation(
                parse_poly_text(item["poly"]),
                Provenance(prov["left"], prov["right"], prov["coord"], prov["monomial"]),
            )
        )
    return ConstraintSystem(tuple(unknowns), tuple(equations))


def assignment_text(assignment: Assignment) -> dict[str, str]:
    return {
        var_name(var): scalar_text(value)
        for var, value in sorted(assignment.items())
    }
