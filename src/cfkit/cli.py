"""Command-line front end emitting deterministic JSON reports.

One argparse tree, built at import, parses every call; ``main`` runs the
handler the subcommand names and owns the report's lifecycle: the clock,
the exit code, the ``--json`` file and the printed check lines.  Handlers
only fill in the report they are given and return nothing; the exit code is
read off the finished report.

``check`` takes each declaration in document order, and decides each
table's axioms at most once.  An algebra whose table equals the twisted
table of a map that passed on a pair that passed, both earlier in the same
call, is certified by the graph theorem instead of re-walking its axioms.
A pair whose bicrossed product equals an algebra that passed earlier, and an
algebra equal to the bicrossed product of a pair that passed earlier, are
certified by that earlier check (proofs at :func:`cmd_check`).  Each
certified entry is the one the full check would give.

Exit codes: 0 all checks passed, 1 a semantic check failed, 2 bad input
(parse or reference errors, an exponent, a power's or product's degree, a
numeric literal, an unknown's index or an expression's nesting of
parentheses and unary signs over the parser's caps, an unknown's index over
the cap in a ``solve`` system, a ``solve`` file nested too deeply for
``json`` to read, a ``--param`` value with an exponent or more digits than
the literal cap, a ``--param`` name the document never uses, or an integer
option below its least value, or a file that is not UTF-8, or an
``equiv --alpha`` witness that is not a square, invertible map of Q, a
``deform`` or ``equiv`` map not defined on ``--pair``, or a ``--json`` or
``-o`` path that cannot be written), 3 a resource cap was exceeded (a table
coefficient over the (d, l)-degree budget, a ``constraints --degree`` over
its budget, a ``constraints`` ansatz with more unknowns than the index cap
allows, the elimination's substitution budget, the grid-search unknown cap,
point budget or power-table budget in ``solve`` and ``equiv``, a monomial
over the polynomial degree guard, or a ``structure --max-depth`` below the
derived steps its verdict needs).
Every cap raises :class:`cfkit.poly.CapExceeded`, whose message is printed
to stderr and kept as the report's ``error``, so exit 3 is exactly a report
with an ``error``; a capped ``structure`` report also keeps its ``unknown``
verdict and the derived series walked.
Reports are byte-identical across runs for identical inputs, except for the
``timings`` field, which golden comparisons drop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import constraints as cons
from . import deform as dfm
from . import structure as struct
from .actions import check_b1_b2_direct, check_matched_pair
from .algebra import (
    LIE, CheckReport, ConformalAlgebra, _violations, check_axioms, element_text,
)
from .dsl import (
    MAX_DIGITS, Document, Item, ParseError, item_tables, serialize, try_parse,
)
from .poly import MAX_UNKNOWN, CapExceeded, scalar_text

SCHEMA = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

#: Largest (d, l)-degree a table coefficient may have for the CLI to check
#: it.  Every check multiplies entries through the kernel, and its cost
#: climbs steeply with their degree: ``check_axioms`` on a rank-one Lie table
#: whose one entry is ``(d+l+1)^16`` takes about 0.07 s, and with
#: ``(d+l+1)^24`` about 0.5 s (Python 3.11.7, shared 2-core x86 host, least
#: CPU time of three runs).
MAX_ENTRY_DEGREE = 16

#: Largest ``constraints --degree``.  The ansatz's unknowns grow with it,
#: and compilation and elimination climb steeply: on ``sv``'s pair SVP at
#: a = b = 0, degree 4 takes 0.14-0.21 s, degree 6 0.65-1.1 s and degree 8
#: 3.2-3.8 s over two rounds, and degree 16 91 s in one run (CPU time,
#: Python 3.11.7, shared 2-core x86 host).  The corpus uses at most 2.
MAX_ANSATZ_DEGREE = 4


class _InputError(Exception):
    pass


def _write(path: str, text: str) -> None:
    """Write an output file, refused as input when the path cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}")


def _parse_params(pairs: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise _InputError(f"bad --param {pair!r}, expected NAME=RATIONAL")
        # Fraction() expands an exponent into all of its digits, so a value
        # is held to the parser's literal cap before it is converted
        try:
            if "e" in value.lower() or sum(ch.isdigit() for ch in value) > MAX_DIGITS:
                raise ValueError
            params[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _InputError(f"bad rational {value!r} in --param {pair!r}")
    return params


def _inputs(report: dict, files: dict[str, str], params: dict[str, Fraction]) -> None:
    report["inputs"] = {
        name: "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in files.items()
    }
    report["params"] = {k: scalar_text(v) for k, v in sorted(params.items())}


def _load(args, report: dict) -> Document:
    """Parse ``args.file`` under its ``--param`` bindings into the report."""
    params = _parse_params(args.param)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {args.file}: {exc}")
    document, diagnostics = try_parse(text, params)
    if document is None:
        raise _InputError("\n".join(f"{args.file}:{d.text()}" for d in diagnostics))
    unused = sorted(set(params) - document.used_params)
    if unused:
        raise _InputError(
            f"{args.file}: --param {', '.join(unused)} is neither declared nor read"
        )
    _inputs(report, {Path(args.file).name: text}, params)
    _require_degree_budget(document)
    return document


def _require_degree_budget(document: Document) -> None:
    """Refuse a table coefficient over the (d, l)-degree budget, naming its
    declaration and entry, before any check multiplies table entries.  Only
    the degrees of the stored constants are read; nothing is multiplied."""
    for item in document.items:
        for constants, spell, left, right, _ in item_tables(item):
            for i, row in enumerate(constants):
                for j, pairs in row.items():
                    degree = max(coeff.degree() for _, coeff in pairs)
                    if degree > MAX_ENTRY_DEGREE:
                        raise CapExceeded(
                            f"{item.kind} {item.name}: {spell.format(left[i], right[j])}"
                            f" has (d, l)-degree {degree},"
                            f" over the budget of {MAX_ENTRY_DEGREE}"
                        )


def _find(document: Document, kind: str, name: str):
    try:
        return document.find(kind, name)
    except KeyError as exc:
        raise _InputError(exc.args[0])


def _defmap(document: Document, name: str, pair, pair_name: str):
    """The defmap ``name``, refused as input unless it is defined on ``pair``."""
    mapping = _find(document, "defmap", name)
    if mapping.pair != pair:
        raise _InputError(f"map {name!r} is not defined on pair {pair_name!r}")
    return mapping


def _entry(name: str, report: CheckReport, **extra) -> dict:
    violations = [
        {
            "identity": v.identity,
            "indices": list(v.indices),
            "residual": element_text(v.residual, v.basis),
        }
        for v in report.violations
    ]
    return {"name": name, "status": report.status, "violations": violations, **extra}


def _message_entry(name: str, ok: bool, identity: str, message: str) -> dict:
    """An entry whose one violation is a message, not a residual."""
    violations = [] if ok else [{"identity": identity, "indices": [], "residual": message}]
    return {"name": name, "status": "pass" if ok else "fail", "violations": violations}


def _item_checks(kind: str, name: str, value, proven: bool = False):
    """The check entries of one declaration; a ``proven`` algebra or pair,
    one whose table :func:`cmd_check` has certified, takes the passing
    report every check of it would give, and forms no table to get it."""
    if kind == "algebra":
        yield _entry(f"axioms:{name}", CheckReport() if proven else check_axioms(value))
    elif kind == "matched":
        normative = CheckReport() if proven else check_matched_pair(value)
        yield _entry(f"matched_pair:{name}", normative)
        if value.kind == LIE:
            direct = CheckReport() if proven else check_b1_b2_direct(value)
            agree = direct.passed == normative.passed
            yield _entry(f"cross_compat_direct:{name}", direct, convention_match=agree)
            if not agree:
                yield _message_entry(
                    f"convention-mismatch:{name}", False, "convention-mismatch",
                    "direct and normative verdicts disagree",
                )
    elif kind == "morphism":
        report = dfm.check_morphism(value)
        yield _entry(
            f"morphism:{name}", report,
            is_isomorphism=report.passed and dfm._is_invertible(value.matrix),
        )
    else:
        raise _InputError(f"{name!r} is not checkable")


def _elimination(result: cons.EliminationResult) -> dict:
    """The elimination fields that ``constraints`` and ``solve`` both report."""
    return {
        "assignment": cons.assignment_text(result.assignment),
        "residual_unknowns": list(result.system.unknown_names()),
        "unsatisfiable": result.unsatisfiable is not None,
    }


def _output(args, report: dict, name: str, algebra, expected) -> None:
    """Serialize a constructed algebra into the report (and ``-o``), then compare
    it with ``expected``, the ``--expect`` declaration found before any write."""
    text = serialize(Document((Item("algebra", name, algebra),)))
    if args.out:
        _write(args.out, text)
    report["output"] = text
    if args.expect:
        report["checks"].append(_message_entry(
            f"expect:{args.expect}", expected == algebra,
            "table-mismatch", "constructed table differs from declaration",
        ))


def _deformation(pair, matrix) -> tuple:
    """The twisted algebra of the map ``matrix`` on ``pair`` and the map's
    deformation report, both read off one :func:`cfkit.deform._graph` pass."""
    entries, residuals = dfm._graph(pair, matrix)
    report = CheckReport(_violations("deformation", pair.R.basis, residuals))
    return ConformalAlgebra(pair.kind, pair.Q.basis, entries), report


def cmd_check(args, report: dict) -> None:
    """Check each declaration, or each named one, in document order.

    An algebra whose kind is a pair's and whose table equals the twisted
    table of a map that passed on that pair, where the map's check and the
    pair's ``matched_pair`` check both passed earlier in this call, passes
    its axioms by the graph theorem (after Agore and Militaru), and is
    reported so without :func:`check_axioms`.  Write ``[g_i _l g_j] =
    (r_ij, q_ij)`` in ``E = R ⋈ Q`` for the graph elements ``g_i = (φe_i,
    e_i)``; ``q`` is the twisted table and the map passes when ``φ(q_ij) =
    r_ij``.

    * ``ι(x) = (φx, x)`` is ``d``-linear, as ``φ`` is, so ``ι(q_ij) =
      (φ(q_ij), q_ij) = [g_i _l g_j]``: ``ι`` carries the twisted product of
      basis vectors to E's product of their images.
    * Both products extend from basis vectors by the same rules, ``d -> -s``
      on the left argument and ``d -> d + s`` on the right, and ``ι``
      commutes with them, being ``d``-linear and blind to ``l`` and ``m``.
      So ``ι([x_s y]) = [ιx_s ιy]`` for all elements and any parameter
      ``s``, nested products included.
    * Skew-symmetry ``[x_l y] + [y_{-l-d} x]``, the Jacobiator and the
      associator are sums of such products.  ``ι`` of each is the same sum
      in E at ``ιx``, ``ιy``, ``ιz``, which is zero because E passed its
      axioms: the pair's check is exactly E's axiom check.  ``ι`` is
      injective, the Q part of ``ιx`` being ``x``, so each is zero in the
      twisted algebra, for either kind.

    :func:`check_axioms` would thus report a pass with no violations, which
    is the entry reported.

    A pair and an algebra also certify each other, in either order, when
    the pair's bicrossed product has the algebra's kind and constants and
    the earlier of the two passed:

    * :func:`check_axioms` reads only an algebra's kind and constants; its
      basis names only label violations.  So two tables of one kind with
      equal constants get reports that differ in labels alone, and both
      pass or neither does.
    * :func:`check_matched_pair` is the report of the bicrossed product's
      axioms, each identity prefixed ``E:``, and
      :func:`check_b1_b2_direct` is a projection of that report's Jacobi
      violations.  Where the product passes, both are passes with no
      violations, so their verdicts agree and ``convention_match`` is true.

    A certified pair joins the pairs that passed, so the maps on it may
    certify their twists.  A declared algebra never certifies another
    declared algebra directly.  The certificates read only reports and
    tables this call has formed; every other algebra or pair, one declared
    before what would certify it included, is checked in full.
    """
    document = _load(args, report)
    # two declarations of different kinds may share a name: each is checked
    if args.names:
        items = []
        for name in args.names:
            named = [item for item in document.items if item.name == name]
            if not named:
                raise _InputError(f"no declaration named {name!r}")
            items += named
    else:
        items = [item for item in document.items if item.kind != "param"]
    matched = []  # the pairs whose matched_pair check passed
    # the (kind, constants) of tables known to pass their axioms, by the
    # kind of declaration each may certify: the twists of maps that passed
    # on a pair in ``matched`` and those pairs' bicrossed products certify
    # algebras, and the algebras that passed certify pairs
    proven = {"algebra": [], "matched": []}
    for item in items:
        kind, name, value = item.kind, item.name, item.value
        if kind == "defmap":
            twisted, deformation = _deformation(value.pair, value.matrix)
            report["checks"].append(_entry(f"deformation_map:{name}", deformation))
            if deformation.passed and any(value.pair is pair for pair in matched):
                proven["algebra"].append((twisted.kind, twisted.constants))
            continue
        table = _table(kind, value)
        entries = list(_item_checks(kind, name, value, table in proven.get(kind, ())))
        report["checks"].extend(entries)
        if entries[0]["status"] == "pass":
            if kind == "algebra":
                proven["matched"].append(table)
            elif kind == "matched":
                matched.append(value)
                proven["algebra"].append(table)


def _table(kind: str, value):
    """The ``(kind, constants)`` whose axioms decide an algebra or a pair
    (its bicrossed product), or None for a morphism."""
    if kind == "algebra":
        return value.kind, value.constants
    if kind == "matched":
        return value.kind, value.bicrossed.constants
    return None


def cmd_bicrossed(args, report: dict) -> None:
    document = _load(args, report)
    pair = _find(document, "matched", args.pair)
    expected = args.expect and _find(document, "algebra", args.expect)
    report["checks"].extend(_item_checks("matched", args.pair, pair))
    _output(args, report, f"{args.pair}_E", pair.bicrossed, expected)


def cmd_deform(args, report: dict) -> None:
    document = _load(args, report)
    pair = _find(document, "matched", args.pair)
    mapping = _defmap(document, args.map, pair, args.pair)
    expected = args.expect and _find(document, "algebra", args.expect)
    twisted, deformation = _deformation(pair, mapping.matrix)
    report["checks"].append(_entry(f"deformation_map:{args.map}", deformation))
    if deformation.passed:
        # the graph is a subalgebra exactly when the map passes
        report["checks"].append(_entry(f"graph_embedding:{args.map}", deformation))
    # the deformed table is still produced on failure, for diagnostics
    _output(args, report, f"{args.map}_Q", twisted, expected)


def cmd_constraints(args, report: dict) -> None:
    document = _load(args, report)
    pair = _find(document, "matched", args.pair)
    if args.degree > MAX_ANSATZ_DEGREE:
        raise CapExceeded(
            f"--degree {args.degree} is over the budget of {MAX_ANSATZ_DEGREE}"
        )
    count = pair.Q.rank * pair.R.rank * (args.degree + 1)
    if count > MAX_UNKNOWN + 1:
        raise CapExceeded(
            f"the ansatz needs {count} unknowns, over the cap of {MAX_UNKNOWN + 1}"
            f" (u0 to u{MAX_UNKNOWN})"
        )
    ansatz = cons.AnsatzSpec.uniform(pair.Q.rank, pair.R.rank, args.degree)
    system = cons.compile_deformation_constraints(pair, ansatz)
    system_json = cons.system_to_json(system)
    report["system"] = system_json
    elimination = cons.linear_eliminate(system)
    # an equation that elimination left unchanged is the same object, so its
    # text is the one already rendered for the system
    texts = {
        id(eq.poly): item["poly"]
        for eq, item in zip(system.equations, system_json["equations"])
    }
    report["elimination"] = {
        **_elimination(elimination),
        "records": [
            {"unknown": cons.var_name(rec.var), "replacement": str(rec.replacement)}
            for rec in elimination.records
        ],
        "residual_equations": [
            texts.get(id(eq.poly)) or str(eq.poly) for eq in elimination.system.equations
        ],
    }
    if args.out:
        _write(args.out, json.dumps(system_json, indent=2, sort_keys=True) + "\n")
    print(f"constraints:{args.pair}: {len(system.equations)} equations")


def cmd_solve(args, report: dict) -> None:
    try:
        data = json.loads(Path(args.system).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"cannot read system {args.system}: {exc}")
    if isinstance(data, dict) and "system" in data:
        data = data["system"]
    try:
        system = cons.system_from_json(data)
    except (KeyError, TypeError, AttributeError, ValueError, ParseError) as exc:
        raise _InputError(f"bad system {args.system}: {type(exc).__name__}: {exc}")
    _inputs(report, {Path(args.system).name: json.dumps(data)}, {})
    elimination = cons.linear_eliminate(system)
    report["elimination"] = _elimination(elimination)
    solutions = []
    # a refuted system has no solution to search for, whatever its size
    if elimination.unsatisfiable is None:
        values = cons.grid_values(args.grid_num, args.grid_den)
        partials = cons.grid_search(elimination.system, values, cap=args.cap)
        solutions = [cons.assignment_text(elimination.extend(p)) for p in partials]
    report["solutions"] = solutions
    report["grid"] = {"num": args.grid_num, "den": args.grid_den}
    print(f"solve: {len(solutions)} solutions")


def cmd_equiv(args, report: dict) -> None:
    document = _load(args, report)
    pair = _find(document, "matched", args.pair)
    phi = _defmap(document, args.phi, pair, args.pair)
    psi = _defmap(document, args.psi, pair, args.pair)
    if args.alpha:
        alpha = _find(document, "morphism", args.alpha)
        try:
            rep = dfm.check_equivalence(pair, phi, psi, alpha)
        except ValueError as exc:  # a witness of the wrong shape or singular
            raise _InputError(f"--alpha {args.alpha}: {exc}")
        report["checks"].append(_entry(f"equivalence:{args.alpha}", rep))
        return
    values = cons.grid_values(args.grid_num, args.grid_den)
    witnesses = cons.search_equivalence_diagonal(pair, phi, psi, values)
    report["witnesses"] = [
        [str(w.matrix[i][i]) for i in range(len(w.matrix))] for w in witnesses
    ]
    report["checks"].append(
        {
            "name": f"equivalence_search:{args.phi}~{args.psi}",
            "status": "pass" if witnesses else "not-found-in-family",
            "violations": [],
            "family": "diagonal",
            "grid": {"num": args.grid_num, "den": args.grid_den},
        }
    )


def cmd_morphism(args, report: dict) -> None:
    document = _load(args, report)
    morphism = _find(document, "morphism", args.name)
    report["checks"].extend(_item_checks("morphism", args.name, morphism))


def cmd_structure(args, report: dict) -> None:
    """Fill in the structure report, then raise :class:`CapExceeded` when
    ``--max-depth`` left the verdict unknown: the report keeps the walked
    series and gains the cap's message as its ``error``."""
    document = _load(args, report)
    algebra = _find(document, "algebra", args.algebra)
    if algebra.kind != LIE:
        raise _InputError("structure analysis applies to Lie algebras")
    solv = struct.is_solvable(algebra, max_depth=args.max_depth)
    series = [
        [element_text(g, algebra.basis) for g in sub.generators]
        for sub in solv.series
    ]
    report["structure"] = {
        "algebra": args.algebra,
        "is_abelian": struct.is_abelian(algebra),
        "solvability": str(solv),
        "derived_series": series,
    }
    print(f"structure:{args.algebra}: {solv}")
    if solv.verdict == "unknown":
        raise CapExceeded(
            f"algebra {args.algebra}: derived series undecided at --max-depth {args.max_depth}"
        )


def _int_at_least(least: int):
    """argparse type for an integer option no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Exact checks and constructions for finite conformal algebras.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    # argparse would accept a unique prefix such as ``--js`` for ``--json``,
    # which the report's command echo in ``main`` does not strip
    def command(name, help_text, params=True):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if params:
            p.add_argument("--param", action="append", default=[], metavar="NAME=RAT")
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")
        return p

    p = command("check", "run axiom/module/map checks")
    p.add_argument("file")
    p.add_argument("names", nargs="*")

    p = command("bicrossed", "build the glued algebra of a matched pair")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--expect", help="compare against this declared algebra")
    p.add_argument("-o", dest="out", metavar="PATH")

    p = command("deform", "twist Q by a deformation map")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--expect")
    p.add_argument("-o", dest="out", metavar="PATH")

    p = command("constraints", "compile the deformation identity")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--degree", type=_int_at_least(0), default=0)
    p.add_argument("-o", dest="out", metavar="PATH", help="write the system JSON here")

    p = command("solve", "eliminate then grid-search a system", params=False)
    p.add_argument("system")
    p.add_argument("--grid-num", type=_int_at_least(0), default=2)
    p.add_argument("--grid-den", type=_int_at_least(1), default=1)
    p.add_argument("--cap", type=_int_at_least(0), default=6)

    p = command("equiv", "compare two deformation maps up to a module automorphism")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--alpha", help="declared witness; omit to search diagonally")
    p.add_argument("--grid-num", type=_int_at_least(0), default=3)
    p.add_argument("--grid-den", type=_int_at_least(1), default=1)

    p = command("morphism", "check a declared morphism")
    p.add_argument("file")
    p.add_argument("--name", required=True)

    p = command("structure", "abelian/solvability invariants")
    p.add_argument("file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-depth", type=_int_at_least(1), default=10)

    return parser


# parse_args leaves the tree as it found it (an appended ``--param`` list is a
# copy of the default), so one tree serves every call in the process
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    # the report echoes the command without the report-path plumbing, so two
    # runs writing to different paths still produce identical reports
    echo = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == "--json":
            skip = True
        elif not token.startswith("--json="):
            echo.append(token)
    report = {"schema": SCHEMA, "command": echo, "checks": []}
    # looked up per call, so a wrapper rebound on this module is what runs
    handler = globals()[f"cmd_{args.cmd}"]
    try:
        handler(args, report)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(str(exc), file=sys.stderr)
        report["error"] = str(exc)
    report["timings"] = {"total_ms": int((time.monotonic() - started) * 1000)}
    if args.json:
        try:
            _write(args.json, json.dumps(report, indent=2, sort_keys=True) + "\n")
        except _InputError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_INPUT
    for entry in report["checks"]:
        print(f"{entry['name']}: {entry['status']}")
    if "error" in report:
        return EXIT_CAP
    return EXIT_FAIL if any(e["status"] != "pass" for e in report["checks"]) else EXIT_PASS


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
