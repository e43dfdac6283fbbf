"""Command-line front end emitting deterministic JSON reports.

Exit codes: 0 all checks passed, 1 a semantic check failed, 2 bad input
(parse or reference errors, an exponent or a numeric literal over the
parser's caps, or a ``--param`` name the document never uses), 3 a resource
cap was exceeded (the grid-search unknown cap in ``solve`` and ``equiv``, or
the derived-series depth in ``structure``).
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
from .algebra import CheckReport, ConformalAlgebra, LIE, check_axioms, element_text
from .dsl import Document, Item, ParseError, serialize, try_parse
from .poly import scalar_text

SCHEMA = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


class _InputError(Exception):
    pass


def _parse_params(pairs: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise _InputError(f"bad --param {pair!r}, expected NAME=RATIONAL")
        try:
            params[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise _InputError(f"bad rational {value!r} in --param {pair!r}")
    return params


def _load(args, argv: list[str]) -> tuple[Document, dict]:
    """Parse ``args.file`` under its ``--param`` bindings and open the report."""
    params = _parse_params(args.param)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {args.file}: {exc}")
    document, diagnostics = try_parse(text, params)
    if document is None:
        raise _InputError("\n".join(f"{args.file}:{d.text()}" for d in diagnostics))
    unused = sorted(set(params) - document.used_params)
    if unused:
        raise _InputError(
            f"{args.file}: --param {', '.join(unused)} is neither declared nor read"
        )
    return document, _report_skeleton(argv, {Path(args.file).name: text}, params)


def _find(document: Document, kind: str, name: str):
    try:
        return document.find(kind, name)
    except KeyError as exc:
        raise _InputError(str(exc))


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_skeleton(argv: list[str], files: dict[str, str], params) -> dict:
    return {
        "schema": SCHEMA,
        "command": list(argv),
        "inputs": {name: _digest(text) for name, text in files.items()},
        "params": {k: scalar_text(v) for k, v in sorted(params.items())},
        "checks": [],
    }


def _violations_json(report: CheckReport) -> list[dict]:
    return [
        {
            "identity": v.identity,
            "indices": list(v.indices),
            "residual": element_text(v.residual, v.basis),
        }
        for v in report.violations
    ]


def _check_entry(name: str, report: CheckReport, **extra) -> dict:
    entry = {"name": name, "status": report.status, "violations": _violations_json(report)}
    entry.update(extra)
    return entry


def _finish(report: dict, path: str | None, started: float, code: int) -> int:
    report["timings"] = {"total_ms": int((time.monotonic() - started) * 1000)}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    for entry in report.get("checks", []):
        print(f"{entry['name']}: {entry['status']}")
    return code


def _matched_pair_checks(name: str, pair) -> tuple[list[dict], bool]:
    normative = check_matched_pair(pair)
    entries = [_check_entry(f"matched_pair:{name}", normative)]
    ok = normative.passed
    if pair.kind == LIE:
        direct = check_b1_b2_direct(pair)
        agree = direct.passed == normative.passed
        entries.append(
            _check_entry(
                f"cross_compat_direct:{name}", direct, convention_match=agree
            )
        )
        if not agree:
            entries.append(
                {
                    "name": f"convention-mismatch:{name}",
                    "status": "fail",
                    "violations": [
                        {
                            "identity": "convention-mismatch",
                            "indices": [],
                            "residual": "direct and normative verdicts disagree",
                        }
                    ],
                }
            )
            ok = False
    return entries, ok


def cmd_check(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    names = args.names or [item.name for item in document.items if item.kind != "param"]
    by_name: dict[str, Item] = {}
    for item in document.items:
        by_name.setdefault(item.name, item)
    ok = True
    for name in names:
        item = by_name.get(name)
        if item is None:
            raise _InputError(f"no declaration named {name!r}")
        if item.kind == "algebra":
            rep = check_axioms(item.value)
            report["checks"].append(_check_entry(f"axioms:{name}", rep))
            ok = ok and rep.passed
        elif item.kind == "matched":
            entries, pair_ok = _matched_pair_checks(name, item.value)
            report["checks"].extend(entries)
            ok = ok and pair_ok
        elif item.kind == "defmap":
            rep = dfm.check_deformation_map(item.value.pair, item.value)
            report["checks"].append(_check_entry(f"deformation_map:{name}", rep))
            ok = ok and rep.passed
        elif item.kind == "morphism":
            rep = dfm.check_morphism(item.value)
            report["checks"].append(
                _check_entry(
                    f"morphism:{name}", rep, is_isomorphism=dfm.is_isomorphism(item.value)
                )
            )
            ok = ok and rep.passed
        else:
            raise _InputError(f"{name!r} is not checkable")
    return _finish(report, args.json, started, EXIT_PASS if ok else EXIT_FAIL)


def _write_algebra(document_name: str, algebra: ConformalAlgebra, path: str | None) -> str:
    text = serialize(Document((Item("algebra", document_name, algebra),)))
    if path:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _expect_compare(report, document, expect_name, constructed) -> bool:
    expected = _find(document, "algebra", expect_name)
    match = expected == constructed
    report["checks"].append(
        {
            "name": f"expect:{expect_name}",
            "status": "pass" if match else "fail",
            "violations": []
            if match
            else [
                {
                    "identity": "table-mismatch",
                    "indices": [],
                    "residual": "constructed table differs from declaration",
                }
            ],
        }
    )
    return match


def cmd_bicrossed(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    pair = _find(document, "matched", args.pair)
    entries, ok = _matched_pair_checks(args.pair, pair)
    report["checks"].extend(entries)
    big = pair.bicrossed
    report["output"] = _write_algebra(f"{args.pair}_E", big, args.out)
    if args.expect:
        ok = _expect_compare(report, document, args.expect, big) and ok
    return _finish(report, args.json, started, EXIT_PASS if ok else EXIT_FAIL)


def cmd_deform(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    pair = _find(document, "matched", args.pair)
    mapping = _find(document, "defmap", args.map)
    if mapping.pair != pair:
        raise _InputError(f"map {args.map!r} is not defined on pair {args.pair!r}")
    rep = dfm.check_deformation_map(pair, mapping)
    report["checks"].append(_check_entry(f"deformation_map:{args.map}", rep))
    ok = rep.passed
    # the deformed table is still produced on failure, for diagnostics
    deformed = dfm.deformed_algebra(pair, mapping)
    report["output"] = _write_algebra(f"{args.map}_Q", deformed, args.out)
    if ok:
        graph = dfm.graph_embedding_check(pair, mapping)
        report["checks"].append(_check_entry(f"graph_embedding:{args.map}", graph))
        ok = ok and graph.passed
    if args.expect:
        ok = _expect_compare(report, document, args.expect, deformed) and ok
    return _finish(report, args.json, started, EXIT_PASS if ok else EXIT_FAIL)


def cmd_constraints(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    pair = _find(document, "matched", args.pair)
    ansatz = cons.AnsatzSpec.uniform(pair.Q.rank, pair.R.rank, args.degree)
    system = cons.compile_deformation_constraints(pair, ansatz)
    system_json = cons.system_to_json(system)
    report["system"] = system_json
    elimination = cons.linear_eliminate(system)
    report["elimination"] = {
        "assignment": cons.assignment_text(elimination.assignment),
        "records": [
            {"unknown": cons.var_name(rec.var), "replacement": str(rec.replacement)}
            for rec in elimination.records
        ],
        "residual_unknowns": list(elimination.system.unknown_names()),
        "residual_equations": [str(eq.poly) for eq in elimination.system.equations],
        "unsatisfiable": elimination.unsatisfiable is not None,
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps(system_json, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"constraints:{args.pair}: {len(system.equations)} equations")
    return _finish(report, args.json, started, EXIT_PASS)


def cmd_solve(args, argv) -> int:
    started = time.monotonic()
    try:
        data = json.loads(Path(args.system).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read system {args.system}: {exc}")
    if isinstance(data, dict) and "system" in data:
        data = data["system"]
    try:
        system = cons.system_from_json(data)
    except (KeyError, TypeError, AttributeError, ValueError, ParseError) as exc:
        raise _InputError(f"bad system {args.system}: {type(exc).__name__}: {exc}")
    report = _report_skeleton(argv, {Path(args.system).name: json.dumps(data)}, {})
    elimination = cons.linear_eliminate(system)
    values = cons.grid_values(args.grid_num, args.grid_den)
    try:
        partials = cons.grid_search(elimination.system, values, cap=args.cap)
    except cons.GridCapExceeded as exc:
        report["error"] = str(exc)
        return _finish(report, args.json, started, EXIT_CAP)
    solutions = []
    for partial in partials:
        solutions.append(cons.assignment_text(elimination.extend(partial)))
    report["elimination"] = {
        "assignment": cons.assignment_text(elimination.assignment),
        "residual_unknowns": list(elimination.system.unknown_names()),
        "unsatisfiable": elimination.unsatisfiable is not None,
    }
    report["solutions"] = solutions
    report["grid"] = {"num": args.grid_num, "den": args.grid_den}
    print(f"solve: {len(solutions)} solutions")
    return _finish(report, args.json, started, EXIT_PASS)


def cmd_equiv(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    pair = _find(document, "matched", args.pair)
    phi = _find(document, "defmap", args.phi)
    psi = _find(document, "defmap", args.psi)
    if args.alpha:
        alpha = _find(document, "morphism", args.alpha)
        rep = dfm.check_equivalence(pair, phi, psi, alpha)
        report["checks"].append(_check_entry(f"equivalence:{args.alpha}", rep))
        return _finish(report, args.json, started, EXIT_PASS if rep.passed else EXIT_FAIL)
    values = cons.grid_values(args.grid_num, args.grid_den)
    try:
        witnesses = cons.search_equivalence_diagonal(pair, phi, psi, values)
    except cons.GridCapExceeded as exc:
        report["error"] = str(exc)
        return _finish(report, args.json, started, EXIT_CAP)
    report["witnesses"] = [
        [str(w.matrix[i][i]) for i in range(len(w.matrix))] for w in witnesses
    ]
    status = "pass" if witnesses else "not-found-in-family"
    report["checks"].append(
        {
            "name": f"equivalence_search:{args.phi}~{args.psi}",
            "status": status,
            "violations": [],
            "family": "diagonal",
            "grid": {"num": args.grid_num, "den": args.grid_den},
        }
    )
    return _finish(report, args.json, started, EXIT_PASS if witnesses else EXIT_FAIL)


def cmd_morphism(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    morphism = _find(document, "morphism", args.name)
    rep = dfm.check_morphism(morphism)
    report["checks"].append(
        _check_entry(
            f"morphism:{args.name}", rep, is_isomorphism=dfm.is_isomorphism(morphism)
        )
    )
    return _finish(report, args.json, started, EXIT_PASS if rep.passed else EXIT_FAIL)


def cmd_structure(args, argv) -> int:
    started = time.monotonic()
    document, report = _load(args, argv)
    algebra = _find(document, "algebra", args.algebra)
    if algebra.kind != LIE:
        raise _InputError("structure analysis applies to Lie algebras")
    solv = struct.is_solvable(algebra, max_depth=args.max_depth)
    series = [
        [element_text(g, algebra.basis) for g in sub.generator_elements()]
        for sub in solv.series
    ]
    report["structure"] = {
        "algebra": args.algebra,
        "is_abelian": struct.is_abelian(algebra),
        "solvability": str(solv),
        "derived_series": series,
    }
    print(f"structure:{args.algebra}: {solv}")
    code = EXIT_CAP if solv.verdict == "unknown" else EXIT_PASS
    return _finish(report, args.json, started, code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfkit",
        description="Exact checks and constructions for finite conformal algebras.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    # argparse would accept a unique prefix such as ``--js`` for ``--json``,
    # which the report's command echo in ``main`` does not strip
    def command(name, help_text):
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    def common(p, params=True):
        if params:
            p.add_argument("--param", action="append", default=[], metavar="NAME=RAT")
        p.add_argument("--json", metavar="PATH", help="write the JSON report here")

    p = command("check", "run axiom/module/map checks")
    p.add_argument("file")
    p.add_argument("names", nargs="*")
    common(p)
    p.set_defaults(func=cmd_check)

    p = command("bicrossed", "build the glued algebra of a matched pair")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--expect", help="compare against this declared algebra")
    p.add_argument("-o", dest="out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_bicrossed)

    p = command("deform", "twist Q by a deformation map")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--expect")
    p.add_argument("-o", dest="out", metavar="PATH")
    common(p)
    p.set_defaults(func=cmd_deform)

    p = command("constraints", "compile the deformation identity")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("-o", dest="out", metavar="PATH", help="write the system JSON here")
    common(p)
    p.set_defaults(func=cmd_constraints)

    p = command("solve", "eliminate then grid-search a system")
    p.add_argument("system")
    p.add_argument("--grid-num", type=int, default=2)
    p.add_argument("--grid-den", type=int, default=1)
    p.add_argument("--cap", type=int, default=6)
    common(p, params=False)
    p.set_defaults(func=cmd_solve)

    p = command("equiv", "compare two deformation maps up to a module automorphism")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--alpha", help="declared witness; omit to search diagonally")
    p.add_argument("--grid-num", type=int, default=3)
    p.add_argument("--grid-den", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_equiv)

    p = command("morphism", "check a declared morphism")
    p.add_argument("file")
    p.add_argument("--name", required=True)
    common(p)
    p.set_defaults(func=cmd_morphism)

    p = command("structure", "abelian/solvability invariants")
    p.add_argument("file")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-depth", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_structure)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the report echoes the command without the report-path plumbing, so two
    # runs writing to different paths still produce identical reports
    echo = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--json":
            skip = True
            continue
        if token.startswith("--json="):
            continue
        echo.append(token)
    try:
        return args.func(args, echo)
    except _InputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
