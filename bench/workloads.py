"""Seeded inputs, verdict calls and reference checks for the three workloads.

A *verdict* is one CLI invocation (``corpus``, ``rank-scale``) or one
candidate deformation map decided (``random-maps``).  Each is a
:class:`Verdict`: ``call`` is the timed work, done through cfkit's public API
or ``cfkit.cli.main``; ``check`` compares its outcome with a reference that
cfkit did not compute (committed goldens, closed-form tables written here,
or, for random maps, the agreement of two independent code paths).

cfkit is reached through the ``cfkit`` package namespace at call time, so a
tracer that rebinds the package's functions sees every call made here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import cfkit
from cfkit import cli, corpus
from cfkit.poly import D, L1


@dataclass
class Verdict:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the outcome matches
    cwd: Path | None = None  # directory the call must run in


def describe_inputs(workload: str, seed: int) -> list[str]:
    """Canonical text of a workload's generated inputs, without running cfkit."""
    if workload == "corpus":
        return [
            f"{name}: {' '.join(argv)}"
            for name in corpus.fixture_names()
            for argv in corpus.fixture_lines(name)
        ]
    if workload == "random-maps":
        return [repr(c) for c in _random_candidates(seed)]
    if workload == "rank-scale":
        return [_rank_doc_text(*doc) for doc in _rank_docs(seed)]
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int, workdir: Path) -> list[Verdict]:
    """Build one pass's verdicts; ``workdir`` is an empty scratch directory."""
    if workload == "corpus":
        return _corpus_verdicts(workdir)
    if workload == "random-maps":
        return _random_map_verdicts(seed)
    if workload == "rank-scale":
        return _rank_scale_verdicts(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# -- CLI invocations -----------------------------------------------------------

def _cli_call(argv: list[str]) -> Callable[[], int]:
    def call() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                return exc.code
    return call


def _read_report(path: Path) -> dict:
    if not path.exists():
        return {}
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("timings", None)
    return report


# -- corpus: the golden invocations -------------------------------------------


def _corpus_verdicts(workdir: Path) -> list[Verdict]:
    """Every golden invocation in file order; each fixture gets its own
    directory, so ``solve`` reads the ``sys.json`` its ``constraints`` wrote."""
    verdicts = []
    for fixture in corpus.fixture_names():
        fdir = workdir / fixture
        fdir.mkdir()
        shutil.copy(corpus.fixture_dir(fixture) / "input.cfk", fdir / "input.cfk")
        lines = corpus.fixture_lines(fixture)
        golden = corpus.fixture_reports(fixture)
        if len(lines) != len(golden):
            raise ValueError(f"{fixture}: {len(lines)} invocations, {len(golden)} goldens")
        for k, (argv, want) in enumerate(zip(lines, golden)):
            report = f"report{k}.json"
            verdicts.append(
                Verdict(
                    f"{fixture}#{k}",
                    _cli_call(argv + ["--json", report]),
                    _golden_check(argv, want, fdir / report),
                    fdir,
                )
            )
    return verdicts


def _golden_check(argv: list[str], want: dict, report: Path):
    def check(code: int) -> str | None:
        got = {"args": argv, "exit": code, "report": _read_report(report)}
        if got == want:
            return None
        if code != want["exit"]:
            return f"exit {code}, golden {want['exit']}"
        keys = sorted(
            k for k in set(got["report"]) | set(want["report"])
            if got["report"].get(k) != want["report"].get(k)
        )
        return f"report differs from golden in {', '.join(keys) or 'args'}"
    return check


# -- random-maps: candidate maps on the bundled pairs ---------------------------

_NP_B = Fraction(2)
# (label, fixture, parameters, pair name, admissible family or None)
_PAIRS = (
    ("WP(a=1,b=0)", "wab", {"a": 1, "b": 0, "c": 0}, "WP", "Qc"),
    ("WP(a=1,b=3)", "wab", {"a": 1, "b": 3, "c": 0}, "WP", "Qc"),
    ("WP(a=2,b=0)", "wab", {"a": 2, "b": 0, "c": 0}, "WP", None),
    ("NP", "nfold", {"b": _NP_B, "a1": 0, "a2": 0, "a3": 0}, "NP", "D3"),
    ("SVP", "sv", {"a": 0, "b": 0, "c": 0, "ai": 1}, "SVP", "Qab"),
    ("AP", "assoc4", {"p": 0, "q": 0, "r": 0, "s": 0}, "AP", "phi4"),
)
# Draws per admissible family (Qc serves two pairs), and per pair for random
# maps: 120 of each.  D3 is the slowest class and its cost varies twofold
# with the scalars drawn; keeping it under a tenth of the candidates puts the
# pooled p90 among the random NP and SVP maps, whose costs are alike.
_ADMISSIBLE = {"Qc": 24, "D3": 12, "Qab": 30, "phi4": 30}
_RANDOM_PER_PAIR = 20
_RANDOM_DEGREE = 2


@dataclass(frozen=True)
class _Candidate:
    """A map as exact coefficient lists: ``rows[q][r][t]`` multiplies ``d^t``."""

    pair: str
    family: str | None  # closed-form family it was drawn from, None if random
    index: int
    rows: tuple[tuple[tuple[Fraction, ...], ...], ...]
    scalars: tuple[Fraction, ...]  # family parameters, for the closed form


def _rational(rng: random.Random) -> Fraction:
    """A small nonzero rational.  Zeros would make the tables sparser and
    the cost of a pass depend on the seed."""
    num = rng.choice((-1, 1)) * rng.randint(1, 5)
    return Fraction(num, rng.randint(1, 3))


def _family_rows(family: str, rng: random.Random):
    """A closed-form admissible map and the scalars its twisted table uses."""
    if family == "Qc":  # W -> c L, admissible at a = 1 for every c
        c = _rational(rng)
        return (((c,),),), (c,)
    if family == "D3":  # Wi -> ai L, admissible for every scalar triple
        a = tuple(_rational(rng) for _ in range(3))
        return tuple(((ai,),) for ai in a), a
    if family == "Qab":  # phiab: Y -> a L + (a/2 d + b) N, M -> 0
        a, b = _rational(rng), _rational(rng)
        return (((a,), (b, a / 2)), ((), ())), (a, b)
    if family == "phi4":  # rank one, so p s = q r
        x, y, u, v = (_rational(rng) for _ in range(4))
        return (((u * x,), (u * y,)), ((v * x,), (v * y,))), (u, v, x, y)
    raise ValueError(family)


def _random_candidates(seed: int) -> list[_Candidate]:
    rng = random.Random(f"random-maps:{seed}")
    shapes = {"wab": (1, 1), "nfold": (3, 1), "sv": (2, 2), "assoc4": (2, 2)}
    out = []
    for label, fixture, _, _, family in _PAIRS:
        if family is not None:
            for k in range(_ADMISSIBLE[family]):
                rows, scalars = _family_rows(family, rng)
                out.append(_Candidate(label, family, k, rows, scalars))
        q_rank, r_rank = shapes[fixture]
        for k in range(_RANDOM_PER_PAIR):
            rows = tuple(
                tuple(
                    tuple(_rational(rng) for _ in range(_RANDOM_DEGREE + 1))
                    for _ in range(r_rank)
                )
                for _ in range(q_rank)
            )
            out.append(_Candidate(label, None, k, rows, ()))
    return out


def _entry(coeffs: tuple[Fraction, ...]) -> cfkit.MultiPoly:
    return cfkit.MultiPoly({((D, t),) if t else (): c for t, c in enumerate(coeffs)})


# Closed-form table entries are {(exponent of d, exponent of l): coefficient},
# built from plain Fractions so the reference does not rest on MultiPoly.


def _affine(d=0, l=0, one=0) -> dict[tuple[int, int], Fraction]:
    terms = {(1, 0): d, (0, 1): l, (0, 0): one}
    return {k: Fraction(v) for k, v in terms.items() if v}


def _sum(*entries: dict) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for entry in entries:
        for k, v in entry.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _closed_form(family: str, scalars: tuple[Fraction, ...]):
    """The twisted table each family must produce, written out by hand."""
    if family == "Qc":  # c (d + 2 l) W
        (c,) = scalars
        return (((_affine(d=c, l=2 * c),),),)
    if family == "D3":  # entry (i, j): a_j (l - b) Wi + a_i (d + l + b) Wj
        a, b = scalars, _NP_B
        return tuple(
            tuple(
                tuple(
                    _sum(
                        _affine(l=a[j], one=-a[j] * b) if k == i else {},
                        _affine(d=a[i], l=a[i], one=a[i] * b) if k == j else {},
                    )
                    for k in range(3)
                )
                for j in range(3)
            )
            for i in range(3)
        )
    if family == "Qab":  # [Y,Y] = a (d + 2 l) Y + (d + 2 l) M, [Y,M] = (a d + 2 b) M
        a, b = scalars
        return (
            ((_affine(d=a, l=2 * a), _affine(d=1, l=2)), ({}, _affine(d=a, one=2 * b))),
            (({}, _affine(d=-a, one=-2 * b)), ({}, {})),
        )
    return None  # phi4: no closed form, the axioms are the reference


def _table_terms(table):
    """A table's coefficients, read off ``MultiPoly.terms`` in the layout above."""
    def entry(poly):
        return {
            (dict(mono).get(D, 0), dict(mono).get(L1, 0)): coeff
            for mono, coeff in poly.terms()
        }
    return tuple(tuple(tuple(entry(p) for p in cell) for cell in row) for row in table)


def _random_map_verdicts(seed: int) -> list[Verdict]:
    pairs, systems = {}, {}
    for label, fixture, params, pair_name, _ in _PAIRS:
        text = (corpus.fixture_dir(fixture) / "input.cfk").read_text(encoding="utf-8")
        bound = {k: Fraction(v) for k, v in params.items()}
        pair = cfkit.parse_document(text, bound).find("matched", pair_name)
        ansatz = cfkit.AnsatzSpec.uniform(pair.Q.rank, pair.R.rank, _RANDOM_DEGREE)
        pairs[label] = pair
        systems[label] = (ansatz, cfkit.compile_deformation_constraints(pair, ansatz))
    verdicts = []
    for cand in _random_candidates(seed):
        pair = pairs[cand.pair]
        dm = cfkit.DeformationMap(
            pair, tuple(tuple(_entry(c) for c in row) for row in cand.rows)
        )
        name = f"{cand.pair}/{cand.family or 'random'}#{cand.index}"
        if cand.family is None:
            ansatz, system = systems[cand.pair]
            verdicts.append(Verdict(name, _agreement_call(pair, dm, ansatz, system), _agree))
        else:
            expect = _closed_form(cand.family, cand.scalars)
            verdicts.append(Verdict(name, _admissible_call(pair, dm), _admitted(expect)))
    return verdicts


def _admissible_call(pair, dm):
    def call():
        passed = cfkit.check_deformation_map(pair, dm).passed
        twisted = cfkit.deformed_algebra(pair, dm)
        return passed, twisted, cfkit.check_axioms(twisted).passed
    return call


def _admitted(expect):
    def check(outcome) -> str | None:
        passed, twisted, axioms = outcome
        if not passed:
            return "admissible map rejected"
        if not axioms:
            return "twisted algebra fails its axioms"
        if expect is not None and _table_terms(twisted.table) != expect:
            return "twisted table differs from the closed form"
        return None
    return check


def _agreement_call(pair, dm, ansatz, system):
    def call():
        direct = cfkit.check_deformation_map(pair, dm).passed
        compiled = cfkit.verify_assignment(system, ansatz.coefficients_of(dm))
        return direct, compiled
    return call


def _agree(outcome) -> str | None:
    direct, compiled = outcome
    if direct == compiled:
        return None
    return f"direct check says {direct}, compiled system says {compiled}"


# -- rank-scale: n-fold pairs written as .cfk text ------------------------------

# A zero twist at rank 2, then one seeded twist per rank 3..8 and a second
# at rank 6: 32 verdicts a pass, so the pooled p90 falls among the rank-6
# `check` calls instead of on the edge between two latency classes.
_ZERO_TWIST_RANK = 2
_RANKS = (3, 4, 5, 6, 6, 7, 8)


def _rank_docs(seed: int) -> list[tuple[int, Fraction, tuple[Fraction, ...]]]:
    """(n, b, scalars) per document: the zero twist, then the seeded twists."""
    rng = random.Random(f"rank-scale:{seed}")
    docs = [(_ZERO_TWIST_RANK, _rational(rng), (Fraction(0),) * _ZERO_TWIST_RANK)]
    docs += [(n, _rational(rng), tuple(_rational(rng) for _ in range(n))) for n in _RANKS]
    return docs


def _rank_doc_text(n: int, b: Fraction, scalars: tuple[Fraction, ...]) -> str:
    """L glued to W1..Wn, the twist Wi -> ai L, and its closed-form table D.

    D's entry (i, j) is a_j (l - b) Wi + a_i (d + l + b) Wj, which on the
    diagonal is a_i (d + 2 l) Wi.
    """
    w = [f"W{i + 1}" for i in range(n)]
    gens = ", ".join(w)
    lines = [f"param b = {b};"] + [f"param a{i + 1} = {a};" for i, a in enumerate(scalars)]
    lines += ["", "algebra E : lie {", f"  gens L, {gens};", "  [L, L] = (d + 2*l) L;"]
    lines += [f"  [L, {x}] = (d + l + b) {x};" for x in w]
    lines += [f"  [{x}, L] = (l - b) {x};" for x in w]
    lines += ["}", "", "algebra VirR : lie {", "  gens L;", "  [L, L] = (d + 2*l) L;", "}"]
    lines += ["", "algebra Q : lie {", f"  gens {gens};", "}"]
    lines += ["", "matched NP : lie {", "  R = VirR;", "  Q = Q;"]
    lines += [f"  {x} <| L = (l - b) {x};" for x in w]
    lines += ["}", "", "defmap phi on NP {"]
    lines += [f"  {x} -> (a{i + 1}) L;" for i, x in enumerate(w)]
    lines += ["}", "", "algebra D : lie {", f"  gens {gens};"]
    for i in range(n):
        for j in range(n):
            ai, aj = f"a{i + 1}", f"a{j + 1}"
            if i == j:
                rhs = f"({ai}*d + 2*{ai}*l) {w[i]}"
            else:
                rhs = f"({aj}*l - {aj}*b) {w[i]} + ({ai}*d + {ai}*l + {ai}*b) {w[j]}"
            lines.append(f"  [{w[i]}, {w[j]}] = {rhs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# check names and statuses each command must report, all passing
_RANK_CHECKS = {
    "check": ["axioms:E", "axioms:VirR", "axioms:Q", "matched_pair:NP",
              "cross_compat_direct:NP", "deformation_map:phi", "axioms:D"],
    "bicrossed": ["matched_pair:NP", "cross_compat_direct:NP", "expect:E"],
    "deform": ["deformation_map:phi", "graph_embedding:phi", "expect:D"],
    "structure": [],
}


def _rank_scale_verdicts(seed: int, workdir: Path) -> list[Verdict]:
    verdicts = []
    for k, (n, b, scalars) in enumerate(_rank_docs(seed)):
        doc = f"n{n}-{k}.cfk"
        (workdir / doc).write_text(_rank_doc_text(n, b, scalars), encoding="utf-8")
        solvable = "solvable(1)" if not any(scalars) else "not_solvable"
        commands = {
            "check": ["check", doc],
            "bicrossed": ["bicrossed", doc, "--pair", "NP", "--expect", "E"],
            "deform": ["deform", doc, "--pair", "NP", "--map", "phi", "--expect", "D"],
            "structure": ["structure", doc, "--algebra", "D"],
        }
        for command, argv in commands.items():
            report = f"{doc}.{command}.json"
            verdicts.append(
                Verdict(
                    f"n{n}-{k}/{command}",
                    _cli_call(argv + ["--json", report]),
                    _rank_check(command, workdir / report, solvable),
                    workdir,
                )
            )
    return verdicts


def _rank_check(command: str, report_path: Path, solvable: str):
    def check(code: int) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        report = _read_report(report_path)
        got = [(c["name"], c["status"]) for c in report.get("checks", [])]
        want = [(name, "pass") for name in _RANK_CHECKS[command]]
        if got != want:
            return f"checks {got}, expected {want}"
        if command == "structure":
            verdict = report["structure"]["solvability"]
            if verdict != solvable:
                return f"structure verdict {verdict}, expected {solvable}"
        return None
    return check
