import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import cfkit
from cfkit import cli, corpus
from cfkit import actions as actions_module
from cfkit import deform as deform_module
from cfkit.actions import check_b1_b2_direct, check_matched_pair
from cfkit.algebra import CheckReport, Violation, check_axioms, element_text
from cfkit.cli import MAX_ANSATZ_DEGREE, MAX_ENTRY_DEGREE
from cfkit.dsl import MAX_NESTING, Document, Item, parse_document, serialize
from cfkit.poly import MAX_UNKNOWN, MultiPoly
from helpers import FOREIGN, load_fixture
from test_actions import reference_check_b1_b2_direct

# the benchmark's generator of rank-scale documents
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

VIR = "algebra Vir : lie {\n  gens L;\n  [L, L] = (d + 2*l) L;\n}\n"
BAD = "algebra Bad : lie {\n  gens L;\n  [L, L] = (d + 3*l) L;\n}\n"
# a multiple of a Lie bracket is one, so every value of a passes
SCALED_VIR = "param a = 1;\n" + VIR.replace("(d + 2*l)", "(a*d + 2*a*l)")
# an algebra and a pair may share a name; the pair is not matched
SHARED_NAME = VIR + (
    "algebra P : lie { gens W; }\n"
    "matched P : lie { R = Vir; Q = P; W <| L = (d + 5*l) W; }\n"
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(argv):
    return cli.main(argv)


class TestCheck:
    def test_pass(self, workdir):
        Path("t.cfk").write_text(VIR)
        assert run(["check", "t.cfk", "--json", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["schema"] == 1
        assert report["checks"][0]["status"] == "pass"

    def test_fail_with_residual(self, workdir):
        Path("t.cfk").write_text(BAD)
        assert run(["check", "t.cfk", "--json", "r.json"]) == 1
        report = json.loads(Path("r.json").read_text())
        violations = report["checks"][0]["violations"]
        assert violations[0]["residual"] == "(-d) L"

    def test_empty_file_passes_vacuously(self, workdir):
        Path("t.cfk").write_text("# nothing here\n")
        assert run(["check", "t.cfk", "--json", "r.json"]) == 0
        assert json.loads(Path("r.json").read_text())["checks"] == []

    def test_parse_error_exits_2(self, workdir, capsys):
        Path("t.cfk").write_text("algebra A : lie { gens X; [X, X] = (q) X; }")
        assert run(["check", "t.cfk"]) == 2
        err = capsys.readouterr().err
        assert "unbound parameter" in err
        assert "t.cfk:1:" in err

    def test_unknown_name_exits_2(self, workdir):
        Path("t.cfk").write_text(VIR)
        assert run(["check", "t.cfk", "Nope"]) == 2

    @pytest.mark.parametrize("names", [[], ["P"]], ids=["all", "named"])
    def test_every_declaration_of_a_shared_name_is_checked(self, workdir, capsys, names):
        Path("t.cfk").write_text(SHARED_NAME)
        assert run(["check", "t.cfk", *names]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines.count("axioms:P: pass") == 1
        assert lines.count("matched_pair:P: fail") == 1
        assert ("axioms:Vir: pass" in lines) == (not names)

    def test_bad_param_exits_2(self, workdir):
        Path("t.cfk").write_text(VIR)
        assert run(["check", "t.cfk", "--param", "a"]) == 2
        assert run(["check", "t.cfk", "--param", "a=x"]) == 2

    def test_param_over_the_literal_cap_exits_2(self, workdir, capsys):
        # Fraction() would expand 1e200000 into a 200 001-digit integer
        Path("t.cfk").write_text(SCALED_VIR)
        started = time.monotonic()
        assert run(["check", "t.cfk", "--param", "a=1e200000"]) == 2
        assert time.monotonic() - started < 1
        assert "bad rational '1e200000'" in capsys.readouterr().err
        assert run(["check", "t.cfk", "--param", "a=" + "1" * 641]) == 2
        assert "bad rational" in capsys.readouterr().err
        for value, text in [("-3/2", "-3/2"), ("0.5", "1/2"), ("1" * 640, "1" * 640)]:
            assert run(["check", "t.cfk", "--param", f"a={value}", "--json", "r.json"]) == 0
            assert json.loads(Path("r.json").read_text())["params"] == {"a": text}

    def test_unused_param_exits_2(self, workdir, capsys):
        Path("t.cfk").write_text("param a = 1;\n" + VIR.replace("2*l", "b*l"))
        assert run(["check", "t.cfk", "--param", "a=2", "--param", "b=2"]) == 0
        assert run(["check", "t.cfk", "--param", "b=2", "--param", "c=1"]) == 2
        assert "--param c" in capsys.readouterr().err

    def test_exponent_over_cap_exits_2(self, workdir, capsys):
        Path("t.cfk").write_text(VIR.replace("(d + 2*l)", "(d^100000)"))
        started = time.monotonic()
        assert run(["check", "t.cfk"]) == 2
        assert time.monotonic() - started < 1
        assert "t.cfk:3:15:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coeff, where",
        [
            ("(((d+l+1)^64)^2)", "t.cfk:3:26:"),
            ("((d+l+1)^64 * (d+l+1)^64)", "t.cfk:3:24:"),
            ("((((2^64)^64)^64)^64)", "t.cfk:3:26:"),  # coefficient bit length
        ],
    )
    def test_nested_power_over_cap_exits_2(self, workdir, capsys, coeff, where):
        Path("t.cfk").write_text(VIR.replace("(d + 2*l)", coeff))
        started = time.monotonic()
        assert run(["check", "t.cfk"]) == 2
        assert time.monotonic() - started < 1
        assert f"{where} error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "action, agree",
        [
            # the sign-flipped WP breaks only a module law: the direct
            # identities hold vacuously and the verdicts disagree
            ("  W <| L = -((a - 1)*d + a*l - b) W;\n", False),
            # a left action of W on L breaks both cross identities
            ("  W <| L = ((a - 1)*d + a*l - b) W;\n  W |> L = (l) L;\n", True),
        ],
    )
    def test_direct_residuals_of_a_broken_pair(self, workdir, action, agree):
        text = (corpus.fixture_dir("wab") / "input.cfk").read_text()
        text = text.replace("  W <| L = ((a - 1)*d + a*l - b) W;\n", action)
        Path("t.cfk").write_text(text)
        params = ["--param", "a=2", "--param", "b=0", "--param", "c=0"]
        assert run(["check", "t.cfk", "WP", *params, "--json", "r.json"]) == 1
        entries = {c["name"]: c for c in json.loads(Path("r.json").read_text())["checks"]}
        normative, direct = entries["matched_pair:WP"], entries["cross_compat_direct:WP"]
        pair = parse_document(text, {"a": 2, "b": 0, "c": 0}).find("matched", "WP")
        want = reference_check_b1_b2_direct(pair)
        assert direct["violations"] == [
            {"identity": v.identity, "indices": list(v.indices),
             "residual": element_text(v.residual, v.basis)}
            for v in want.violations
        ]
        assert bool(want.violations) == agree
        assert normative["status"] == "fail"
        assert direct["convention_match"] == (direct["status"] == normative["status"]) == agree
        assert ("convention-mismatch:WP" in entries) != agree

    def test_too_long_literal_exits_2(self, workdir, capsys):
        Path("t.cfk").write_text(VIR.replace("(d + 2*l)", "(d + " + "1" * 5000 + ")"))
        assert run(["check", "t.cfk"]) == 2
        assert "t.cfk:3:17: error: numeric literal of 5000 digits" in capsys.readouterr().err

    def test_residual_past_the_str_digit_limit_is_rendered_exactly(self, workdir, capsys):
        # c has 4800 digits; skew-symmetry leaves 2c, Jacobi -c^2 (9600 digits)
        nines = "9" * 600
        Path("t.cfk").write_text(f"algebra A : lie {{ gens L; [L, L] = ({nines}^8) L; }}\n")
        assert run(["check", "t.cfk", "--json", "r.json"]) == 1
        assert "Traceback" not in capsys.readouterr().err
        violations = json.loads(Path("r.json").read_text())["checks"][0]["violations"]
        c = (10**600 - 1) ** 8
        values = []
        for v in violations:
            digits = v["residual"].removeprefix("(").removesuffix(") L")
            sign = -1 if digits.startswith("-") else 1
            digits = digits.lstrip("-")
            value = 0
            for start in range(0, len(digits), 500):  # int() is capped at 4300 digits
                chunk = digits[start:start + 500]
                value = value * 10 ** len(chunk) + int(chunk)
            values.append(sign * value)
        assert values == [2 * c, -c * c]

    def test_unknown_expect_exits_2(self, workdir):
        Path("t.cfk").write_text(VIR + "algebra Q : lie { gens W; }\n"
                                 "matched P : lie { R = Vir; Q = Q; }\n")
        assert run(["bicrossed", "t.cfk", "--pair", "P", "--expect", "Nope"]) == 2


class TestUnknownNames:
    """A name the document does not declare is bad input: exit 2, its lookup
    message alone on stderr, and no output file, whichever name it is."""

    DOC = VIR + (
        "algebra Q : lie { gens W; }\nmatched P : lie { R = Vir; Q = Q; }\n"
        "defmap phi on P { W -> 0; }\n"
    )

    OUT = ["-o", "out.cfk"]

    @pytest.mark.parametrize("argv, message", [
        (["bicrossed", "--pair", "NOPE", *OUT], "no matched named 'NOPE'"),
        (["structure", "--algebra", "NOPE"], "no algebra named 'NOPE'"),
        (["deform", "--pair", "P", "--map", "NOPE", *OUT], "no defmap named 'NOPE'"),
        (["bicrossed", "--pair", "P", "--expect", "NOPE", *OUT], "no algebra named 'NOPE'"),
        (["deform", "--pair", "P", "--map", "phi", "--expect", "NOPE", *OUT],
         "no algebra named 'NOPE'"),
    ], ids=["pair", "algebra", "map", "bicrossed-expect", "deform-expect"])
    def test_exits_2_with_the_message_and_no_file(self, workdir, capsys, argv, message):
        Path("t.cfk").write_text(self.DOC)
        assert run([argv[0], "t.cfk", *argv[1:]]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not Path("out.cfk").exists()


class TestDeterminism:
    def test_reports_identical_modulo_timings(self, workdir):
        Path("t.cfk").write_text(VIR)
        run(["check", "t.cfk", "--json", "a.json"])
        run(["check", "t.cfk", "--json", "b.json"])
        a = json.loads(Path("a.json").read_text())
        b = json.loads(Path("b.json").read_text())
        a.pop("timings")
        b.pop("timings")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_json_path_forms_give_identical_reports(self, workdir):
        Path("t.cfk").write_text(VIR)
        run(["check", "t.cfk", "--json", "a.json"])
        run(["check", "t.cfk", "--json=b.json"])
        a = json.loads(Path("a.json").read_text())
        b = json.loads(Path("b.json").read_text())
        a.pop("timings")
        b.pop("timings")
        assert a["command"] == ["check", "t.cfk"]
        assert a == b
        # a prefix of --json would slip past the command echo, so it is refused
        for path_args in (["--js", "c.json"], ["--jso=c.json"]):
            with pytest.raises(SystemExit) as exc:
                run(["check", "t.cfk", *path_args])
            assert exc.value.code == 2
        assert not Path("c.json").exists()


def _equation(poly: str) -> dict:
    provenance = {"left": 0, "right": 0, "coord": 0, "monomial": "1"}
    return {"poly": poly, "provenance": provenance}


class TestDegreeBudget:
    def test_entry_over_budget_exits_3_before_any_product(self, workdir, monkeypatch):
        Path("t.cfk").write_text("algebra A : lie { gens L; [L, L] = ((d+l+1)^64) L; }\n")

        def multiplied(*args):
            raise AssertionError("a table product was formed")

        monkeypatch.setattr(cli, "check_axioms", multiplied)
        started = time.monotonic()
        assert run(["check", "t.cfk", "--json", "r.json"]) == 3
        assert time.monotonic() - started < 1.0
        report = json.loads(Path("r.json").read_text())
        assert report["error"] == (
            f"algebra A: [L, L] has (d, l)-degree 64, over the budget of {MAX_ENTRY_DEGREE}"
        )
        assert report["checks"] == []

    def test_action_entry_is_named_as_spelled(self, workdir, capsys):
        Path("t.cfk").write_text(
            VIR
            + "algebra Q : lie { gens W; }\n"
            + "matched P : lie { R = Vir; Q = Q; W <| L = ((d + l)^20) W; }\n"
        )
        assert run(["bicrossed", "t.cfk", "--pair", "P"]) == 3
        assert "matched P: W <| L has (d, l)-degree 20" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("algebra A : lie { gens X, Y; [X, Y] = (d^18) X; [X, X] = (l^17) Y; }",
         "algebra A: [X, X] has (d, l)-degree 17"),
        (VIR + "algebra Q : lie { gens W; }\nalgebra R2 : lie { gens L, K; }\n"
         "matched P : lie { R = R2; Q = Q; W <| K = (d^18) W; W <| L = (l^17) W; }",
         "matched P: W <| L has (d, l)-degree 17"),
    ], ids=["product", "action"])
    def test_lower_column_of_a_row_is_named_first(self, workdir, capsys, text, message):
        """Two entries of one row over the budget, written highest column
        first: the error names the lower column, as in index order."""
        Path("t.cfk").write_text(text + "\n")
        assert run(["check", "t.cfk"]) == 3
        assert capsys.readouterr().err.startswith(message + ",")

    def test_budget_boundary(self, workdir, capsys):
        # d^15*l has degree 16, the budget: it is checked, and fails skew-symmetry
        Path("t.cfk").write_text("algebra A : lie { gens L; [L, L] = (d^15*l) L; }\n")
        assert run(["check", "t.cfk"]) == 1
        Path("t.cfk").write_text("algebra A : lie { gens L; [L, L] = (d^16*l) L; }\n")
        assert run(["check", "t.cfk"]) == 3
        assert capsys.readouterr().err == (
            f"algebra A: [L, L] has (d, l)-degree {MAX_ENTRY_DEGREE + 1},"
            f" over the budget of {MAX_ENTRY_DEGREE}\n"
        )


class TestAnsatzDegreeBudget:
    SV = [str(corpus.fixture_dir("sv") / "input.cfk"), "--pair", "SVP"] + [
        arg for value in ("a=0", "b=0", "c=0", "ai=1") for arg in ("--param", value)
    ]

    def test_over_budget_exits_3_before_the_ansatz(self, workdir, monkeypatch, capsys):
        def built(*args):
            raise AssertionError("an ansatz was built")

        monkeypatch.setattr(cli.cons.AnsatzSpec, "uniform", built)
        started = time.monotonic()
        assert run(["constraints", *self.SV, "--degree", "64", "--json", "r.json"]) == 3
        assert time.monotonic() - started < 1.0
        message = f"--degree 64 is over the budget of {MAX_ANSATZ_DEGREE}"
        assert json.loads(Path("r.json").read_text())["error"] == message
        assert capsys.readouterr().err == message + "\n"

    def test_budget_boundary(self):
        assert run(["constraints", *self.SV, "--degree", str(MAX_ANSATZ_DEGREE)]) == 0
        assert run(["constraints", *self.SV, "--degree", str(MAX_ANSATZ_DEGREE + 1)]) == 3


def _abelian_pair(q_rank: int, r_rank: int) -> str:
    """A document whose pair ``P`` joins two abelian algebras of the ranks
    given, with no actions: ``constraints`` needs q_rank * r_rank unknowns
    per coefficient of an entry."""
    def gens(prefix, n):
        return ", ".join(f"{prefix}{i}" for i in range(n))

    return (
        f"algebra Ra : lie {{ gens {gens('X', r_rank)}; }}\n"
        f"algebra Qa : lie {{ gens {gens('W', q_rank)}; }}\n"
        "matched P : lie { R = Ra; Q = Qa; }\n"
    )


class TestUnknownIndexCap:
    """``u0`` to ``u{MAX_UNKNOWN}`` are the unknowns a polynomial can hold:
    past them a document or a system is bad input, and an ansatz that would
    need more is over a budget."""

    def test_table_entry_past_the_cap_exits_2(self, workdir, capsys):
        Path("t.cfk").write_text("algebra A : lie { gens X; [X, X] = (d + u99999999) X; }")
        assert run(["check", "t.cfk"]) == 2
        assert capsys.readouterr().err == (
            f"t.cfk:1:41: error: unknown index is over the cap of u{MAX_UNKNOWN}\n"
        )

    def test_solve_at_the_cap(self, workdir):
        top = f"u{MAX_UNKNOWN}"
        system = {"unknowns": [top], "equations": [_equation(f"{top} - 1")]}
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json", "--grid-num", "1", "--json", "r.json"]) == 0
        assert json.loads(Path("r.json").read_text())["solutions"] == [{top: "1"}]

    @pytest.mark.parametrize(
        "system, error",
        [
            (
                {"unknowns": [f"u{MAX_UNKNOWN + 1}"], "equations": []},
                f"ValueError: unknown index {MAX_UNKNOWN + 1} is over the cap of {MAX_UNKNOWN}",
            ),
            (
                {"unknowns": ["u0"], "equations": [_equation(f"u0 - u{MAX_UNKNOWN + 1}")]},
                f"ParseError: 1:6: error: unknown index is over the cap of u{MAX_UNKNOWN}",
            ),
        ],
        ids=["listed", "in-an-equation"],
    )
    def test_solve_past_the_cap_exits_2(self, workdir, capsys, system, error):
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json"]) == 2
        err = capsys.readouterr().err
        assert f"bad system sys.json: {error}" in err
        assert "Traceback" not in err

    def test_constraints_at_the_cap(self, workdir):
        # 12 * 17 * (4 + 1) = 1020 unknowns, u0 to u1019
        Path("t.cfk").write_text(_abelian_pair(12, 17))
        assert run(["constraints", "t.cfk", "--pair", "P", "--degree", "4", "--json", "r.json"]) == 0
        unknowns = json.loads(Path("r.json").read_text())["system"]["unknowns"]
        assert len(unknowns) == 1020 and unknowns[-1] == "u1019"

    def test_constraints_past_the_cap_exits_3_before_the_ansatz(
        self, workdir, monkeypatch, capsys
    ):
        def built(*args):
            raise AssertionError("an ansatz was built")

        monkeypatch.setattr(cli.cons.AnsatzSpec, "uniform", built)
        # 5 * 41 * (4 + 1) = 1025 unknowns
        Path("t.cfk").write_text(_abelian_pair(5, 41))
        argv = ["constraints", "t.cfk", "--pair", "P", "--degree", "4", "--json", "r.json"]
        assert run(argv) == 3
        message = (
            f"the ansatz needs 1025 unknowns, over the cap of {MAX_UNKNOWN + 1}"
            f" (u0 to u{MAX_UNKNOWN})"
        )
        assert json.loads(Path("r.json").read_text())["error"] == message
        assert capsys.readouterr().err == message + "\n"

    def test_constraints_one_past_the_cap_exits_3(self, workdir, capsys):
        # 7 * 73 * (1 + 1) = 1022 unknowns: one more would be u1021
        Path("t.cfk").write_text(_abelian_pair(7, 73))
        assert run(["constraints", "t.cfk", "--pair", "P", "--degree", "1"]) == 3
        assert capsys.readouterr().err == (
            f"the ansatz needs 1022 unknowns, over the cap of {MAX_UNKNOWN + 1}"
            f" (u0 to u{MAX_UNKNOWN})\n"
        )


class TestSolveCap:
    def test_cap_exceeded_exits_3(self, workdir, capsys):
        system = {
            "unknowns": [f"u{k}" for k in range(7)],
            "equations": [],
        }
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json", "--json", "r.json"]) == 3
        report = json.loads(Path("r.json").read_text())
        message = "7 unknowns exceed the exhaustive-search cap of 6"
        assert report["error"] == message
        # every cap is printed as well as reported
        assert capsys.readouterr().err == message + "\n"

    def test_degree_guard_exits_3(self, workdir, capsys):
        # u0 -> -u1^63 and u1 -> -u2^63 take u0^64 to degree 254 016
        polys = ["u0 + u1^63", "u1 + u2^63", "u0^64"]
        system = {"unknowns": ["u0", "u1", "u2"], "equations": [_equation(p) for p in polys]}
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json", "--json", "r.json"]) == 3
        message = "a product is over the degree guard 32767"
        assert json.loads(Path("r.json").read_text())["error"] == message
        assert capsys.readouterr().err == message + "\n"

    def test_substitution_budget_exits_3_at_once(self, workdir, capsys):
        # u0 -> -(u1 + ... + u5) in u0^64: powers of up to C(69, 5) terms
        sums = " + ".join(f"u{k}" for k in range(6))
        system = {
            "unknowns": [f"u{k}" for k in range(6)],
            "equations": [_equation(sums), _equation("u0^64")],
        }
        Path("sys.json").write_text(json.dumps(system))
        started = time.monotonic()
        assert run(["solve", "sys.json"]) == 3
        assert time.monotonic() - started < 1.0
        assert capsys.readouterr().err == (
            "substituting for u0 takes the elimination to 11238519 power terms,"
            " over the budget of 1000000\n"
        )

    def test_refuted_system_skips_the_search(self, workdir):
        # 7 unknowns are over the search's cap, but a refuted system is not searched
        system = {"unknowns": [f"u{k}" for k in range(7)], "equations": [_equation("1")]}
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json", "--json", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["elimination"]["unsatisfiable"] is True
        assert report["solutions"] == []
        assert "error" not in report

    def test_fine_grid_stays_small(self, workdir):
        # 16001 values with denominators up to 8000, whose common denominator
        # has about 11 500 bits; each value is cleared by its own denominator
        system = {"unknowns": ["u0"], "equations": [_equation("4*u0^2 - 1")]}
        Path("sys.json").write_text(json.dumps(system))
        argv = ["solve", "sys.json", "--grid-num", "1", "--grid-den", "8000"]
        tracemalloc.start()
        started = time.monotonic()
        try:
            assert run(argv + ["--json", "r.json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.monotonic() - started < 10.0
        assert peak < 8 * 2**20
        report = json.loads(Path("r.json").read_text())
        assert report["solutions"] == [{"u0": "-1/2"}, {"u0": "1/2"}]

    def test_power_tables_are_budgeted_before_any_is_built(self, workdir):
        # a degree-64 equation needs 65 tables of 64th powers, about 5.9 GB at
        # these 800 001 values, which the point budget alone admits
        poly = " + ".join(f"u0^{k}" for k in range(64, 1, -1)) + " + u0 + 1"
        Path("sys.json").write_text(
            json.dumps({"unknowns": ["u0"], "equations": [_equation(poly)]})
        )
        grid = ["--grid-num", "1", "--grid-den", "400000"]
        started = time.monotonic()
        assert run(["solve", "sys.json", *grid, "--json", "r.json"]) == 3
        assert time.monotonic() - started < 1.0
        assert json.loads(Path("r.json").read_text())["error"] == (
            "800001*4160 power-table cells exceed the exhaustive-search budget of 8000000"
        )

    def test_grid_budget_is_checked_before_any_value_is_built(self, workdir):
        # 10 944 751 values: the old grid built about 18 M Fractions first
        Path("sys.json").write_text(
            json.dumps({"unknowns": ["u0"], "equations": [_equation("u0^2 - 1")]})
        )
        Path("t.cfk").write_text(
            VIR
            + "algebra Q : lie { gens Q0; }\n"
            + "matched P : lie { R = Vir; Q = Q; }\n"
            + "defmap z on P { }\n"
        )
        grid = ["--grid-num", "3000", "--grid-den", "3000"]
        equiv = ["equiv", "t.cfk", "--pair", "P", "--phi", "z", "--psi", "z"]
        for argv, size in [(["solve", "sys.json"], 10944751), (equiv, 10944750)]:
            started = time.monotonic()
            assert run(argv + grid + ["--json", "r.json"]) == 3
            assert time.monotonic() - started < 1.0
            report = json.loads(Path("r.json").read_text())
            assert report["error"] == (
                f"{size}^1 grid points exceed the exhaustive-search budget of 1000000"
            )

    def test_grid_one_past_the_budget_exits_3(self, workdir, capsys):
        # 2 * 500000 + 1 values: one past the budget, refused before searching
        Path("sys.json").write_text(
            json.dumps({"unknowns": ["u0"], "equations": [_equation("u0^2 - u0")]})
        )
        argv = ["solve", "sys.json", "--grid-num", "1", "--grid-den", "500000"]
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            "1000001^1 grid points exceed the exhaustive-search budget of 1000000\n"
        )

    @pytest.mark.parametrize(
        "num, den",
        [
            ("10" * 20, "10" * 20),
            # one bound small: the exact count would pass sys.maxsize
            ("1" + "0" * 19, "1"),
            ("1", "1" + "0" * 19),
            ("1" + "0" * 14, "100000"),
            ("100000", "1" + "0" * 14),
        ],
    )
    def test_grid_past_counting_exits_3(self, workdir, num, den):
        Path("sys.json").write_text(json.dumps({"unknowns": ["u0"], "equations": []}))
        Path("t.cfk").write_text(
            VIR
            + "algebra Q : lie { gens Q0; }\n"
            + "matched P : lie { R = Vir; Q = Q; }\n"
            + "defmap z on P { }\n"
        )
        grid = ["--grid-num", num, "--grid-den", den]
        equiv = ["equiv", "t.cfk", "--pair", "P", "--phi", "z", "--psi", "z"]
        for argv in (["solve", "sys.json"], equiv):
            started = time.monotonic()
            assert run(argv + grid + ["--json", "r.json"]) == 3
            assert time.monotonic() - started < 1.0
            assert json.loads(Path("r.json").read_text())["error"].endswith(
                "has more than 1000000 values"
            )

    def test_zero_numerator_bound_lists_zero_alone(self, workdir):
        Path("sys.json").write_text(json.dumps({"unknowns": ["u0"], "equations": []}))
        grid = ["--grid-num", "0", "--grid-den", "1" + "0" * 19]
        started = time.monotonic()
        assert run(["solve", "sys.json", *grid, "--json", "r.json"]) == 0
        assert time.monotonic() - started < 1.0
        assert json.loads(Path("r.json").read_text())["solutions"] == [{"u0": "0"}]

    def test_no_unknowns_lists_no_value(self, workdir):
        Path("sys.json").write_text(json.dumps({"unknowns": [], "equations": []}))
        grid = ["--grid-num", "10" * 20, "--grid-den", "10" * 20]
        started = time.monotonic()
        assert run(["solve", "sys.json", *grid, "--json", "r.json"]) == 0
        assert time.monotonic() - started < 1.0
        assert json.loads(Path("r.json").read_text())["solutions"] == [{}]

    def test_equiv_past_the_cap_exits_3_before_searching(self, workdir, monkeypatch):
        # zero maps on an abelian Q of rank 7: no equations, 7 residual unknowns
        gens = ", ".join(f"Q{k}" for k in range(7))
        Path("t.cfk").write_text(
            VIR
            + f"algebra Q : lie {{ gens {gens}; }}\n"
            + "matched P : lie { R = Vir; Q = Q; }\n"
            + "defmap z on P { }\n"
        )
        checked = []
        monkeypatch.setattr(cli.cons, "_satisfies", lambda *a: checked.append(a) or True)
        argv = ["equiv", "t.cfk", "--pair", "P", "--phi", "z", "--psi", "z"]
        assert run(argv + ["--json", "r.json"]) == 3
        report = json.loads(Path("r.json").read_text())
        assert report["error"] == "7 unknowns exceed the exhaustive-search cap of 6"
        assert checked == []

    @pytest.mark.parametrize(
        "system, error",
        [
            ({"unknowns": ["x1"], "equations": []}, "ValueError: bad unknown name 'x1'"),
            ({"unknowns": ["u²"], "equations": []}, "ValueError: bad unknown name 'u²'"),
            ({"equations": []}, "KeyError: 'unknowns'"),
            (
                {
                    "unknowns": ["u0"],
                    "equations": [{"poly": "u0 +", "provenance": {
                        "left": 0, "right": 0, "coord": 0, "monomial": "1"}}],
                },
                "ParseError: 1:5: error: expected a polynomial",
            ),
            ("system", "TypeError: string indices must be integers"),
            (
                {"unknowns": ["u0"], "equations": [_equation("u1")]},
                "ValueError: equation u1 mentions u1, which is not an unknown of the system",
            ),
            (
                {"unknowns": ["u0"], "equations": [_equation("u0*u1^2 + u0")]},
                "ValueError: equation u0*u1^2 + u0 mentions u1, which is not an unknown",
            ),
            (
                {"unknowns": ["u0"], "equations": [_equation("d*u0")]},
                "ValueError: equation d*u0 mentions d, which is not an unknown",
            ),
            (
                {"unknowns": ["u0", "u0"], "equations": []},
                "ValueError: unknown u0 is listed twice",
            ),
            (
                {"unknowns": ["u0"], "equations": [_equation("(" * 400 + "u0" + ")" * 400)]},
                "ParseError: 1:65: error: nesting depth 65 exceeds the cap 64",
            ),
            (
                {"unknowns": ["u0"], "equations": [_equation("-" * 1000 + "u0")]},
                "ParseError: 1:65: error: nesting depth 65 exceeds the cap 64",
            ),
        ],
        ids=[
            "unknown-name", "superscript-digit", "no-unknowns", "bad-equation",
            "not-an-object", "unlisted-unknown", "unlisted-unknown-squared",
            "spectral-variable", "duplicate-unknown", "nested-parentheses",
            "nested-minus-signs",
        ],
    )
    def test_malformed_system_exits_2(self, workdir, capsys, system, error):
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json"]) == 2
        err = capsys.readouterr().err
        assert f"bad system sys.json: {error}" in err
        assert "Traceback" not in err

    def test_json_nested_past_the_recursion_limit_exits_2(self, workdir, capsys):
        Path("sys.json").write_text("[" * 100000 + "]" * 100000)
        assert run(["solve", "sys.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot read system sys.json: maximum recursion depth" in err
        assert "Traceback" not in err

    def test_trailing_input_is_placed_at_its_token(self, workdir, capsys):
        system = {"unknowns": ["u0", "u1"], "equations": [_equation("u0 u1")]}
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json"]) == 2
        assert capsys.readouterr().err == (
            "bad system sys.json: ParseError: 1:4: error: trailing input after polynomial\n"
        )

    def test_solve_takes_no_param(self, workdir):
        Path("sys.json").write_text(json.dumps({"unknowns": [], "equations": []}))
        with pytest.raises(SystemExit) as exc:
            run(["solve", "sys.json", "--param", "a=1"])
        assert exc.value.code == 2

    def test_accepts_full_report_as_input(self, workdir):
        Path("t.cfk").write_text(
            VIR
            + "algebra Q : lie { gens W; }\n"
            + "matched P : lie { R = Vir; Q = Q; W <| L = (d + 2*l) W; }\n"
        )
        assert run(
            ["constraints", "t.cfk", "--pair", "P", "--degree", "0", "--json", "c.json"]
        ) == 0
        assert run(["solve", "c.json", "--grid-num", "2", "--json", "s.json"]) == 0
        report = json.loads(Path("s.json").read_text())
        assert report["solutions"] == [{"u0": "0"}]

    def test_given_constant_equation_is_unsatisfiable(self, workdir):
        system = {"unknowns": ["u0"], "equations": [_equation("1"), _equation("2")]}
        Path("sys.json").write_text(json.dumps(system))
        assert run(["solve", "sys.json", "--json", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["elimination"]["unsatisfiable"] is True
        assert report["solutions"] == []


class TestOutputs:
    def test_bicrossed_writes_serialized_algebra(self, workdir):
        Path("t.cfk").write_text(
            VIR + "algebra Q : lie { gens W; }\n"
            "matched P : lie { R = Vir; Q = Q; }\n"
        )
        assert run(["bicrossed", "t.cfk", "--pair", "P", "-o", "e.cfk", "--json", "r.json"]) == 0
        text = Path("e.cfk").read_text()
        assert "algebra P_E : lie" in text
        report = json.loads(Path("r.json").read_text())
        assert report["output"] == text

    def test_deform_failure_still_writes_table(self, workdir):
        Path("t.cfk").write_text(
            VIR + "algebra Q : lie { gens W; }\n"
            "matched P : lie { R = Vir; Q = Q; W <| L = (d + 2*l) W; }\n"
            "defmap phi on P { W -> L; }\n"
        )
        code = run(["deform", "t.cfk", "--pair", "P", "--map", "phi", "-o", "q.cfk", "--json", "r.json"])
        assert code == 1
        assert Path("q.cfk").exists()
        report = json.loads(Path("r.json").read_text())
        assert report["checks"][0]["status"] == "fail"
        assert report["checks"][0]["violations"]

    def test_structure_walks_the_derived_series_once(self, workdir, monkeypatch):
        from cfkit import structure

        calls = []
        inner = structure.derived_subalgebra

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(structure, "derived_subalgebra", counting)
        Path("t.cfk").write_text(VIR)
        assert run(["structure", "t.cfk", "--algebra", "Vir"]) == 0
        assert len(calls) == 1

    def test_structure_report(self, workdir):
        Path("t.cfk").write_text(VIR)
        assert run(["structure", "t.cfk", "--algebra", "Vir", "--json", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["structure"]["solvability"] == "not_solvable"
        assert report["structure"]["is_abelian"] is False
        assert report["structure"]["derived_series"][0] == ["L"]


class TestUnwritableOutput:
    """An output path that cannot be written is bad input: exit 2 with the
    path on stderr, as an unreadable input file is, not a traceback."""

    PAIR = VIR + "algebra Q : lie { gens W; }\nmatched P : lie { R = Vir; Q = Q; }\n"

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["check", "t.cfk", "--json", "missing/r.json"], "missing/r.json"),
            (["bicrossed", "t.cfk", "--pair", "P", "-o", "."], "."),
            (["constraints", "t.cfk", "--pair", "P", "-o", "missing/s.json"], "missing/s.json"),
        ],
        ids=["json-into-missing-directory", "o-onto-directory", "constraints-o"],
    )
    def test_exits_2(self, workdir, capsys, argv, path):
        Path("t.cfk").write_text(self.PAIR)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {path}: ")
        assert "Traceback" not in err


def _counting(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that records each call."""
    calls = []
    inner = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


# a morphism of rank one into rank two, and two witnesses --alpha refuses
RANKS = (
    "algebra A : lie { gens X; }\nalgebra B : lie { gens Y, Z; }\n"
    "morphism h : A -> B { X -> Y; }\n"
)
WITNESSES = (
    VIR + "algebra AbQ : lie { gens W; }\n"
    "algebra One : lie { gens Z; }\nalgebra Two : lie { gens Z1, Z2; }\n"
    "matched P : lie { R = Vir; Q = AbQ; W <| L = (l) W; }\n"
    "defmap phi on P { W -> 0; }\n"
    "morphism bad1 : One -> Two { Z -> Z1; }\n"
    "morphism sing : AbQ -> AbQ { W -> (0) W; }\n"
)


def dense_morphism(n: int, last: str) -> str:
    """A morphism of the abelian algebra of rank ``n`` onto itself, every
    matrix entry nonzero: the product of the lower triangular matrix of ones
    and the unit upper triangular one with ``d`` above the diagonal, its
    last row multiplied by ``last``, so its determinant is ``last``."""
    rows = []
    for i in range(n):
        scale = last if i == n - 1 else "1"
        entries = (f"{i + 1}*d" if i < j else f"{j}*d + 1" for j in range(n))
        terms = (f"({scale}*({entry})) X{j}" for j, entry in enumerate(entries))
        rows.append(f"X{i} -> {' + '.join(terms)};")
    gens = ", ".join(f"X{i}" for i in range(n))
    return f"algebra A : lie {{ gens {gens}; }}\nmorphism h : A -> A {{ {' '.join(rows)} }}\n"


class TestMorphismReport:
    @pytest.mark.parametrize("argv", [["morphism", "t.cfk", "--name", "h"], ["check", "t.cfk"]])
    def test_rank_mismatch_is_no_isomorphism(self, workdir, monkeypatch, argv):
        from cfkit import deform

        calls = _counting(monkeypatch, deform, "check_morphism")
        Path("t.cfk").write_text(RANKS)
        assert run(argv + ["--json", "r.json"]) == 0
        entry = json.loads(Path("r.json").read_text())["checks"][-1]
        assert (entry["name"], entry["status"]) == ("morphism:h", "pass")
        assert entry["is_isomorphism"] is False
        assert len(calls) == 1

    def test_isomorphism_is_checked_once(self, workdir, monkeypatch):
        from cfkit import deform

        calls = _counting(monkeypatch, deform, "check_morphism")
        argv = ["morphism", str(corpus.fixture_dir("sv") / "input.cfk"), "--name", "iso"]
        argv += ["--param", "a=2", "--param", "b=1", "--param", "c=1/2", "--param", "ai=1/2"]
        assert run(argv + ["--json", "r.json"]) == 0
        assert json.loads(Path("r.json").read_text())["checks"][0]["is_isomorphism"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("last, iso", [("1", True), ("d", False)])
    def test_dense_rank_12_morphism_is_decided_in_seconds(self, workdir, last, iso):
        """A rank-12 morphism of an abelian algebra with every matrix entry
        nonzero: cofactor expansion would take hours on it.  Its determinant
        is ``last``, so it is an isomorphism exactly when ``last`` is 1."""
        Path("t.cfk").write_text(dense_morphism(12, last))
        started = time.monotonic()
        assert run(["morphism", "t.cfk", "--name", "h", "--json", "r.json"]) == 0
        assert time.monotonic() - started < 10
        assert json.loads(Path("r.json").read_text())["checks"][0]["is_isomorphism"] is iso


class TestEquivWitness:
    @pytest.mark.parametrize("alpha, message", [
        ("bad1", "equivalence witness matrix must be 1x1"),
        ("sing", "equivalence witness must be an invertible module map"),
    ])
    def test_refused_witness_exits_2(self, workdir, capsys, alpha, message):
        Path("t.cfk").write_text(WITNESSES)
        argv = ["equiv", "t.cfk", "--pair", "P", "--phi", "phi", "--psi", "phi", "--alpha", alpha]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"--alpha {alpha}: {message}\n"


class TestForeignMap:
    @pytest.mark.parametrize("argv", [
        ["deform", "--map", "psi2"],
        ["equiv", "--phi", "phi", "--psi", "psi2", "--grid-num", "1", "--grid-den", "1"],
        ["equiv", "--phi", "psi2", "--psi", "phi"],
        ["equiv", "--phi", "phi", "--psi", "psi2", "--alpha", "a1"],
        ["equiv", "--phi", "psi2", "--psi", "phi", "--alpha", "a1"],
    ], ids=["deform", "search-psi", "search-phi", "alpha-psi", "alpha-phi"])
    def test_exits_2_as_deform_does(self, workdir, capsys, argv):
        Path("t.cfk").write_text(FOREIGN)
        assert run([argv[0], "t.cfk", "--pair", "P", *argv[1:]]) == 2
        assert capsys.readouterr().err == "map 'psi2' is not defined on pair 'P'\n"


class TestDeformReport:
    """``cfkit deform`` takes the graph products once and reads both the
    report and the twisted table off them, on a failing map too."""

    DOC = (
        VIR + "algebra Q : lie { gens W; }\n"
        "matched P : lie { R = Vir; Q = Q; W <| L = (l) W; }\n"
        "defmap phi on P { W -> 0; }\ndefmap psi on P { W -> (d + 1) L; }\n"
    )

    def _deform(self, monkeypatch, name):
        from cfkit import deform

        passes = _counting(monkeypatch, deform, "_products")
        Path("t.cfk").write_text(self.DOC)
        code = run(["deform", "t.cfk", "--pair", "P", "--map", name, "--json", "r.json"])
        return code, json.loads(Path("r.json").read_text()), len(passes)

    def test_residuals_are_computed_once(self, workdir, monkeypatch):
        code, report, passes = self._deform(monkeypatch, "phi")
        assert code == 0
        assert [(c["name"], c["status"]) for c in report["checks"]] == [
            ("deformation_map:phi", "pass"), ("graph_embedding:phi", "pass")
        ]
        assert passes == 1

    def test_failing_map_takes_one_pass_and_keeps_its_table(self, workdir, monkeypatch):
        code, report, passes = self._deform(monkeypatch, "psi")
        assert code == 1
        assert [(c["name"], c["status"]) for c in report["checks"]] == [
            ("deformation_map:psi", "fail")
        ]
        assert report["output"] == (
            "algebra psi_Q : lie {\n  gens W;\n  [W, W] = (d + 2*l) W;\n}\n"
        )
        assert passes == 1


def _fixture_text(name: str) -> str:
    return (corpus.fixture_dir(name) / "input.cfk").read_text()


def _top_level_terms(rhs: str) -> list[str]:
    """The terms of a canonical right-hand side, split at each ``+`` outside
    parentheses."""
    terms, depth, start = [], 0, 0
    for at, ch in enumerate(rhs):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and rhs.startswith(" + ", at):
            terms.append(rhs[start:at])
            start = at + 3
    return terms + [rhs[start:]]


def _backwards(text: str, kinds: tuple[str, ...]) -> str:
    """Canonical ``.cfk`` text with the entries of each declaration of
    ``kinds`` written in reverse order, and the terms of each entry too."""
    lines, out, entries, kind = text.splitlines(), [], [], None
    for line in lines:
        if line.endswith("{") or line == "}":
            kind = line.split()[0]
        is_entry = " = " in line and line.lstrip()[:2] not in ("R ", "Q ")
        if kind in kinds and is_entry:
            left, rhs = line.rstrip(";").split(" = ")
            entries.append(f"{left} = {' + '.join(reversed(_top_level_terms(rhs)))};")
            continue
        out += reversed(entries)
        entries = []
        out.append(line)
    return "\n".join(out) + "\n"


#: fixture -> (pair, its declared bicrossed product, parameters)
_ORDER_CASES = {
    "sv": ("SVP", "SV", {"a": 2, "b": 1, "c": Fraction(1, 2), "ai": Fraction(1, 2)}),
    "assoc4": ("AP", "E4", {"p": 1, "q": 2, "r": Fraction(3, 2), "s": 3}),
}


@pytest.mark.parametrize("name", sorted(_ORDER_CASES))
class TestCanonicalOrder:
    """Nothing but the constructor orders a table's entries: entries and
    terms written out of index order are stored, rendered and compared as
    the same text in order.  Each case starts from the fixture as the
    serializer writes it at its parameters."""

    def test_backwards_entries_serialize_byte_identically(self, name):
        text = serialize(load_fixture(name, **_ORDER_CASES[name][2]))
        flipped = _backwards(text, ("algebra", "matched"))
        assert flipped != text
        assert serialize(parse_document(flipped)) == text

    def test_backwards_and_in_order_pass_expect_against_each_other(self, workdir, name):
        pair, big, params = _ORDER_CASES[name]
        doc = load_fixture(name, **params)
        text = serialize(doc)
        want = serialize(Document((Item("algebra", f"{pair}_E", doc.find("algebra", big)),)))
        for kinds in (("algebra",), ("matched",)):
            Path("t.cfk").write_text(_backwards(text, kinds))
            assert run(["bicrossed", "t.cfk", "--pair", pair, "--expect", big,
                        "-o", "E.cfk", "--json", "r.json"]) == 0, kinds
            expect = json.loads(Path("r.json").read_text())["checks"][-1]
            assert expect == {"name": f"expect:{big}", "status": "pass", "violations": []}
            assert Path("E.cfk").read_text() == want

    def test_bicrossed_product_is_rendered_in_index_order(self, name):
        pair, _, params = _ORDER_CASES[name]
        text = serialize(load_fixture(name, **params))
        for kinds in ((), ("algebra", "matched")):
            mp = parse_document(_backwards(text, kinds)).find("matched", pair)
            rendered = serialize(Document((Item("algebra", "E", mp.bicrossed),)))
            keys = [
                tuple(mp.bicrossed.basis.index(g) for g in line[3:].split("]")[0].split(", "))
                for line in rendered.splitlines() if line.startswith("  [")
            ]
            # the R x Q block: a Lie pair's is filled last, by skew-symmetry
            assert any(i < mp.R.rank <= j for i, j in keys)
            assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _rank_text(seed: int, k: int) -> str:
    """The ``k``-th ``rank-scale`` document of ``seed``."""
    return workloads._rank_doc_text(*workloads._rank_docs(seed)[k])


# both maps pass on AP here: phi4 needs p*s = q*r
ASSOC_TWISTS = {"p": "1", "q": "2", "r": "3/2", "s": "3"}
NFOLD = {"b": "2", "a1": "1", "a2": "0", "a3": "-2"}


class TestGraphCertificate:
    """``cfkit check`` passes an algebra equal to the twist of a map that
    passed on a pair that passed, both earlier in the call, without calling
    ``check_axioms``; every ``axioms`` entry is still the full check's."""

    def _check(self, text, params=None, names=()):
        """Run ``check``; return the report, the parsed document and the
        algebras ``check_axioms`` was called on."""
        params = params or {}
        Path("t.cfk").write_text(text)
        argv = ["check", "t.cfk", *names, "--json", "r.json"]
        argv += [arg for k, v in params.items() for arg in ("--param", f"{k}={v}")]
        with pytest.MonkeyPatch.context() as patch:
            axioms = _counting(patch, cli, "check_axioms")
            graphs = _counting(patch, deform_module, "_graph")
            code = run(argv)
        report = json.loads(Path("r.json").read_text())
        assert code == (0 if all(c["status"] == "pass" for c in report["checks"]) else 1)
        document = parse_document(text, {k: Fraction(v) for k, v in params.items()})
        for entry in report["checks"]:
            kind, _, name = entry["name"].partition(":")
            if kind == "axioms":
                full = check_axioms(document.find("algebra", name))
                assert entry == cli._entry(entry["name"], full), name
        # the certificate adds no graph pass: one per map checked, as before
        maps = [c for c in report["checks"] if c["name"].startswith("deformation_map:")]
        assert len(graphs) == len(maps)
        return report, document, [args[0] for args in axioms]

    def _uncertified(self, report, checked):
        """Every algebra entry took check_axioms, once."""
        entries = [c for c in report["checks"] if c["name"].startswith("axioms:")]
        assert len(checked) == len(entries)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rank_scale_twist_is_certified(self, workdir, seed):
        for k in range(len(workloads._rank_docs(seed))):
            report, doc, checked = self._check(_rank_text(seed, k))
            assert [(c["name"], c["status"]) for c in report["checks"]] == [
                (name, "pass") for name in workloads._RANK_CHECKS["check"]
            ]
            assert checked == [doc.find("algebra", n) for n in ("E", "VirR", "Q")]

    def test_nfold_twist_is_certified(self, workdir):
        report, doc, checked = self._check(_fixture_text("nfold"), NFOLD)
        assert all(c["status"] == "pass" for c in report["checks"])
        assert checked == [doc.find("algebra", n) for n in ("E3", "VirR", "Q3")]

    def test_associative_twists_are_certified(self, workdir):
        report, doc, checked = self._check(_fixture_text("assoc4"), ASSOC_TWISTS)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["matched_pair:AP"] == "pass"
        assert status["deformation_map:phi2"] == status["deformation_map:phi4"] == "pass"
        assert status["axioms:Qb"] == status["axioms:Qbd"] == "pass"
        names = ("E4", "A2", "Q2", "Q1", "Q11")
        assert checked == [doc.find("algebra", n) for n in names]

    def test_changed_coefficient_is_checked(self, workdir):
        text = _rank_text(1, 1)
        changed = text.replace("[W1, W1] = (a1*d + 2*a1*l)", "[W1, W1] = (a1*d + 3*a1*l)")
        assert changed != text
        report, doc, checked = self._check(changed)
        self._uncertified(report, checked)
        assert checked[-1] == doc.find("algebra", "D")
        assert report["checks"][-1]["status"] == "fail"

    def test_failing_map_is_not_trusted(self, workdir):
        # T is the map's twist at a = 2, c = 1; Qc is its twist where it passes
        text = _fixture_text("wab") + "algebra T : lie { gens W; [W, W] = (2*d + 4*l) W; }\n"
        params = {"a": "2", "b": "0", "c": "1"}
        report, doc, checked = self._check(text, params)
        self._uncertified(report, checked)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["matched_pair:WP"] == "pass"
        assert status["deformation_map:phi"] == "fail"
        pair, phi = doc.find("matched", "WP"), doc.find("defmap", "phi")
        assert deform_module.deformed_algebra(pair, phi).table == doc.find("algebra", "T").table
        assert checked[-2:] == [doc.find("algebra", "Qc"), doc.find("algebra", "T")]

    def test_failing_pair_is_not_trusted(self, workdir):
        # the zero map passes on any pair, and T is its twist, Q's zero table
        text = SHARED_NAME + "defmap phi on P { W -> 0; }\nalgebra T : lie { gens W; }\n"
        report, doc, checked = self._check(text)
        self._uncertified(report, checked)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["matched_pair:P"] == "fail"
        assert status["deformation_map:phi"] == "pass"
        assert checked[-1] == doc.find("algebra", "T")

    def test_algebra_before_its_map_is_checked(self, workdir):
        blocks = _rank_text(1, 1).split("\n\n")
        assert blocks[-2].startswith("defmap") and blocks[-1].startswith("algebra D")
        text = "\n\n".join(blocks[:-2] + [blocks[-1], blocks[-2]]) + "\n"
        report, doc, checked = self._check(text)
        self._uncertified(report, checked)
        assert all(c["status"] == "pass" for c in report["checks"])
        assert checked[-1] == doc.find("algebra", "D")

    def test_unchecked_pair_is_not_trusted(self, workdir):
        report, doc, checked = self._check(_rank_text(1, 1), names=("D",))
        assert [(c["name"], c["status"]) for c in report["checks"]] == [("axioms:D", "pass")]
        assert checked == [doc.find("algebra", "D")]

    # a pair and an algebra equal to its bicrossed product certify each other

    def _check_pairs(self, text, params=None, names=()):
        """``_check``, plus the tables ``actions.check_axioms`` was called on:
        one per pair checked in full.  Every ``matched_pair`` and
        ``cross_compat_direct`` entry must be the full check's."""
        with pytest.MonkeyPatch.context() as patch:
            pairs = _counting(patch, actions_module, "check_axioms")
            report, document, checked = self._check(text, params, names)
        _assert_pair_entries_are_full(report, document)
        return report, document, checked, [args[0] for args in pairs]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rank_scale_pair_is_certified(self, workdir, seed):
        for k in range(len(workloads._rank_docs(seed))):
            report, doc, checked, pairs = self._check_pairs(_rank_text(seed, k))
            assert [(c["name"], c["status"]) for c in report["checks"]] == [
                (name, "pass") for name in workloads._RANK_CHECKS["check"]
            ]
            assert checked == [doc.find("algebra", n) for n in ("E", "VirR", "Q")]
            assert pairs == []

    def test_pair_before_its_algebra_certifies_it(self, workdir):
        params, e, virr, q, np_, phi, d = _rank_text(1, 3).split("\n\n")
        assert e.startswith("algebra E") and np_.startswith("matched NP")
        text = "\n\n".join([params, virr, q, np_, e, phi, d])
        report, doc, checked, pairs = self._check_pairs(text)
        assert [(c["name"], c["status"]) for c in report["checks"]] == [
            (name, "pass") for name in ("axioms:VirR", "axioms:Q", "matched_pair:NP",
                                        "cross_compat_direct:NP", "axioms:E",
                                        "deformation_map:phi", "axioms:D")
        ]
        assert checked == [doc.find("algebra", n) for n in ("VirR", "Q")]
        assert pairs == [doc.find("matched", "NP").bicrossed]

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_changed_coefficient_of_e_checks_both(self, workdir, where):
        text = _rank_text(1, 3)
        changed = text.replace("[L, W2] = (d + l + b) W2;", "[L, W2] = (d + l + 2*b) W2;")
        assert changed != text
        if where == "last":
            params, e, *rest = changed.split("\n\n")
            changed = "\n\n".join([params, *rest[:3], e, *rest[3:]])
        report, doc, checked, pairs = self._check_pairs(changed)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["axioms:E"] == "fail" and status["matched_pair:NP"] == "pass"
        assert doc.find("algebra", "E") in checked
        assert pairs == [doc.find("matched", "NP").bicrossed]

    def test_failing_algebra_certifies_nothing(self, workdir):
        # E and NP's bicrossed product stay equal, and both fail
        text = _rank_text(1, 3).replace("[L, L] = (d + 2*l) L;", "[L, L] = (d + 3*l) L;")
        report, doc, checked, pairs = self._check_pairs(text)
        self._uncertified(report, checked)
        status = {c["name"]: c["status"] for c in report["checks"]}
        assert status["axioms:E"] == status["matched_pair:NP"] == "fail"
        assert doc.find("matched", "NP").bicrossed.constants == doc.find("algebra", "E").constants
        assert pairs == [doc.find("matched", "NP").bicrossed]

    def test_corpus_pair_entries_are_the_full_checks(self, workdir):
        certified = []
        for name in corpus.fixture_names():
            text = _fixture_text(name)
            for i, argv in enumerate(corpus.fixture_lines(name)):
                if argv[0] != "check":
                    continue
                args = cli._PARSER.parse_args(argv)
                params = {k: str(v) for k, v in cli._parse_params(args.param).items()}
                report, doc, _, pairs = self._check_pairs(text, params, args.names)
                full = [c for c in report["checks"] if c["name"].startswith("matched_pair:")]
                if len(pairs) < len(full):
                    certified.append(f"{name}#{i}")
        assert certified == [
            "assoc4#0", "nfold#0", "sv#0", "wab#0", "wab#1", "wab#2", "wab#3"
        ]


def _assert_pair_entries_are_full(report: dict, document: Document) -> None:
    """Each ``matched_pair`` and ``cross_compat_direct`` entry of a ``check``
    report is the one the pair's full check gives."""
    for entry in report["checks"]:
        kind, _, name = entry["name"].partition(":")
        if kind == "matched_pair":
            full = cli._entry(entry["name"], check_matched_pair(document.find("matched", name)))
            assert entry == full, name
        elif kind == "cross_compat_direct":
            pair = document.find("matched", name)
            agree = check_b1_b2_direct(pair).passed == check_matched_pair(pair).passed
            full = cli._entry(entry["name"], check_b1_b2_direct(pair), convention_match=agree)
            assert entry == full, name


class TestReportPipeline:
    def test_convention_mismatch_fails_the_check(self, workdir, monkeypatch):
        # the direct reading disagrees with a pair the normative check passes
        one = (MultiPoly.const(1),)
        broken = CheckReport((Violation("b1", (0, 0, 0), one, ("W",)),))
        monkeypatch.setattr(cli, "check_b1_b2_direct", lambda pair: broken)
        Path("t.cfk").write_text(
            VIR + "algebra Q : lie { gens W; }\nmatched P : lie { R = Vir; Q = Q; }\n"
        )
        assert run(["check", "t.cfk", "P", "--json", "r.json"]) == 1
        checks = json.loads(Path("r.json").read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "matched_pair:P", "cross_compat_direct:P", "convention-mismatch:P"
        ]
        assert checks[0]["status"] == "pass"
        assert checks[1]["convention_match"] is False
        assert checks[2] == {
            "name": "convention-mismatch:P",
            "status": "fail",
            "violations": [{
                "identity": "convention-mismatch",
                "indices": [],
                "residual": "direct and normative verdicts disagree",
            }],
        }

    def test_convention_mismatch_on_a_pair_whose_r_is_not_skew(self, workdir):
        # E fails outside the two cross identities, in R's own skew-symmetry,
        # so the direct check passes a pair the normative check fails
        Path("t.cfk").write_text(
            BAD.replace("Bad", "R") + "algebra Q : lie { gens W; }\n"
            "matched P : lie { R = R; Q = Q; }\n"
        )
        assert run(["check", "t.cfk", "--json", "r.json"]) == 1
        checks = json.loads(Path("r.json").read_text())["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [
            ("axioms:R", "fail"), ("axioms:Q", "pass"), ("matched_pair:P", "fail"),
            ("cross_compat_direct:P", "pass"), ("convention-mismatch:P", "fail"),
        ]
        assert [v["identity"] for v in checks[2]["violations"]] == [
            "E:skew:skew-symmetry", "E:jacobi:jacobi"
        ]
        assert checks[3]["convention_match"] is False

    def test_structure_depth_cap_exits_3(self, workdir, capsys):
        # QYM at a = 0 is solvable(2): one derived step does not reach zero,
        # and the cap goes the way of every other cap, through CapExceeded
        source = str(corpus.fixture_dir("sv") / "input.cfk")
        params = ["--param", "a=0", "--param", "b=0", "--param", "c=0", "--param", "ai=1"]
        argv = ["structure", source, "--algebra", "QYM", *params, "--json", "r.json"]
        assert run(argv) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["structure"]["solvability"] == "solvable(2)"
        assert "error" not in report
        capsys.readouterr()
        assert run(argv + ["--max-depth", "1"]) == 3
        message = "algebra QYM: derived series undecided at --max-depth 1"
        assert capsys.readouterr().err == message + "\n"
        report = json.loads(Path("r.json").read_text())
        assert report["error"] == message
        assert report["structure"]["solvability"] == "unknown"
        assert len(report["structure"]["derived_series"]) == 2

    def test_structure_at_the_exact_depth(self, workdir):
        # QYM's series reaches zero in two steps: a cap of two decides it
        source = str(corpus.fixture_dir("sv") / "input.cfk")
        params = ["--param", "a=0", "--param", "b=0", "--param", "c=0", "--param", "ai=1"]
        argv = ["structure", source, "--algebra", "QYM", *params, "--max-depth", "2"]
        assert run(argv + ["--json", "r.json"]) == 0
        report = json.loads(Path("r.json").read_text())
        assert report["structure"]["solvability"] == "solvable(2)"
        assert "error" not in report

    def test_one_parser_serves_every_call(self, workdir, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        Path("t.cfk").write_text(SCALED_VIR)
        assert run(["check", "t.cfk", "--param", "a=3", "--json", "a.json"]) == 0
        assert run(["check", "t.cfk", "--json", "b.json"]) == 0
        assert built == []
        assert json.loads(Path("a.json").read_text())["params"] == {"a": "3"}
        assert json.loads(Path("b.json").read_text())["params"] == {}
        # the handler is looked up when the call runs, not when the parser was built
        ran = []
        monkeypatch.setattr(cli, "cmd_check", lambda args, report: ran.append(args.file))
        assert run(["check", "t.cfk"]) == 0
        assert ran == ["t.cfk"]


SV_PARAMS = ["--param", "a=0", "--param", "b=0", "--param", "c=0", "--param", "ai=1"]
EQUIV = ["equiv", "SV", "--pair", "SVP", "--phi", "psi1", "--psi", "zero", *SV_PARAMS]


class TestIntegerOptions:
    @pytest.mark.parametrize(
        "argv, option, least",
        [
            (["structure", "VIR", "--algebra", "Vir", "--max-depth", "0"], "--max-depth", 1),
            (["constraints", "SV", "--pair", "SVP", "--degree", "-1", *SV_PARAMS], "--degree", 0),
            (["solve", "sys.json", "--grid-num", "-1"], "--grid-num", 0),
            (["solve", "sys.json", "--grid-den", "0"], "--grid-den", 1),
            (["solve", "sys.json", "--cap", "-1"], "--cap", 0),
            ([*EQUIV, "--grid-num", "-1"], "--grid-num", 0),
            ([*EQUIV, "--grid-den", "0"], "--grid-den", 1),
        ],
        ids=[
            "structure-max-depth",
            "constraints-degree",
            "solve-grid-num",
            "solve-grid-den",
            "solve-cap",
            "equiv-grid-num",
            "equiv-grid-den",
        ],
    )
    def test_below_least_value_exits_2(self, workdir, capsys, argv, option, least):
        Path("sys.json").write_text(json.dumps({"unknowns": ["u0"], "equations": []}))
        files = {
            "VIR": str(corpus.fixture_dir("vir") / "input.cfk"),
            "SV": str(corpus.fixture_dir("sv") / "input.cfk"),
        }
        with pytest.raises(SystemExit) as exc:
            run([files.get(token, token) for token in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be at least {least}, got " in err
        assert "Traceback" not in err

    def test_non_integer_keeps_the_argparse_message(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "sys.json", "--grid-num", "two"])
        assert exc.value.code == 2
        assert "argument --grid-num: invalid int value: 'two'" in capsys.readouterr().err


class TestNestingCapAtTheDefaultRecursionLimit:
    """The parser's nesting cap, met in a fresh interpreter: in this process
    hypothesis may have raised the recursion limit, which would hide a
    ``RecursionError`` below the cap."""

    PREFIX = "algebra Vir : lie { gens L; [L, L] = "

    def check(self, tmp_path, entry: str) -> subprocess.CompletedProcess:
        path = tmp_path / "nested.cfk"
        path.write_text(f"{self.PREFIX}{entry} L; }}\n", encoding="utf-8")
        src = str(Path(cfkit.__file__).resolve().parents[1])
        paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        return subprocess.run(
            [sys.executable, "-m", "cfkit.cli", "check", path.name],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )

    def test_nesting_at_the_cap_parses(self, tmp_path):
        done = self.check(tmp_path, "(" * MAX_NESTING + "d + 2*l" + ")" * MAX_NESTING)
        assert (done.returncode, done.stdout, done.stderr) == (0, "axioms:Vir: pass\n", "")

    @pytest.mark.parametrize(
        "entry",
        [
            "(" * (MAX_NESTING + 1) + "d + 2*l" + ")" * (MAX_NESTING + 1),
            "(" * 1000 + "d + 2*l" + ")" * 1000,
            "-" * 5000 + "(d + 2*l)",
        ],
        ids=["one-past-the-cap", "1000-parentheses", "5000-minus-signs"],
    )
    def test_the_opener_past_the_cap_is_refused_at_its_column(self, tmp_path, entry):
        done = self.check(tmp_path, entry)
        col = len(self.PREFIX) + MAX_NESTING + 1
        message = f"nesting depth {MAX_NESTING + 1} exceeds the cap {MAX_NESTING}"
        assert done.returncode == 2
        assert done.stderr == f"nested.cfk:1:{col}: error: {message}\n"
        assert "Traceback" not in done.stderr
