"""One table of the input and resource caps of the ``.cfk`` parser, the
CLI, the polynomial layer and the constraint search, each pinned at its
boundary both ways (boundary-value analysis).

A row names a cap and its value, the smallest input the cap refuses with
the exit code and message ``cfkit check`` reports for it, and the largest
input it accepts.  An input is a table coefficient of a rank-one Lie
algebra, or a ``--param`` value that one scales; every accepted input is a
nonzero multiple of ``d + 2*l``, a Lie bracket, so ``check`` passes it
(exit 0).  Where tests elsewhere already pin a cap both ways, the row names
them instead of repeating them.  A cap that is a CLI flag is named
``cfkit COMMAND --FLAG``, and its value is the flag's default.
"""

import importlib
from dataclasses import dataclass

import pytest

from cfkit import cli, constraints, dsl, poly

TEMPLATE = "{params}algebra A : lie {{ gens L; [L, L] = ({coeff}) L; }}\n"
#: The largest numeric literal, 640 nines: 2127 bits.
NINES = "9" * dsl.MAX_DIGITS


@dataclass(frozen=True)
class Row:
    cap: str  # module.NAME, or cfkit COMMAND --FLAG
    value: int
    refused: str = ""  # a table coefficient, or a --param value
    exit: int = 0
    message: str = ""  # the last line on stderr
    accepted: str = ""
    param: bool = False  # the inputs are --param a=VALUE for the coefficient a*(d + 2*l)
    pinned_by: tuple[str, ...] = ()  # tests/<module>.py::<Class>::<test>
    use: str = ""  # which use of the cap, where one cap has two rows


ROWS = [
    Row("dsl.MAX_EXPONENT", 64,
        refused="2^65*(d + 2*l)", exit=2, message="exponent 65 exceeds the cap 64",
        accepted="2^64*(d + 2*l)"),
    Row("dsl.MAX_DIGITS", 640,
        refused="7" * 641 + "*(d + 2*l)", exit=2,
        message="numeric literal of 641 digits exceeds the cap 640",
        accepted="7" * 640 + "*(d + 2*l)"),
    Row("dsl.MAX_DIGITS", 640, param=True,
        refused="7" * 641, exit=2,
        message=f"bad rational '{'7' * 641}' in --param 'a={'7' * 641}'",
        accepted="7" * 640),
    # 640 nines to the 64th is 64 * 2127 bits, the cap; doubled, its base
    # has 2128 bits, the least refused at that exponent
    Row("dsl.MAX_POWER_BITS", 64 * 2127,
        refused=f"(2*{NINES})^64*(d + 2*l)", exit=2,
        message="power of coefficient bit length 136192 exceeds the cap 136128",
        accepted=f"{NINES}^64*(d + 2*l)"),
    Row("dsl.MAX_NESTING", 64, pinned_by=(
        "tests/test_cli.py::TestNestingCapAtTheDefaultRecursionLimit"
        "::test_nesting_at_the_cap_parses",
        "tests/test_cli.py::TestNestingCapAtTheDefaultRecursionLimit"
        "::test_the_opener_past_the_cap_is_refused_at_its_column",
    )),
    Row("cli.MAX_ENTRY_DEGREE", 16, pinned_by=(
        "tests/test_cli.py::TestDegreeBudget::test_budget_boundary",
    )),
    Row("cli.MAX_ANSATZ_DEGREE", 4, pinned_by=(
        "tests/test_cli.py::TestAnsatzDegreeBudget::test_budget_boundary",
    )),
    # an ansatz may use u0 to u{MAX_UNKNOWN}: 1021 unknowns pass, 1022 exit 3
    Row("poly.MAX_UNKNOWN", 1020, use="ansatz", pinned_by=(
        "tests/test_cli.py::TestUnknownIndexCap::test_constraints_at_the_cap",
        "tests/test_cli.py::TestUnknownIndexCap::test_constraints_exactly_at_the_cap",
        "tests/test_cli.py::TestUnknownIndexCap::test_constraints_one_past_the_cap_exits_3",
    )),
    # an index in a document or a solve system: u1020 is read, u1021 exits 2
    Row("poly.MAX_UNKNOWN", 1020, use="document", pinned_by=(
        "tests/test_dsl.py::TestDiagnostics::test_unknown_index_at_the_cap_parses",
        "tests/test_dsl.py::TestDiagnostics"
        "::test_unknown_index_over_the_cap_rejected_at_its_token",
        "tests/test_cli.py::TestUnknownIndexCap::test_table_entry_one_past_the_cap_exits_2",
    )),
    Row("poly.MAX_UNKNOWN", 1020, use="system", pinned_by=(
        "tests/test_cli.py::TestUnknownIndexCap::test_solve_at_the_cap",
        "tests/test_cli.py::TestUnknownIndexCap::test_solve_past_the_cap_exits_2",
    )),
    # the guard every product and substitution keeps
    Row("poly.MAX_DEGREE", 2**15 - 1, pinned_by=(
        "tests/test_poly.py::TestPackedKeys::test_degree_guard_at_its_boundary",
        "tests/test_cli.py::TestSolveCap::test_degree_guard_exits_3",
    )),
    Row("constraints.MAX_GRID_POINTS", 10**6, pinned_by=(
        "tests/test_constraints.py::TestGrid::test_point_budget_boundary",
        "tests/test_cli.py::TestSolveCap::test_grid_one_past_the_budget_exits_3",
    )),
    # _Grid._size counts a grid of N + Dmax - 1 = 500000 and refuses 500001
    Row("constraints.MAX_GRID_POINTS", 10**6, use="grid-count", pinned_by=(
        "tests/test_cli.py::TestSolveCap::test_grid_one_past_the_budget_exits_3",
        "tests/test_cli.py::TestSolveCap::test_grid_count_one_past_its_bound_exits_3",
    )),
    Row("constraints.MAX_TABLE_CELLS", 8 * 10**6, pinned_by=(
        "tests/test_cli.py::TestSolveCap::test_power_tables_exactly_at_the_budget",
        "tests/test_cli.py::TestSolveCap::test_power_tables_are_budgeted_before_any_is_built",
    )),
    # exactly at a monkeypatched budget, and at the real one on either side
    Row("constraints.MAX_SUBSTITUTION_CELLS", 10**6, pinned_by=(
        "tests/test_constraints.py::TestLinearEliminate::test_substitution_budget_accumulates",
        "tests/test_constraints.py::TestLinearEliminate::test_substitution_budget",
        "tests/test_cli.py::TestSolveCap::test_substitution_budget_exits_3_at_once",
    )),
    # the residual unknowns a search takes: 6 searched by default, 7 exit 3
    Row("cfkit solve --cap", 6, pinned_by=(
        "tests/test_cli.py::TestSolveCap::test_cap_exactly_at_the_residual_unknowns",
        "tests/test_cli.py::TestSolveCap::test_cap_exceeded_exits_3",
    )),
    # QYM of sv is solvable(2): decided at --max-depth 2, exit 3 at 1
    Row("cfkit structure --max-depth", 10, pinned_by=(
        "tests/test_cli.py::TestReportPipeline::test_structure_at_the_exact_depth",
        "tests/test_cli.py::TestReportPipeline::test_structure_depth_cap_exits_3",
    )),
]
IDS = [f"{row.cap.removeprefix('cfkit ').replace(' ', '')}{'-param' if row.param else ''}"
       f"{'-' + row.use if row.use else ''}" for row in ROWS]
MODULES = {"cli": cli, "constraints": constraints, "dsl": dsl, "poly": poly}


def _check(capsys, value: str, param: bool) -> tuple[int, str, str]:
    """``cfkit check`` on the coefficient ``value``, or on ``a*(d + 2*l)``
    with ``--param a=value``: the exit code, stdout and stderr."""
    if param:
        text, argv = TEMPLATE.format(params="param a = 1;\n", coeff="a*(d + 2*l)"), [
            "--param", f"a={value}"]
    else:
        text, argv = TEMPLATE.format(params="", coeff=value), []
    with open("t.cfk", "w", encoding="utf-8") as out:
        out.write(text)
    capsys.readouterr()
    code = cli.main(["check", "t.cfk", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def _value(cap: str) -> int:
    """The constant ``module.NAME``, or the default of ``cfkit COMMAND --FLAG``."""
    if cap.startswith("cfkit "):
        _, command, flag = cap.split()
        commands = next(a for a in cli._PARSER._actions if a.dest == "cmd").choices
        return commands[command].get_default(flag.removeprefix("--").replace("-", "_"))
    module, name = cap.split(".")
    return getattr(MODULES[module], name)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_row_is_the_caps_value(row):
    assert _value(row.cap) == row.value


@pytest.mark.parametrize("row", [r for r in ROWS if not r.pinned_by],
                         ids=[i for r, i in zip(ROWS, IDS) if not r.pinned_by])
def test_smallest_refused_and_largest_accepted(row, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = _check(capsys, row.refused, row.param)
    assert (code, out) == (row.exit, "")
    assert err.splitlines()[-1].endswith(row.message)
    assert "Traceback" not in err
    assert _check(capsys, row.accepted, row.param) == (0, "axioms:A: pass\n", "")


@pytest.mark.parametrize("row", [r for r in ROWS if r.pinned_by],
                         ids=[i for r, i in zip(ROWS, IDS) if r.pinned_by])
def test_pinned_elsewhere_names_a_test(row):
    for node in row.pinned_by:
        path, cls, test = node.split("::")
        module = importlib.import_module(path.removeprefix("tests/").removesuffix(".py"))
        assert callable(getattr(getattr(module, cls), test)), node
