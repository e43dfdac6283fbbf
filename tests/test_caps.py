"""One table of the input caps of the ``.cfk`` parser and the CLI, each
pinned at its boundary both ways (boundary-value analysis).

A row names a cap and its value, the smallest input the cap refuses with
the exit code and message ``cfkit check`` reports for it, and the largest
input it accepts.  An input is a table coefficient of a rank-one Lie
algebra, or a ``--param`` value that one scales; every accepted input is a
nonzero multiple of ``d + 2*l``, a Lie bracket, so ``check`` passes it
(exit 0).  Where a test elsewhere already pins a cap both ways through the
CLI, the row names that test instead of repeating it.
"""

import importlib
from dataclasses import dataclass

import pytest

from cfkit import cli, dsl

TEMPLATE = "{params}algebra A : lie {{ gens L; [L, L] = ({coeff}) L; }}\n"
#: The largest numeric literal, 640 nines: 2127 bits.
NINES = "9" * dsl.MAX_DIGITS


@dataclass(frozen=True)
class Row:
    cap: str  # module.NAME
    value: int
    refused: str = ""  # a table coefficient, or a --param value
    exit: int = 0
    message: str = ""  # the last line on stderr
    accepted: str = ""
    param: bool = False  # the inputs are --param a=VALUE for the coefficient a*(d + 2*l)
    pinned_by: tuple[str, ...] = ()  # tests/<module>.py::<Class>::<test>


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
]
IDS = [f"{row.cap}{'-param' if row.param else ''}" for row in ROWS]


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


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_row_is_the_caps_value(row):
    module, name = row.cap.split(".")
    assert getattr({"cli": cli, "dsl": dsl}[module], name) == row.value


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
