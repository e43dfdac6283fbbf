"""Byte-level mutations of the corpus inputs never crash or hang ``cfkit check``.

Each case runs a fixture's first ``check`` line on a mutated copy of its
input, twice: the exit code must be a documented one, no exception may
escape ``cli.main``, and the two ``--json`` reports, timings aside, must be
equal.  The explicit examples are the inputs that once crashed or hung the
CLI.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import cli, corpus

# pieces that reach the parser's caps and the degree budget, beside raw bytes
_PIECES = [b"^64", b"^2", b"9" * 40, b"(d+l+1)", b"*", b"(", b")", b";", b"}", b"\xff"]


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(corpus.fixture_names()))
    data = bytearray((corpus.fixture_dir(name) / "input.cfk").read_bytes())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        piece = draw(st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(_PIECES)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            data[at:at] = piece
        elif op == "delete":
            del data[at : at + len(piece)]
        else:
            data[at : at + len(piece)] = piece
    return name, bytes(data)


def _algebra(entry: str) -> bytes:
    return f"algebra A : lie {{ gens L; [L, L] = {entry} L; }}\n".encode()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=mutated_inputs())
# a literal past Python's 4300-digit int() limit
@example(case=("vir", _algebra("(" + "1" * 5000 + ")")))
# a literal whose power renders past that limit
@example(case=("vir", _algebra("(" + "9" * 600 + "^8)")))
# degree over the entry budget, a power of a power, a tower of constants
@example(case=("vir", _algebra("((d+l+1)^64)")))
@example(case=("vir", _algebra("(((d+l+1)^64)^2)")))
@example(case=("vir", _algebra("((((2^64)^64)^64)^64)")))
# a byte that is not UTF-8
@example(case=("vir", _algebra("(d)") + b"\xff"))
def test_check_on_mutated_corpus_input(case):
    name, data = case
    argv = corpus.fixture_lines(name)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.cfk"
        path.write_bytes(data)
        runs = []
        for out in ("a.json", "b.json"):
            report_path = Path(tmp) / out
            code = cli.main([argv[0], str(path), *argv[2:], "--json", str(report_path)])
            assert code in (0, 1, 2, 3)
            report = json.loads(report_path.read_text()) if report_path.exists() else None
            if report is not None:
                report.pop("timings")
            runs.append((code, report))
    assert runs[0] == runs[1]
