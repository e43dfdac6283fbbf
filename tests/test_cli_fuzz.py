"""Byte-level mutations of the corpus inputs never crash or hang the CLI.

Each case runs one of a fixture's lines that read its input (every command
but ``solve``, which reads a system file) on a mutated copy of that input,
twice, inside a temporary directory as the corpus runner does, so that
``-o`` files land there too: the exit code must be a documented one, no
exception may escape ``cli.main``, and the two ``--json`` reports, timings
aside, must be equal.  The explicit examples are the inputs that once
crashed or hung the CLI, run through the fixture's first line.
"""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import corpus

# pieces that reach the parser's caps and the degree budget, beside raw bytes
_PIECES = [b"^64", b"^2", b"9" * 40, b"(d+l+1)", b"*", b"(", b")", b";", b"}", b"\xff"]


# the lines that read the fixture's input, by command, so that a command with
# few lines, such as equiv, is drawn as often as check
_LINES: dict[str, list[tuple[str, int]]] = {}
for _name in corpus.fixture_names():
    for _line, _argv in enumerate(corpus.fixture_lines(_name)):
        if _argv[1] == "input.cfk":
            _LINES.setdefault(_argv[0], []).append((_name, _line))


@st.composite
def mutated_inputs(draw):
    name, line = draw(st.sampled_from(_LINES[draw(st.sampled_from(sorted(_LINES)))]))
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
    return name, line, bytes(data)


def _algebra(entry: str) -> bytes:
    return f"algebra A : lie {{ gens L; [L, L] = {entry} L; }}\n".encode()


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=mutated_inputs())
# a literal past Python's 4300-digit int() limit
@example(case=("vir", 0, _algebra("(" + "1" * 5000 + ")")))
# a literal whose power renders past that limit
@example(case=("vir", 0, _algebra("(" + "9" * 600 + "^8)")))
# degree over the entry budget, a power of a power, a tower of constants
@example(case=("vir", 0, _algebra("((d+l+1)^64)")))
@example(case=("vir", 0, _algebra("(((d+l+1)^64)^2)")))
@example(case=("vir", 0, _algebra("((((2^64)^64)^64)^64)")))
# a byte that is not UTF-8
@example(case=("vir", 0, _algebra("(d)") + b"\xff"))
# nesting past the parser's recursion, even at the raised recursion limit
# hypothesis runs under: 1000 parentheses, 5000 unary minus signs
@example(case=("vir", 0, _algebra("(" * 1000 + "l" + ")" * 1000)))
@example(case=("vir", 0, _algebra("-" * 5000 + "l")))
def test_check_on_mutated_corpus_input(case):
    name, line, data = case
    argv = corpus.fixture_lines(name)[line]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "input.cfk").write_bytes(data)
        runs = [corpus._run_line(workdir, argv) for _ in range(2)]
    assert runs[0]["exit"] in (0, 1, 2, 3)
    assert runs[0] == runs[1]
