"""README's quick tour and Python API example, run as written."""

import re
import shlex
from pathlib import Path

from cfkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    """The fenced blocks of README tagged ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def _quick_tour_commands() -> list[list[str]]:
    """The ``cfkit`` calls of the first ``sh`` block that runs ``check``,
    continuation lines joined, without the program name."""
    block = next(b for b in _blocks("sh") if b.startswith("cfkit check"))
    calls = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(call[0] == "cfkit" for call in calls)
    return [call[1:] for call in calls]


def test_quick_tour_and_python_api(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (demo,) = _blocks("text")
    Path("demo.cfk").write_text(demo, encoding="utf-8")
    commands = _quick_tour_commands()
    assert [argv[0] for argv in commands] == ["check", "bicrossed", "deform"]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    assert "[W, W] = (3*d + 6*l) W;" in Path("twisted.cfk").read_text(encoding="utf-8")
    capsys.readouterr()
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "not_solvable\n"
