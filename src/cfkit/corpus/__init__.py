"""Bundled fixtures and golden reports for the worked examples.

Each fixture directory holds ``input.cfk`` (declarations), ``params.txt``
(one CLI invocation per line, run with the fixture directory's files copied
into a scratch directory), and ``expected.json`` with the golden reports.
Reports are compared after dropping the ``timings`` field; everything else,
including exit codes and the serialized output algebras, must match byte for
byte.  ``python -m cfkit.corpus --regen`` rewrites the goldens, preserving
each fixture's ``notes``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import tempfile
from pathlib import Path

from .. import cli

_ROOT = Path(__file__).resolve().parent


def fixture_names() -> list[str]:
    return sorted(
        p.name for p in _ROOT.iterdir() if p.is_dir() and (p / "input.cfk").exists()
    )


def fixture_dir(name: str) -> Path:
    path = _ROOT / name
    if not (path / "input.cfk").exists():
        raise KeyError(f"no fixture named {name!r}")
    return path


def fixture_lines(name: str) -> list[list[str]]:
    lines = []
    for raw in (fixture_dir(name) / "params.txt").read_text(encoding="utf-8").splitlines():
        raw = raw.strip()
        if raw and not raw.startswith("#"):
            lines.append(shlex.split(raw))
    return lines


def _run_line(workdir: Path, argv: list[str]) -> dict:
    report_path = workdir / "report.json"
    report_path.unlink(missing_ok=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = cli.main(argv + ["--json", "report.json"])
    finally:
        os.chdir(cwd)
    report = {}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report.pop("timings", None)
    return {"args": argv, "exit": code, "report": report}


def run_fixture(name: str) -> list[dict]:
    """The reports of ``name``'s invocations, run in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        shutil.copy(fixture_dir(name) / "input.cfk", workdir / "input.cfk")
        return [_run_line(workdir, argv) for argv in fixture_lines(name)]


def _golden(name: str) -> dict:
    path = fixture_dir(name) / "expected.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"reports": []}


def fixture_notes(name: str) -> list[str]:
    return _golden(name).get("notes", [])


def fixture_reports(name: str) -> list[dict]:
    return _golden(name)["reports"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m cfkit.corpus")
    parser.add_argument("names", nargs="*", help="fixtures to run (default: all)")
    parser.add_argument("--regen", action="store_true", help="rewrite the goldens")
    args = parser.parse_args(argv)
    failed = False
    for name in args.names or fixture_names():
        reports = run_fixture(name)
        if args.regen:
            payload = {"notes": fixture_notes(name), "reports": reports}
            (fixture_dir(name) / "expected.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        # after --regen this reads back what was just written
        golden = fixture_reports(name)
        if len(golden) != len(reports):
            diffs = [f"command count changed: golden {len(golden)}, got {len(reports)}"]
        else:
            diffs = [
                f"command {i} ({' '.join(got['args'])}) differs"
                for i, (want, got) in enumerate(zip(golden, reports))
                if want != got
            ]
        print(f"{name}: {'FAIL' if diffs else 'pass'}")
        for diff in diffs:
            print(f"  {diff}")
        failed = failed or bool(diffs)
    return 1 if failed else 0
