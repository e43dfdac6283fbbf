"""Determinism self-test of the benchmark.

Run from the repository root: ``python -m pytest -q bench``.  Each
workload's two full traced passes run side by side, in two interpreters.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cfkit  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced_passes(workload: str, seed: int, outs: list[Path]) -> list[dict]:
    procs = [
        subprocess.Popen([sys.executable, str(BENCH / "worker.py"), workload, str(seed), "1", str(out)])
        for out in outs
    ]
    try:
        codes = [proc.wait(timeout=150) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert codes == [0] * len(outs)
    return [json.loads(out.read_text(encoding="utf-8")) for out in outs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_passes_repeat(workload, tmp_path):
    first, second = _traced_passes(workload, 7, [tmp_path / "first.json", tmp_path / "second.json"])
    assert first["failures"] == [] and second["failures"] == []
    assert first["names"] == second["names"]
    assert first["outcomes"] == second["outcomes"]
    assert first["trace"]["counters"] == second["trace"]["counters"]
    assert first["trace"]["counters"]["poly.mul.calls"] > 0


@pytest.mark.parametrize("workload", ["random-maps", "rank-scale"])
def test_seed_changes_generated_inputs(workload):
    one = workloads.describe_inputs(workload, 1)
    assert one == workloads.describe_inputs(workload, 1)
    assert one != workloads.describe_inputs(workload, 2)


def test_corpus_inputs_ignore_seed():
    one = workloads.describe_inputs("corpus", 1)
    assert len(one) == 58
    assert one == workloads.describe_inputs("corpus", 2)


def test_tracer_rebinds_every_import_and_restores_it():
    original = cfkit.algebra.check_axioms
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = cfkit.algebra.check_axioms
        assert wrapped is not original
        assert cfkit.cli.check_axioms is wrapped
        assert cfkit.check_axioms is wrapped
        assert cfkit.deform.poly_det is cfkit.structure.poly_det
        text = (cfkit.corpus.fixture_dir("vir") / "input.cfk").read_text()
        vir = cfkit.parse_document(text).find("algebra", "Vir")
        assert cfkit.check_axioms(vir).passed
    finally:
        tracer.uninstall()
    assert cfkit.algebra.check_axioms is original
    assert cfkit.cli.check_axioms is original
    assert tracer.calls["algebra.check_axioms"] == 1
    assert tracer.calls["algebra.spectral_eval"] > 0
    assert tracer.counts["dsl.parse.bytes"] == len(text.encode("utf-8"))
    spans = {span[3]: span for span in tracer.spans}
    assert spans["dsl.try_parse"][1] == spans["dsl.parse_document"][0]
    assert spans["algebra.check_axioms"][1] is None
